"""Independent reference checks for built packings.

Nothing here calls into hcpack: crossings are decided from the real
integer coordinates with NumPy, so a packing passes only if it is 1-plane
in the actual drawing, whatever oracle the program used to build or
verify it.
"""

from __future__ import annotations

import numpy as np

INT64_SAFE = 2**29  # |coordinate| bound under which every product fits int64


def guaranteed(config: str, n: int) -> int:
    """Cycles the paper guarantees for this configuration and size."""
    if config == "convex":
        return n // 3
    if config == "wheel":
        return (n - 1) // 3
    return n.bit_length() - 2  # n = 2^k + h gives k - 1


def _crossings(pts: np.ndarray) -> np.ndarray:
    """Per-edge proper-crossing counts of the closed polygon `pts`."""
    m = len(pts)
    p, d = pts, np.roll(pts, -1, axis=0) - pts
    q = p + d
    # o1[i, j] = cross(d_j, p_i - p_j), o2[i, j] = cross(d_j, q_i - p_j)
    o1 = d[None, :, 0] * (p[:, None, 1] - p[None, :, 1]) - d[None, :, 1] * (p[:, None, 0] - p[None, :, 0])
    o2 = d[None, :, 0] * (q[:, None, 1] - p[None, :, 1]) - d[None, :, 1] * (q[:, None, 0] - p[None, :, 0])
    s1, s2 = np.sign(o1), np.sign(o2)
    idx = np.arange(m)
    apart = np.ones((m, m), dtype=bool)
    apart[idx, idx] = False
    apart[idx, (idx + 1) % m] = False
    apart[idx, (idx - 1) % m] = False
    if np.any(((s1 == 0) | (s2 == 0)) & apart):
        raise ValueError("three collinear points on non-adjacent edges")
    crossed = (s1 * s2 < 0) & (s1.T * s2.T < 0) & apart
    return crossed.sum(axis=1)


def check_packing(points, config: str, cycles) -> list[str]:
    """Problems found with `cycles` on `points`; empty when the packing is
    Hamiltonian, pairwise edge-disjoint, 1-plane in coordinates and meets
    the guaranteed count."""
    n = len(points)
    problems = []
    need = guaranteed(config, n)
    if len(cycles) < need:
        problems.append(f"{len(cycles)} cycles, {need} guaranteed")
    big = max(max(abs(x), abs(y)) for x, y in points) >= INT64_SAFE
    coords = np.array(points, dtype=object if big else np.int64)
    seen = set()
    for ci, cyc in enumerate(cycles):
        if sorted(cyc) != list(range(n)):
            problems.append(f"cycle {ci} is not Hamiltonian")
            continue
        edges = {frozenset((cyc[i], cyc[(i + 1) % n])) for i in range(n)}
        if edges & seen:
            problems.append(f"cycle {ci} shares an edge with an earlier cycle")
        seen |= edges
        try:
            worst = int(_crossings(coords[list(cyc)]).max())
        except ValueError as exc:
            problems.append(f"cycle {ci}: {exc}")
            continue
        if worst > 1:
            problems.append(f"cycle {ci} has an edge crossed {worst} times")
    return problems
