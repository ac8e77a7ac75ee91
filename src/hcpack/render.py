"""SVG rendering of packings: one stroke color per cycle, dashed strokes
for edges a join removed."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .cycles import HamCycle
from .geometry import PointSet

CYCLE_COLORS = [
    "green",
    "blue",
    "red",
    "gold",
    "purple",
    "darkorange",
    "teal",
    "magenta",
    "saddlebrown",
    "olive",
    "navy",
    "crimson",
    "darkcyan",
    "indigo",
    "darkgreen",
    "chocolate",
]

_SIZE = 720.0
_MARGIN = 40.0


def _transform(ps: PointSet):
    """The svg position of vertex i, from the set's `xs` and `ys`."""
    xs, ys = ps.xs, ps.ys
    x0, y0 = min(xs), min(ys)
    span = max(max(xs) - x0, max(ys) - y0, 1)
    scale = (_SIZE - 2 * _MARGIN) / span

    def tx(i):
        # svg y grows downward
        return (
            _MARGIN + (xs[i] - x0) * scale,
            _SIZE - _MARGIN - (ys[i] - y0) * scale,
        )

    return tx


def render_svg(
    ps: PointSet,
    cycles: Sequence[HamCycle],
    removed_edges: Optional[Sequence[Sequence[Tuple[int, int]]]] = None,
) -> str:
    """Deterministic standalone SVG document for a packing."""
    tx = _transform(ps)
    out: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.0f}" '
        f'height="{_SIZE:.0f}" viewBox="0 0 {_SIZE:.0f} {_SIZE:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for ci, cyc in enumerate(cycles):
        color = CYCLE_COLORS[ci % len(CYCLE_COLORS)]
        for a, b in cyc.edges():
            (x1, y1), (x2, y2) = tx(a), tx(b)
            out.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="{color}" stroke-width="1.6"/>'
            )
        if removed_edges and ci < len(removed_edges):
            for a, b in removed_edges[ci]:
                (x1, y1), (x2, y2) = tx(a), tx(b)
                out.append(
                    f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                    f'stroke="{color}" stroke-width="1.2" stroke-dasharray="6,5"/>'
                )
    for i in range(len(ps)):
        x, y = tx(i)
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="black"/>')
        out.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="12" '
            f'font-family="sans-serif">{i}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
