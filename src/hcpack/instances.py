"""Instance generation and the JSON file formats.

Files carry integer coordinates only, serialized with a fixed key order so
the content digest is stable.  Generated instances pass `PointSet`
validation before being emitted; a failed validation retries
deterministically with a fresh jitter or a larger radius.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, List, Optional, Tuple

from .errors import DegenerateInput, InvalidN
from .geometry import (
    Config,
    Point,
    PointSet,
    coordinate_oracle,  # unused here; perfbench/tracer.py patches this name
    line_direction,
)

RADIUS = 10**6


def _require_integers(values: Iterable, what: str) -> None:
    """JSON integers only: a float, a string or `true` is malformed input.

    The set of the values' types is built at C speed; only when it holds
    another type than `int` are the values walked one by one, to name the
    first bad one."""
    values = list(values)
    if {*map(type, values)} <= {int}:
        return
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise DegenerateInput(f"malformed {what} must be integers, got {v!r}")


def _read_json(path: str, what: str):
    """The parsed JSON document at `path`; unreadable or invalid JSON is
    malformed input."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DegenerateInput(f"cannot read {what} {path}: {exc}") from exc


@dataclass
class InstanceFile:
    points: List[Tuple[int, int]]
    config: str
    center_index: Optional[int] = None
    seed: Optional[int] = None
    # `(self._key(), ps)` for the PointSet `generate` validated
    _accepted: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def _key(self) -> tuple:
        return tuple(self.points), self.config, self.center_index

    def to_point_set(self) -> PointSet:
        """The validated `PointSet` of this instance.  A generated instance
        returns the one `generate` accepted while its points, config and
        center are unchanged; anything else is validated anew."""
        if self._accepted is not None and self._accepted[0] == self._key():
            return self._accepted[1]
        return PointSet(
            tuple(Point(x, y) for x, y in self.points),
            Config(self.config),
            self.center_index,
        )

    def canonical_json(self) -> str:
        doc = {
            "config": self.config,
            "center_index": self.center_index,
            "seed": self.seed,
            "points": [[x, y] for x, y in self.points],
        }
        return json.dumps(doc, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.canonical_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "InstanceFile":
        doc = _read_json(path, "instance file")
        try:
            points = [(x, y) for x, y in doc["points"]]
            config = str(doc["config"])
            center = doc.get("center_index")
            seed = doc.get("seed")
        except (KeyError, TypeError, ValueError) as exc:
            raise DegenerateInput(f"malformed instance file {path}: {exc}") from exc
        if config not in {c.value for c in Config}:
            raise DegenerateInput(f"malformed instance file {path}: unknown config {config!r}")
        optional = [v for v in (center, seed) if v is not None]
        values = chain(chain.from_iterable(points), optional)
        _require_integers(values, f"instance file {path}: coordinates, center_index and seed")
        return cls(points=points, config=config, center_index=center, seed=seed)


@dataclass
class PackingFile:
    instance_hash: str
    cycles: List[List[int]]
    removed_edges: List[List[Tuple[int, int]]] = field(default_factory=list)

    def canonical_json(self) -> str:
        doc = {
            "instance_hash": self.instance_hash,
            "cycles": self.cycles,
            "removed_edges": [
                [[a, b] for a, b in per_cycle] for per_cycle in self.removed_edges
            ],
        }
        return json.dumps(doc, separators=(",", ":"))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.canonical_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "PackingFile":
        doc = _read_json(path, "packing file")
        try:
            cycles = [list(cyc) for cyc in doc["cycles"]]
            digest = str(doc["instance_hash"])
            removed = [
                [(a, b) for a, b in per_cycle]
                for per_cycle in doc.get("removed_edges", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise DegenerateInput(f"malformed packing file {path}: {exc}") from exc
        edges = chain.from_iterable(removed)
        values = chain(chain.from_iterable(cycles), chain.from_iterable(edges))
        _require_integers(values, f"packing file {path}: cycle vertices and removed edges")
        return cls(instance_hash=digest, cycles=cycles, removed_edges=removed)


def _regular_polygon(m: int, radius: int) -> List[Tuple[int, int]]:
    """m points on a circle, turned an eighth of a step off the axes."""
    pts = []
    for i in range(m):
        ang = 2 * math.pi * i / m + math.pi / (4 * m)
        pts.append((round(radius * math.cos(ang)), round(radius * math.sin(ang))))
    return pts


def _convex_points(n: int, seed: int) -> Tuple[List[Tuple[int, int]], PointSet]:
    # jitter inside a guard band that keeps the ccw hull order intact
    band = max(1, int(RADIUS * (1 - math.cos(math.pi / n)) / 4))
    for attempt in range(64):
        rng = random.Random(seed * 1000003 + attempt)
        raw = _regular_polygon(n, RADIUS)
        pts = [
            (x + rng.randint(-band, band), y + rng.randint(-band, band))
            for x, y in raw
        ]
        try:
            ps = PointSet(tuple(Point(x, y) for x, y in pts), Config.CONVEX)
        except DegenerateInput:
            continue
        return pts, ps
    raise DegenerateInput(f"could not draw a convex instance with n={n}")


def _wheel_points(n: int) -> Tuple[List[Tuple[int, int]], PointSet]:
    # rounding can put the center on the wrong side of a near-diameter
    # chord; a larger radius shrinks the rounding error relative to it
    radius = RADIUS
    for _ in range(8):
        pts = _regular_polygon(n - 1, radius) + [(0, 0)]
        try:
            ps = PointSet(tuple(Point(x, y) for x, y in pts), Config.WHEEL, center_index=n - 1)
        except DegenerateInput:
            radius *= 10
            continue
        return pts, ps
    raise DegenerateInput(f"could not draw a wheel instance with n={n}")


def _general_points(n: int, seed: int) -> Tuple[List[Tuple[int, int]], PointSet]:
    """n points drawn uniformly from the square of side 2 * RADIUS, a
    candidate repeating a point or collinear with two earlier ones drawn
    again, with the PointSet that accepts them.

    Nearly every draw is in general position as it stands, so the first n
    candidates are validated once, as one PointSet; only if that refuses
    them is the draw repeated from the same seed, candidate by candidate."""
    rng = random.Random(seed)
    pts = [(rng.randint(-RADIUS, RADIUS), rng.randint(-RADIUS, RADIUS)) for _ in range(n)]
    try:
        return pts, PointSet(tuple(Point(x, y) for x, y in pts))
    except DegenerateInput:
        pass
    rng = random.Random(seed)
    pts = []
    # later[i]: the line directions from pts[i] to the points drawn after
    # it, so a candidate repeating a point or collinear with two costs
    # O(len(pts))
    later: List[set] = []
    while len(pts) < n:
        cx, cy = rng.randint(-RADIUS, RADIUS), rng.randint(-RADIUS, RADIUS)
        dirs = []
        for (ax, ay), seen in zip(pts, later):
            d = line_direction(cx - ax, cy - ay)
            if d is None or d in seen:
                break
            dirs.append(d)
        else:
            for d, seen in zip(dirs, later):
                seen.add(d)
            pts.append((cx, cy))
            later.append(set())
    return pts, PointSet(tuple(Point(x, y) for x, y in pts))


def generate(config: Config, n: int, seed: Optional[int] = None) -> InstanceFile:
    """A fresh validated instance of the requested configuration.  The
    draw keeps the `PointSet` that accepted it, so `to_point_set` does not
    validate it again.  A missing seed is 0, and is recorded as 0, so a
    seedless instance and its seed-0 twin are one file."""
    if seed is None:
        seed = 0
    if config is Config.CONVEX:
        if n < 3:
            raise InvalidN("convex instances need n >= 3")
        pts, ps = _convex_points(n, seed)
        inst = InstanceFile(pts, config.value, None, seed)
    elif config is Config.WHEEL:
        if n % 2 != 0 or n < 4:
            raise InvalidN("wheel instances need even n >= 4")
        pts, ps = _wheel_points(n)
        inst = InstanceFile(pts, config.value, n - 1, seed)
    else:
        if n < 3:
            raise InvalidN("general instances need n >= 3")
        pts, ps = _general_points(n, seed)
        inst = InstanceFile(pts, config.value, None, seed)
    inst._accepted = (inst._key(), ps)
    return inst
