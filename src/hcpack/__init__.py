"""Edge-disjoint 1-plane Hamiltonian cycle packings in complete geometric
graphs: exact predicates, explicit constructions, an exhaustive oracle,
and a CLI."""

from .bisection import (
    Bisection,
    bisecting_line,
    separating_subset_line,
)
from .cycles import (
    CrossReport,
    HamCycle,
    Packing,
    are_edge_disjoint,
    boundary_edge_count,
    check_boundary_minimum,
    check_path_boundary,
    check_wheel_boundary,
    check_diagonal_sides,
    check_companion_edges,
    crossing_report,
    is_one_plane,
    radial_edge_count,
    verify_hamiltonian,
    verify_packing,
)
from .general import (
    GeneralPackResult,
    JoinMove,
    PartitionTree,
    Stone,
    march_cycle,
    join_cycles,
    pack_general,
    pack_general_detailed,
    uncross,
)
from .geometry import (
    Config,
    Orientation,
    Point,
    PointSet,
    convex_cross,
    convex_hull,
    convex_oracle,
    coordinate_oracle,
    edge,
    in_general_position,
    oracle_for,
    orientation,
    segments_properly_cross,
    wheel_cross,
    wheel_oracle,
)
from .instances import InstanceFile, PackingFile, generate
from .oracle import EnumerationReport, enumerate_1phc, max_packing_exact, property_sweep
from .render import render_svg
from .structured import BoundaryPlan, ZigzagSpec, generate_zigzag, pack_convex, pack_wheel

__version__ = "0.1.0"
