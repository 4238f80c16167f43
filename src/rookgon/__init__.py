"""Chip-firing divisor theory, gonality search, and scramble bounds on
rook graphs and general multigraphs."""

from .graphs import (
    FlowResult,
    MultiGraph,
    complete_graph,
    connected_masks,
    connected_subsets,
    cut_weight,
    graph_from_json,
    graph_to_json,
    min_cut_between,
    min_cut_value,
    rook_graph,
)
from .symmetry import (
    GroupTooLarge,
    SymmetryGroup,
    iter_degree_vectors,
    iter_orbit_min_vectors,
    rook_symmetry,
)
from .divisors import (
    BurnReport,
    ReductionResult,
    degree,
    dhar_burn,
    divisor_from_json,
    divisor_to_json,
    equivalent,
    fire_set,
    is_effective_away_from,
    is_winnable,
    rank,
    rank_at_least,
    v_reduce,
    verify_rank_at_least,
)
from .gonality import (
    GonalityResult,
    default_degree_cap,
    k_gonality,
    poorest_slice_chips,
    rook_certificate_divisor,
)
from .scrambles import (
    CutBoundReport,
    EggCutResult,
    OrderReport,
    Scramble,
    cube_diagonal_avoidance,
    egg_cut_floor,
    exhaustive_cut_bound_check,
    hitting_number,
    induced_components,
    min_egg_cut,
    min_side_cut_floor,
    scramble_from_json,
    scramble_order,
    scramble_to_json,
    square_augmented_scramble,
    staircase_avoidance,
    star_scramble,
    uniform_scramble,
)
from .suite import run_suite, suite_claims

__version__ = "0.14.0"
