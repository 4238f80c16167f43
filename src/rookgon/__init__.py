"""Chip-firing divisor theory, gonality search, and scramble bounds on
rook graphs and general multigraphs.

The public names below load their home module on first use (PEP 562),
so a command imports only the modules it runs.
"""

import importlib

__version__ = "0.18.0"

# the verify suites, here so that the command line can offer them
# without importing the suite module
SUITE_NAMES = ("smoke", "standard", "full")

_HOMES = {
    "graphs": (
        "FlowResult", "MultiGraph", "complete_graph", "connected_masks",
        "connected_subsets", "cut_weight", "graph_from_json", "graph_to_json",
        "min_cut_between", "min_cut_value", "rook_graph",
    ),
    "symmetry": (
        "GroupTooLarge", "SymmetryGroup", "iter_degree_vectors",
        "iter_orbit_min_vectors", "rook_symmetry",
    ),
    "divisors": (
        "BurnReport", "ReductionResult", "degree", "dhar_burn",
        "divisor_from_json", "divisor_to_json", "equivalent", "fire_set",
        "is_effective_away_from", "is_winnable", "rank", "rank_at_least",
        "v_reduce", "verify_rank_at_least",
    ),
    "gonality": (
        "GonalityResult", "default_degree_cap", "k_gonality",
        "poorest_slice_chips", "rook_certificate_divisor",
    ),
    "scrambles": (
        "EggCutResult", "OrderReport", "Scramble", "cube_diagonal_avoidance",
        "egg_cut_floor", "hitting_number", "induced_components", "min_egg_cut",
        "min_side_cut_floor", "scramble_from_json", "scramble_order",
        "scramble_to_json", "square_augmented_scramble", "staircase_avoidance",
        "star_scramble", "uniform_scramble",
    ),
    "suite": ("run_suite", "suite_claims"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
