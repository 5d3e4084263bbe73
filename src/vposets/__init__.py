"""Bivariate polynomials, recognition and enumeration for rooted trees and V-posets.

Each public name is imported from its submodule on first access (PEP 562)
and then kept here, so a caller compiles only the modules it runs: the tree
polynomial needs `polynomial` and `trees`, recognition and the poset
polynomial add `posets`, the brute-force oracles `bruteforce` and the
series and census `enumeration`.
"""

import importlib

_NAMES = {
    "errors": "NotVPosetError OracleBoundError ParseError",
    "polynomial": "BivariatePoly X Y",
    "trees": """
        CollisionReport RootedTree collision_search contract_root_edge
        delete_root_branch enumerate_rooted_trees parse_tree path star
        tree_poly tree_poly_dc
    """,
    "posets": """
        AddGreatest AddLeast BuildTrace DisjointUnion Empty ForbiddenPattern
        Poset TreeAntichain all_labeled_posets antichain_expansion_poset
        antichain_expansion_tree count_antichains_poset count_antichains_tree
        count_cutsets_poset count_cutsets_tree count_maximal_antichains_no_basic
        count_maximal_antichains_poset count_maximal_antichains_tree
        count_root_subtrees decompose element_status find_forbidden
        impossibility_search is_v_poset maximal_antichains_poset
        maximal_antichains_tree maximal_chains minimal_cutsets parse_poset
        poset_isomorphic poset_poly region_set replay_trace tree_to_poset
    """,
    "enumeration": """
        AsymptoticResult IntSeries all_vposets asymptotic_constant
        asymptotic_estimate census connected_vposets q_series r_value solve_rho
        v_series w_series w_value
    """,
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
_SUBMODULES = {*_NAMES, "_record", "bruteforce", "cli"}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home or name}", __name__)
    value = module if home is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
