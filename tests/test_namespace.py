"""The package namespace: every public name, where it lives, and how the
package hands it out.  Which modules a first access loads is checked in a
fresh interpreter by test_cold_start.py."""

import importlib

import pytest

import vposets

# The public names, by the submodule that defines each.
HOMES = {
    "errors": ["NotVPosetError", "OracleBoundError", "ParseError"],
    "polynomial": ["BivariatePoly", "X", "Y"],
    "trees": [
        "CollisionReport", "RootedTree", "collision_search", "contract_root_edge",
        "delete_root_branch", "enumerate_rooted_trees", "parse_tree", "path", "star",
        "tree_poly", "tree_poly_dc",
    ],
    "posets": [
        "AddGreatest", "AddLeast", "BuildTrace", "DisjointUnion", "Empty",
        "ForbiddenPattern", "Poset", "TreeAntichain", "all_labeled_posets",
        "antichain_expansion_poset", "antichain_expansion_tree", "count_antichains_poset",
        "count_antichains_tree", "count_cutsets_poset", "count_cutsets_tree",
        "count_maximal_antichains_no_basic", "count_maximal_antichains_poset",
        "count_maximal_antichains_tree", "count_root_subtrees", "decompose",
        "element_status", "find_forbidden", "impossibility_search", "is_v_poset",
        "maximal_antichains_poset", "maximal_antichains_tree", "maximal_chains",
        "minimal_cutsets", "parse_poset", "poset_isomorphic", "poset_poly", "region_set",
        "replay_trace", "tree_to_poset",
    ],
    "enumeration": [
        "AsymptoticResult", "IntSeries", "all_vposets", "asymptotic_constant",
        "asymptotic_estimate", "census", "connected_vposets", "q_series", "r_value",
        "solve_rho", "v_series", "w_series", "w_value",
    ],
}
NAMES = sorted(name for names in HOMES.values() for name in names)
SUBMODULES = ["_record", "bruteforce", "cli", "enumeration", "errors", "polynomial",
              "posets", "trees"]


def test_all_is_the_public_names():
    assert len(NAMES) == 64
    assert sorted(vposets.__all__) == NAMES
    assert len(set(vposets.__all__)) == len(vposets.__all__)


@pytest.mark.parametrize("home, name", [(h, n) for h, names in HOMES.items() for n in names])
def test_name_is_its_home_object(home, name):
    assert getattr(vposets, name) is getattr(importlib.import_module(f"vposets.{home}"), name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_attributes(name):
    assert getattr(vposets, name) is importlib.import_module(f"vposets.{name}")


def test_unknown_name():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        vposets.not_a_name  # noqa: B018
    with pytest.raises(ImportError, match="not_a_name"):
        from vposets import not_a_name  # noqa: F401


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from vposets import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES
    assert all(namespace[name] is getattr(vposets, name) for name in NAMES)


def test_dir_lists_every_name():
    listed = dir(vposets)
    assert set(NAMES) <= set(listed)
    assert "__version__" in listed and listed == sorted(listed)
