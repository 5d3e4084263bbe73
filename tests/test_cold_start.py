"""Nothing in the package loads numpy, neither the package nor its CLI
commands load dataclasses, inspect or typing, and each entry point loads
only the package modules it runs.

Each check runs in a fresh interpreter, since this test session has long
since imported all of them.  Module names are checked, not times."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vposets
from vposets import parse_tree, tree_to_poset

from helpers import FIGURE_POSET_STR, FIGURE_POSET_TEXT, FIGURE_TREE_POLY, FIGURE_TREE_TEXT

# A 16-vertex tree, the largest of the CI's `counts` inputs.
TREE_16 = "((()())(()(()))((())())(()()()))"


def run_fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(Path(vposets.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def loaded_by(code: str) -> set[str]:
    """The modules that ``code`` adds to a fresh interpreter.  Those loaded
    before it runs, by the interpreter's own site among them, do not count."""
    return set(run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(*sorted(set(sys.modules) - before))\n"
    ).split())


def package_modules(added: set[str]) -> set[str]:
    return {name for name in added if name.partition(".")[0] == "vposets"}


def test_no_numpy_without_a_sweep():
    run_fresh(
        "import sys\n"
        "import vposets, vposets.cli\n"
        "from vposets import *\n"
        "from vposets.posets import BASIC\n"
        f"t = parse_tree({FIGURE_TREE_TEXT!r})\n"
        "poly = tree_poly(t)\n"
        f"assert str(poly) == {str(FIGURE_TREE_POLY)!r}\n"
        "assert tree_poly_dc(t) == poly\n"
        "assert poly.evaluate(2, 2) == 2**6\n"
        f"p = parse_poset({FIGURE_POSET_TEXT!r})\n"
        "assert isinstance(is_v_poset(p), BuildTrace)\n"
        f"assert str(poset_poly(p)) == {FIGURE_POSET_STR!r}\n"
        "assert element_status(p).count(BASIC) == 4\n"
        "assert census(6) == [1, 2, 5, 14, 40, 121]\n"
        "report = collision_search(6)\n"
        "assert report.tree_count == 37 and report.full_pairs == []\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )


def test_tree_path_loads_the_tree_modules():
    added = loaded_by(
        "import vposets\n"
        f"assert str(vposets.tree_poly(vposets.parse_tree({FIGURE_TREE_TEXT!r}))) == "
        f"{str(FIGURE_TREE_POLY)!r}\n"
    )
    assert package_modules(added) == {
        "vposets", "vposets.errors", "vposets.polynomial", "vposets.trees", "vposets._record",
    }
    # The collision search's index table loads `array` when it runs.
    assert "array" not in added


def test_submodules_resolve_on_first_access():
    added = loaded_by(
        "import vposets\n"
        "assert vposets.posets.BASIC == 'basic'\n"
        "assert vposets.bruteforce.SUBSET_BOUND == 20\n"
    )
    assert {"vposets.posets", "vposets.bruteforce"} <= added
    assert "vposets.enumeration" not in added


def test_no_dataclasses_inspect_or_typing(tmp_path):
    # Compared with the modules loaded before the import, so that whatever
    # the interpreter's own site loaded does not count.  The commands that
    # sweep, on small inputs and on 16 elements, load no numpy either.
    tree, poset = tmp_path / "small.tree", tmp_path / "small.poset"
    tree.write_text(FIGURE_TREE_TEXT + "\n")
    poset.write_text("4\n1 3\n2 3\n3 4\n")
    large = tree_to_poset(parse_tree(TREE_16))
    large_tree, large_poset = tmp_path / "large.tree", tmp_path / "large.poset"
    large_tree.write_text(TREE_16 + "\n")
    large_poset.write_text(
        f"{large.n}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in large.covers())
    )
    commands = [
        ["tree-poly", str(tree)], ["check", str(poset)], ["poset-poly", str(poset)],
        ["counts", str(tree)], ["counts", str(poset)],
        ["counts", str(large_tree)], ["poset-poly", "--expansion", str(large_poset)],
    ]
    run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import vposets, vposets.cli\n"
        f"for args in {commands!r}:\n"
        "    assert vposets.cli.main(args) == 0, args\n"
        "added = set(sys.modules) - before\n"
        "assert 'vposets.cli' in added\n"
        "loaded = {name.partition('.')[0] for name in added}\n"
        "loaded &= {'numpy', 'dataclasses', 'inspect', 'typing'}\n"
        "assert not loaded, sorted(loaded)\n"
    )


# Each command with the package modules it must not load.
COMMAND_MODULES = [
    ("tree-poly", "small.tree", {"vposets.posets", "vposets.enumeration", "vposets.bruteforce"}),
    ("check", "small.poset", {"vposets.enumeration"}),
    ("poset-poly", "small.poset", {"vposets.enumeration"}),
]


@pytest.mark.parametrize("command, source, unused", COMMAND_MODULES)
def test_command_loads_only_what_it_runs(tmp_path, command, source, unused):
    (tmp_path / "small.tree").write_text(FIGURE_TREE_TEXT + "\n")
    (tmp_path / "small.poset").write_text("4\n1 3\n2 3\n3 4\n")
    args = [command, str(tmp_path / source)]
    added = loaded_by(f"import vposets.cli\nassert vposets.cli.main({args!r}) == 0\n")
    assert "vposets.cli" in added
    assert not package_modules(added) & unused


def assert_leaves_numpy_unloaded(call, answer):
    run_fresh(
        "import sys\n"
        "from vposets import *\n"
        f"assert {call} == {answer}\n"
        "assert 'numpy' not in sys.modules\n"
    )


# The antichain oracles branch on plain ints at every size.
@pytest.mark.parametrize(
    "call, answer",
    [
        ("count_antichains_tree(star(5))", "2**4 + 1"),
        ("antichain_expansion_poset(tree_to_poset(star(5)))", "tree_poly(star(5))"),
    ],
)
def test_antichain_sweep_leaves_numpy_unloaded(call, answer):
    assert_leaves_numpy_unloaded(call, answer)


@pytest.mark.parametrize(
    "call, answer",
    [
        ("count_antichains_tree(star(14))", "2**13 + 1"),
        ("antichain_expansion_poset(tree_to_poset(star(14)))", "tree_poly(star(14))"),
    ],
)
def test_large_antichain_sweep_leaves_numpy_unloaded(call, answer):
    assert_leaves_numpy_unloaded(call, answer)


# The cutset, root-subtree and labeled-poset oracles keep their subset
# families as integer bitmaps.
@pytest.mark.parametrize(
    "call, answer",
    [
        ("count_root_subtrees(star(5))", "2**4 + 1"),
        ("count_cutsets_tree(star(5))", "2**4 + 1"),
        ("minimal_cutsets(tree_to_poset(star(5)))", "[{0}, {1, 2, 3, 4}]"),
        ("len(all_labeled_posets(3))", "19"),
    ],
)
def test_bitmap_sweep_leaves_numpy_unloaded(call, answer):
    assert_leaves_numpy_unloaded(call, answer)
