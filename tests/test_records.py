"""The package's records: pickling, equality, read-only fields, reprs and
constructor checks, one case per public record class."""

import pickle

import pytest

from vposets import (
    AddGreatest,
    AddLeast,
    AsymptoticResult,
    BivariatePoly,
    CollisionReport,
    DisjointUnion,
    Empty,
    ForbiddenPattern,
    IntSeries,
    Poset,
    RootedTree,
    TreeAntichain,
    collision_search,
    parse_tree,
)

# Each case: a maker of one record, the repr it has always had, and its
# field names with the constructor keywords that rebuild it (None for the
# classes whose constructors take other arguments).
CASES = {
    "ForbiddenPattern": (
        lambda: ForbiddenPattern(u=3, v=2, w=1, x=0, kind="N"),
        "ForbiddenPattern(u=3, v=2, w=1, x=0, kind='N')",
        {"u": 3, "v": 2, "w": 1, "x": 0, "kind": "N"},
    ),
    "TreeAntichain": (
        lambda: TreeAntichain(vertices=frozenset({1, 2}), leaf_count=2, below_count=0),
        "TreeAntichain(vertices=frozenset({1, 2}), leaf_count=2, below_count=0)",
        {"vertices": frozenset({1, 2}), "leaf_count": 2, "below_count": 0},
    ),
    "IntSeries": (
        lambda: IntSeries(order=2, coeffs=(1, 1, 2)),
        "IntSeries(order=2, coeffs=(1, 1, 2))",
        {"order": 2, "coeffs": (1, 1, 2)},
    ),
    "AsymptoticResult": (
        lambda: AsymptoticResult(
            rho=0.25, rho_inv=4.0, constant=None, truncation_order=60, bracket_width=1e-12
        ),
        "AsymptoticResult(rho=0.25, rho_inv=4.0, constant=None, truncation_order=60, "
        "bracket_width=1e-12)",
        {"rho": 0.25, "rho_inv": 4.0, "constant": None, "truncation_order": 60,
         "bracket_width": 1e-12},
    ),
    "CollisionReport": (
        lambda: collision_search(6),
        "CollisionReport(n_max=6, tree_count=37, full_pairs=[], "
        "collisions_at_y1=[(BivariatePoly('x^2 + 2*x + 2'), "
        "[RootedTree('((())(()))'), RootedTree('((((()))()))')])], "
        "collisions_at_x1=[(BivariatePoly('y^5 + y^3 + y^2 + y + 1'), "
        "[RootedTree('((((())))())'), RootedTree('((()())(()))')])])",
        {"n_max": 6, "tree_count": 37, "full_pairs": [],
         "collisions_at_y1": [(BivariatePoly({(2, 0): 1, (1, 0): 2, (0, 0): 2}),
                               [parse_tree("((())(()))"), parse_tree("((((()))()))")])],
         "collisions_at_x1": [(BivariatePoly({(0, 5): 1, (0, 3): 1, (0, 2): 1, (0, 1): 1,
                                              (0, 0): 1}),
                               [parse_tree("((((())))())"), parse_tree("((()())(()))")])]},
    ),
    "Empty": (Empty, "Empty()", None),
    "AddGreatest": (lambda: AddGreatest(Empty()), "AddGreatest(inner=Empty())", None),
    "AddLeast": (
        lambda: AddLeast(AddGreatest(Empty())),
        "AddLeast(inner=AddGreatest(inner=Empty()))",
        None,
    ),
    "DisjointUnion": (
        lambda: DisjointUnion([AddGreatest(Empty()), AddLeast(Empty())]),
        "DisjointUnion(parts=(AddGreatest(inner=Empty()), AddLeast(inner=Empty())))",
        None,
    ),
    "RootedTree": (lambda: parse_tree("(()(()))"), "RootedTree('((())())')", None),
    "Poset": (
        lambda: Poset.from_covers(3, [(0, 2), (1, 2)]),
        "Poset(n=3, covers=[(0, 2), (1, 2)])",
        None,
    ),
}
NAMES = list(CASES)
# Fields that the read-only check writes and deletes, per class.
FIELDS = {
    "Empty": ("steps",), "AddGreatest": ("steps",), "AddLeast": ("steps",),
    "DisjointUnion": ("steps",), "RootedTree": ("encoding", "_poset"),
    "Poset": ("n", "_up", "_down", "_cert", "_status", "_facts"),
}


def fields_of(name):
    return FIELDS.get(name) or tuple(CASES[name][2])


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name):
    record = CASES[name][0]()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record and repr(back) == repr(record)


@pytest.mark.parametrize("name", NAMES)
def test_equality_within_the_class(name):
    make = CASES[name][0]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name == "CollisionReport":  # its fields are lists, as they always were
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1
    # Another record class with the same field values, or the bare values,
    # is never equal.
    for other in NAMES:
        if other != name:
            assert a != CASES[other][0]()
    assert a != tuple(getattr(a, f) for f in fields_of(name)) and a != object()


def test_equal_fields_of_another_class_differ():
    class Renamed(ForbiddenPattern):
        __slots__ = ()

    a, b = ForbiddenPattern(1, 2, 3, 4, "N"), Renamed(1, 2, 3, 4, "N")
    assert a != b and b != a
    assert AddGreatest(Empty()) != AddLeast(Empty())
    assert repr(b).endswith(".<locals>.Renamed(u=1, v=2, w=3, x=4, kind='N')")


@pytest.mark.parametrize("name", NAMES)
def test_fields_read_only(name):
    record = CASES[name][0]()
    before = repr(record)
    for field in fields_of(name):
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 5
    assert repr(record) == before and record == CASES[name][0]()


@pytest.mark.parametrize("name", NAMES)
def test_repr_pinned(name):
    make, text, _ = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", [name for name in NAMES if CASES[name][2] is not None])
def test_constructor_fields(name):
    make, _, values = CASES[name]
    cls = type(make())
    assert cls(**values) == make()
    assert cls(*values.values()) == make()
    assert cls(**values).__slots__ == cls._fields == tuple(values)
    first = next(iter(values))
    with pytest.raises(TypeError, match="missing"):
        cls(**{k: v for k, v in values.items() if k != first})
    with pytest.raises(TypeError, match="unknown"):
        cls(**values, extra=1)
    with pytest.raises(TypeError, match="repeated"):
        cls(values[first], **values)
    with pytest.raises(TypeError):
        cls(*values.values(), 1)


@pytest.mark.parametrize("make", [
    lambda: Empty(1),
    lambda: AddGreatest(),
    lambda: AddLeast(steps=(0,)),
    lambda: DisjointUnion(),
    lambda: RootedTree(encoding="()"),
    lambda: Poset(2),
    lambda: Poset(n=1, up_masks=(0,), extra=1),
])
def test_other_constructors_check_their_arguments(make):
    with pytest.raises(TypeError):
        make()


def test_int_series_keeps_its_length_check():
    with pytest.raises(ValueError, match="does not match the order"):
        IntSeries(order=3, coeffs=(1, 1, 2))
    with pytest.raises(ValueError, match="does not match the order"):
        IntSeries(3, (1, 1, 2))


def test_report_built_by_its_fields():
    report = collision_search(6)
    assert CollisionReport(**CASES["CollisionReport"][2]) == report
    assert isinstance(report.collisions_at_y1[0][0], BivariatePoly)
    assert all(isinstance(t, RootedTree) for t in report.collisions_at_y1[0][1])
