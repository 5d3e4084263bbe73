"""Unit tests for posets: parsing, recognition, status, polynomials, oracles."""

import copy
import itertools
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from vposets import (
    AddGreatest,
    AddLeast,
    BivariatePoly,
    DisjointUnion,
    Empty,
    ForbiddenPattern,
    NotVPosetError,
    OracleBoundError,
    ParseError,
    Poset,
    all_labeled_posets,
    all_vposets,
    antichain_expansion_poset,
    count_antichains_poset,
    count_cutsets_poset,
    count_maximal_antichains_no_basic,
    count_maximal_antichains_poset,
    decompose,
    element_status,
    enumerate_rooted_trees,
    find_forbidden,
    impossibility_search,
    is_v_poset,
    maximal_antichains_poset,
    maximal_chains,
    minimal_cutsets,
    parse_poset,
    parse_tree,
    path,
    poset_isomorphic,
    poset_poly,
    region_set,
    replay_trace,
    star,
    tree_poly,
    tree_to_poset,
)
from vposets import posets
from vposets.polynomial import EMPTY, GREATEST, LEAST
from vposets.posets import (
    BASIC,
    LOWER,
    OTHER,
    UPPER,
    BuildTrace,
    _axiom_statuses,
    _bits,
    _element_signatures,
    _forbidden_in,
    _greatest_below,
    _peel,
    _split,
    _topological_order,
    _trace,
)
from vposets.trees import _tree_steps

from helpers import (
    BOWTIE_POSET,
    FIGURE_POSET_MAX_ANTICHAINS,
    FIGURE_POSET_POLY,
    FIGURE_POSET_TEXT,
    N_POSET,
    assert_status_preserved,
    bit_row_components,
    bit_row_peel,
    chain_text,
    parents_of,
)


def mono(c, i, j):
    return BivariatePoly.monomial(c, i, j)


@pytest.fixture(scope="module")
def fig():
    return parse_poset(FIGURE_POSET_TEXT)


class TestParse:
    def test_two_chain(self):
        p = parse_poset("2\n1 2")
        assert p.n == 2 and p.less(0, 1) and not p.less(1, 0)

    def test_figure_poset(self, fig):
        assert fig.n == 10
        assert fig.greatest_element() == 0
        assert fig.less(6, 0)  # closure: v7 < v1 through v8

    def test_cycle(self):
        with pytest.raises(ParseError, match="cycle"):
            parse_poset("2\n1 2\n2 1")

    @pytest.mark.parametrize("covers, cycle", [
        ([(1, 2), (2, 1), (2, 0)], {1, 2}),                     # 0 hangs below
        ([(0, 3), (3, 1), (1, 2), (2, 3), (2, 4)], {1, 2, 3}),  # 0 leads in, 4 hangs off
    ])
    def test_cycle_names_an_element_on_it(self, covers, cycle):
        with pytest.raises(ValueError, match="cycle") as exc:
            Poset.from_covers(5, covers)
        assert int(re.search(r"element (\d+)", str(exc.value)).group(1)) in cycle

    @pytest.mark.parametrize("n, covers, message", [
        (-1, [], "nonnegative number of elements"),
        (2, [(0, 2)], "out of range"),
        (2, [(1, 1)], "self-relation on element 1"),
    ])
    def test_from_covers_refused(self, n, covers, message):
        with pytest.raises(ValueError, match=message):
            Poset.from_covers(n, covers)

    def test_long_chain(self):
        n = 2000
        p = parse_poset(chain_text(n))
        assert p.relation_count == n * (n - 1) // 2
        assert p.up_mask(0) == (1 << n) - 2 and p.down_mask(n - 1) == (1 << (n - 1)) - 1

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_from_covers_is_the_closure(self, data):
        n = data.draw(st.integers(0, 12))
        pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
        edges = [(u, v) for u, v in data.draw(st.lists(pairs, max_size=30)) if u < v]
        label = data.draw(st.permutations(range(n)))
        covers = [(label[u], label[v]) for u, v in edges]
        closure = [0] * n
        for u, v in covers:
            closure[u] |= 1 << v
        for k in range(n):
            for u in range(n):
                if (closure[u] >> k) & 1:
                    closure[u] |= closure[k]
        p, checked = Poset.from_covers(n, covers), Poset(n, closure)
        assert p == checked
        assert all(
            p.down_mask(u) == checked.down_mask(u) and p.comp_mask(u) == checked.comp_mask(u)
            for u in range(n)
        )

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="range"):
            parse_poset("2\n1 3")

    def test_self_relation(self):
        with pytest.raises(ParseError, match="self-relation"):
            parse_poset("2\n1 1")

    def test_empty_poset(self):
        assert parse_poset("0").n == 0

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_poset("two\n1 2")

    @pytest.mark.parametrize("text, message", [
        ("", "empty input"),
        (" \n\t\n", "empty input"),
        ("-1", "nonnegative"),
        ("3\n1 2 3", "expected 'u v'"),
        ("3\n1 x", "two integers"),
    ])
    def test_malformed(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_poset(text)

    @pytest.mark.parametrize(
        "name",
        [
            "n", "_above", "_below", "_up", "_down",
            "_cert", "_status", "_basics", "_facts",
        ],
    )
    def test_read_only(self, name):
        # Equality and hashing read the rows, and the oracles the answers
        # kept beside them, so neither may change.
        p = parse_poset("2\n1 2")
        assert antichain_expansion_poset(p) == mono(1, 1, 0) + mono(1, 0, 1)
        with pytest.raises(AttributeError):
            setattr(p, name, 5)
        with pytest.raises(AttributeError):
            delattr(p, name)
        assert p == parse_poset("2\n1 2") and hash(p) == hash(parse_poset("2\n1 2"))
        assert p.n == 2 and p.up_mask(0) == 2 and p.down_mask(1) == 1 and p.comp_mask(0) == 2
        assert pickle.loads(pickle.dumps(p)) == p


class TestForbidden:
    def test_n_poset(self):
        pattern = find_forbidden(N_POSET)
        assert pattern is not None and pattern.kind == "N"

    def test_bowtie(self):
        pattern = find_forbidden(BOWTIE_POSET)
        assert pattern is not None and pattern.kind == "bowtie"

    def test_figure_poset_clean(self, fig):
        assert find_forbidden(fig) is None

    def test_parsed_caterpillar(self):
        # The limit is loose for a loaded machine: the peel answers in a
        # fraction of a second, while the witness scan over every spine
        # vertex's down set takes about 30 s.
        h = 4000
        p = tree_to_poset(parse_tree("(()" * h + ")" * h))
        start = time.perf_counter()
        assert find_forbidden(p) is None
        assert time.perf_counter() - start < 5

    def test_witness_satisfies_definition(self):
        for p in (N_POSET, BOWTIE_POSET):
            pat = find_forbidden(p)
            assert p.less(pat.w, pat.u) and p.less(pat.x, pat.u) and p.less(pat.x, pat.v)
            assert not p.comparable(pat.u, pat.v)
            assert not p.comparable(pat.w, pat.x)
            assert (pat.kind == "bowtie") == p.less(pat.w, pat.v)


class TestDecompose:
    def test_empty(self):
        assert decompose(Poset.empty()) == Empty()

    def test_two_antichain(self):
        assert decompose(parse_poset("2")) == DisjointUnion(
            (AddGreatest(Empty()), AddGreatest(Empty()))
        )

    def test_n_poset_fails(self):
        assert decompose(N_POSET) is None

    def test_linear_orders_use_add_greatest_only(self):
        trace = decompose(parse_poset("3\n1 2\n2 3"))
        assert trace == AddGreatest(AddGreatest(AddGreatest(Empty())))

    def test_replay_isomorphic(self, fig):
        for n in range(7):
            for p in all_vposets(n):
                assert poset_isomorphic(replay_trace(decompose(p)), p)

    def test_sexpr(self):
        assert decompose(parse_poset("2")).to_sexpr() == "(union (g empty) (g empty))"
        assert Empty().to_sexpr() == "empty"

    def test_steps_parts_and_inner(self):
        trace = decompose(parse_poset("3\n1 2"))
        point = AddGreatest(Empty())
        assert trace.steps == (EMPTY, GREATEST, GREATEST, EMPTY, GREATEST, 2)
        assert isinstance(trace, DisjointUnion)
        assert trace.parts == (AddGreatest(point), point)
        assert isinstance(trace.parts[0], AddGreatest) and trace.parts[0].inner == point
        assert AddLeast(trace).inner == trace and AddLeast(trace).parts == (trace,)
        assert DisjointUnion(()).steps == (0,) and DisjointUnion(()).parts == ()
        assert Empty().parts == () and trace.size == 3

    def test_parts_must_be_traces(self):
        with pytest.raises(TypeError):
            AddGreatest(5)
        with pytest.raises(TypeError):
            AddLeast(None)
        with pytest.raises(TypeError):
            DisjointUnion((Empty(), 5))

    @pytest.mark.parametrize("make", [
        Empty,
        lambda: AddGreatest(Empty()),
        lambda: AddLeast(Empty()),
        lambda: DisjointUnion((Empty(), Empty())),
    ], ids=["Empty", "AddGreatest", "AddLeast", "DisjointUnion"])
    def test_read_only(self, make):
        # Equality and hashing read the steps, so they must not change.
        trace = make()
        with pytest.raises(AttributeError):
            trace.steps = (EMPTY,)
        with pytest.raises(AttributeError):
            del trace.steps
        assert trace == make() and hash(trace) == hash(make())


def _deep_chain(n):
    trace = Empty()
    for k in range(n):
        trace = AddGreatest(trace) if k % 3 else AddLeast(trace)
    return trace


class TestDeepTraces:
    """Trace walks past the default recursion limit."""

    def test_size_and_sexpr(self):
        trace = _deep_chain(3000)
        assert trace.size == 3000
        text = trace.to_sexpr()
        assert text.startswith("(g (g (l (g (g (l ")
        assert text.count("(") == 3000 and text.endswith(" empty" + ")" * 3000)

    def test_eq_hash_repr(self):
        trace = _deep_chain(3000)
        assert trace == _deep_chain(3000) and trace != _deep_chain(2999)
        assert hash(trace) == hash(_deep_chain(3000))
        text = repr(trace)
        assert text.startswith("AddGreatest(inner=AddGreatest(inner=AddLeast(inner=")
        assert text.endswith("(inner=Empty()" + ")" * 3000)
        assert repr(DisjointUnion((Empty(),))) == "DisjointUnion(parts=(Empty(),))"

    def test_replay_chain(self):
        p = replay_trace(_deep_chain(1200))
        # Element k is added above (or below) elements 0..k-1: a linear order.
        assert p.n == 1200 and p.relation_count == 1200 * 1199 // 2
        assert p.less(0, 1) and p.less(1, 2) and p.less(3, 0)

    def test_replay_labels_in_post_order(self):
        pair = DisjointUnion((AddGreatest(Empty()), AddLeast(Empty())))
        p = replay_trace(AddLeast(DisjointUnion((AddGreatest(pair), Empty(), pair))))
        assert p.n == 6
        assert p.up_mask(2) == 0 and p.down_mask(2) == 0b100011
        assert p.up_mask(5) == 0b11111 and p.down_mask(5) == 0
        assert not p.comparable(3, 4) and not p.comparable(2, 3)

    def test_building_by_steps(self):
        # Each derived poset extends or shifts its parent's rows, so these
        # take well under a second; the limit is loose for a loaded machine.
        start = time.perf_counter()
        up = down = Poset.empty()
        for _ in range(1000):
            up, down = up.add_greatest(), down.add_least()
        assert up.relation_count == down.relation_count == 1000 * 999 // 2
        assert Poset.disjoint_union([up, down]).relation_count == 1000 * 999
        trace = Empty()
        for k in range(3000):
            trace = (AddLeast if k % 3 == 2 else AddGreatest)(trace)
        assert replay_trace(trace).relation_count == 3000 * 2999 // 2
        assert time.perf_counter() - start < 60


class TestLongChain:
    """Recognition and maximal chains past the default recursion limit."""

    N = 1200

    @pytest.fixture(scope="class")
    def chain(self):
        return parse_poset(chain_text(self.N))

    def test_decompose(self, chain):
        trace = decompose(chain)
        expected = Empty()
        for _ in range(self.N):
            expected = AddGreatest(expected)
        assert trace == expected
        assert trace.to_sexpr() == "(g " * self.N + "empty" + ")" * self.N

    def test_eq_hash_repr(self, chain):
        trace = decompose(chain)
        assert trace == decompose(chain) and hash(trace) == hash(decompose(chain))
        assert repr(trace) == "AddGreatest(inner=" * self.N + "Empty()" + ")" * self.N

    def test_is_v_poset(self, chain):
        assert is_v_poset(chain) == decompose(chain)

    def test_poset_poly(self, chain):
        terms = {(1, 0): 1, **{(0, k): 1 for k in range(1, self.N)}}
        assert poset_poly(chain) == BivariatePoly(terms)

    def test_maximal_chains(self, chain):
        assert maximal_chains(chain) == [tuple(range(self.N))]

    def test_witness_in_stuck_component(self, chain):
        p = Poset.disjoint_union([chain, N_POSET])
        pat = is_v_poset(p)
        assert isinstance(pat, ForbiddenPattern)
        assert min(pat.u, pat.v, pat.w, pat.x) >= self.N
        assert p.less(pat.w, pat.u) and p.less(pat.x, pat.u) and p.less(pat.x, pat.v)
        assert not p.comparable(pat.u, pat.v) and not p.comparable(pat.w, pat.x)
        assert (pat.kind == "bowtie") == p.less(pat.w, pat.v)
        assert decompose(p) is None
        with pytest.raises(NotVPosetError) as exc:
            poset_poly(p)
        assert exc.value.pattern == pat


class TestExtremeElements:
    @pytest.mark.parametrize("n", range(6))
    def test_by_definition(self, n):
        # The extremes read the rows and keep nothing, before recognition
        # and after it.
        for p in all_labeled_posets(n):
            top = [u for u in range(n) if p.down_mask(u).bit_count() == n - 1]
            bottom = [u for u in range(n) if p.up_mask(u).bit_count() == n - 1]
            expected = (top[0] if top else None, bottom[0] if bottom else None)
            assert (p.greatest_element(), p.least_element()) == expected
            is_v_poset(p)
            assert (p.greatest_element(), p.least_element()) == expected


class TestTrustedConstructors:
    """Posets built from rows known to be valid match validated ones."""

    def test_derived_rows(self, fig):
        for n in range(5):
            for p in all_labeled_posets(n):
                trace = decompose(p)
                for q in (p.dual(), p.add_greatest(), p.add_least(),
                          Poset.disjoint_union([p, fig, p]),
                          *([replay_trace(trace)] if trace is not None else []),
                          pickle.loads(pickle.dumps(p))):
                    checked = Poset(q.n, [q.up_mask(u) for u in range(q.n)])
                    assert all(
                        q.down_mask(u) == checked.down_mask(u)
                        and q.comp_mask(u) == checked.comp_mask(u)
                        for u in range(q.n)
                    )


class _InvalidPickle:
    """Pickles as a call of `Poset` on a 2-cycle."""

    def __reduce__(self):
        return Poset, (2, (2, 1))


class _RowsPickle:
    """Pickles as a call of `Poset` on up rows, as older pickles do."""

    def __init__(self, n, rows):
        self.args = n, rows

    def __reduce__(self):
        return Poset, self.args


class TestCheckedConstructor:
    """`Poset(n, rows)` takes only the rows of a closed strict order."""

    @pytest.mark.parametrize("n, rows, message", [
        (2, [0], "expected 2 relation rows, got 1"),
        (2, [4, 0], "out of range"),
        (2, [-1, 0], "out of range"),
        (2, [1, 0], "self-relation on element 0"),
        (2, [2, 1], "cycle"),
        (3, [2, 4, 0], "row 0 is not transitively closed"),
    ])
    def test_refused(self, n, rows, message):
        with pytest.raises(ValueError, match=message):
            Poset(n, rows)

    def test_pickle_carries_covers(self):
        # A rows pickle of this chain holds every relation: about 500 KB.
        n = 2000
        chain = parse_poset(chain_text(n))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(chain, protocol)
            assert len(data) < 50_000
            assert pickle.loads(data) == chain
        assert copy.copy(chain) == chain == copy.deepcopy(chain)

    def test_rows_pickle_still_loads(self, fig):
        rows = tuple(fig.up_mask(u) for u in range(fig.n))
        assert pickle.loads(pickle.dumps(_RowsPickle(fig.n, rows))) == fig

    def test_invalid_pickle_refused(self):
        with pytest.raises(ValueError, match="cycle"):
            pickle.loads(pickle.dumps(_InvalidPickle()))


class TestIsVPoset:
    def test_chain(self):
        assert isinstance(is_v_poset(parse_poset("3\n1 2\n2 3")), BuildTrace)

    def test_bowtie(self):
        cert = is_v_poset(BOWTIE_POSET)
        assert isinstance(cert, ForbiddenPattern) and cert.kind == "bowtie"

    def test_figure_poset(self, fig):
        assert isinstance(is_v_poset(fig), BuildTrace)

    @pytest.mark.parametrize("n", range(0, 5))
    def test_recognisers_agree_small(self, n):
        for p in all_labeled_posets(n):
            assert (_forbidden_in(p._above, p._below) is None) == (decompose(p) is not None)

    def test_wide_antichain(self):
        # The limit is loose for a loaded machine: this takes under a
        # second, where flooding full-width masks took 37.7 s.
        n = 400000
        p = parse_poset(str(n))
        start = time.perf_counter()
        trace = is_v_poset(p)
        assert time.perf_counter() - start < 3
        assert trace.steps == (EMPTY, GREATEST) * n + (n,)


ORACLES = (
    count_antichains_poset,
    count_maximal_antichains_poset,
    count_maximal_antichains_no_basic,
    count_cutsets_poset,
    maximal_antichains_poset,
    minimal_cutsets,
    antichain_expansion_poset,
)


def ask_everything(p):
    """Every oracle and recognition call on ``p``; some refuse a non-V-poset."""
    for call in (
        is_v_poset, decompose, element_status, Poset.greatest_element, Poset.least_element,
        poset_poly, *ORACLES,
    ):
        try:
            call(p)
        except NotVPosetError:
            pass
    for a in range(p.n):
        try:
            region_set(p, a)
        except ValueError:
            pass


class TestKeptAnswers:
    """What a poset keeps from earlier calls stays invisible and read-only."""

    @pytest.mark.parametrize("text", [
        "0", "3", chain_text(5), FIGURE_POSET_TEXT,
        "4\n3 1\n4 1\n4 2",         # N
        "4\n3 1\n4 1\n3 2\n4 2",   # bowtie
    ])
    def test_invisible(self, text):
        used, new = parse_poset(text), parse_poset(text)
        ask_everything(used)
        assert used == new and hash(used) == hash(new) and repr(used) == repr(new)
        assert pickle.dumps(used) == pickle.dumps(new)
        back = pickle.loads(pickle.dumps(used))
        assert back == new and hash(back) == hash(new)
        assert is_v_poset(back) == is_v_poset(new)
        assert count_maximal_antichains_no_basic(back) == count_maximal_antichains_no_basic(new)

    @pytest.mark.parametrize("text, expected", [
        (FIGURE_POSET_TEXT, []),
        ("4\n3 1\n4 1\n4 2", [0b1111, "down", "up"]),  # N: peeling is stuck on all of it
    ], ids=["figure", "N"])
    def test_row_sizes_counted_once(self, text, expected, monkeypatch):
        # Recognition, the statuses of a V-poset, the extreme elements and
        # the polynomial ask no greatest element below.  The witness scan
        # asks once, on the stuck component's own rows, and the axioms of a
        # poset that is no V-poset once per direction; both answers are kept.
        p, calls = parse_poset(text), []
        greatest_below = posets._greatest_below

        def counted(rows, near, order):
            calls.append(
                "down" if rows is p._down else "up" if rows is p._up else sum(1 << x for x in order)
            )
            return greatest_below(rows, near, order)

        monkeypatch.setattr(posets, "_greatest_below", counted)
        for _ in range(2):
            for call in (
                is_v_poset, element_status, Poset.greatest_element, Poset.least_element,
                poset_poly,
            ):
                try:
                    call(p)
                except NotVPosetError:
                    pass
        assert calls == expected

    def test_check_poly_and_status_close_no_rows(self):
        # A parsed V-poset answers from its relation graph; the closed rows
        # are built on their first read, and kept.
        p = parse_poset(FIGURE_POSET_TEXT)
        is_v_poset(p), poset_poly(p), element_status(p)
        with pytest.raises(AttributeError):
            Poset._up.__get__(p)
        assert p.up_mask(1) == 1 and Poset._up.__get__(p) is p._up

    def test_status_list_is_fresh(self):
        p = parse_poset(FIGURE_POSET_TEXT)
        status = element_status(p)
        expected = list(status)
        status[:] = [OTHER] * len(status)
        assert element_status(p) == expected
        assert element_status(p) is not element_status(p)
        assert count_maximal_antichains_no_basic(p) == FIGURE_POSET_POLY.evaluate(0, 1)
        assert antichain_expansion_poset(p) == FIGURE_POSET_POLY

    @pytest.mark.parametrize("text", ["21", chain_text(21)])
    def test_bound_refusal_before_and_after_recognition(self, text):
        p = parse_poset(text)
        for _ in range(2):
            for oracle in ORACLES:
                with pytest.raises(OracleBoundError):
                    oracle(p)
            assert isinstance(is_v_poset(p), BuildTrace)
            element_status(p)


class TestElementStatus:
    def test_figure_poset(self, fig):
        status = element_status(fig)
        assert {i for i, s in enumerate(status) if s == BASIC} == {4, 5, 7, 9}
        assert {i for i, s in enumerate(status) if s == UPPER} == {0, 1, 2, 3, 8}
        assert {i for i, s in enumerate(status) if s == LOWER} == {6}

    def test_single_element(self):
        assert element_status(parse_poset("1")) == [BASIC]

    def test_three_chain_least_is_basic(self):
        assert element_status(parse_poset("3\n1 2\n2 3")) == [BASIC, UPPER, UPPER]

    def test_greatest_and_least_not_basic_unless_linear(self):
        for n in range(1, 7):
            for p in all_vposets(n):
                status = element_status(p)
                linear = p.relation_count == n * (n - 1) // 2
                g, l = p.greatest_element(), p.least_element()
                if linear:
                    assert status[p.least_element()] == BASIC
                    if n > 1:
                        assert status[g] != BASIC
                else:
                    if g is not None:
                        assert status[g] != BASIC
                    if l is not None:
                        assert status[l] != BASIC

    @pytest.mark.parametrize("n", range(1, 9))
    def test_basic_elements_form_a_maximal_antichain(self, n):
        for p in all_vposets(n):
            status = element_status(p)
            basics = {v for v, s in enumerate(status) if s == BASIC}
            assert basics, "every nonempty V-poset has a basic element"
            assert frozenset(basics) in set(maximal_antichains_poset(p))
            for v in range(p.n):
                if v not in basics:
                    assert any(p.comparable(v, b) for b in basics)
                    assert status[v] in (UPPER, LOWER)


def _mask_is_chain(p, mask):
    for v in _bits(mask):
        if mask & ~(1 << v) & ~p.comp_mask(v):
            return False
    return True


def _is_basic(p, x):
    up, down = p.up_mask(x), p.down_mask(x)
    # B.1 and B.2: nothing incomparable strictly below, or strictly above.
    if not _mask_is_chain(p, down) or not _mask_is_chain(p, up):
        return False
    # B.3: no u < x whose comparabilities agree with x everywhere else.
    for u in _bits(down):
        ignore = ~((1 << u) | (1 << x))
        if (p.down_mask(u) & ignore) == (down & ignore) and (
            p.up_mask(u) & ignore
        ) == (up & ignore):
            return False
    return True


def reference_status(p):
    """The basic-element axioms checked one by one, bit by bit."""
    basic = [_is_basic(p, x) for x in range(p.n)]
    status = []
    for x in range(p.n):
        if basic[x]:
            status.append(BASIC)
        elif any(basic[b] for b in _bits(p.down_mask(x))):
            status.append(UPPER)
        elif any(basic[b] for b in _bits(p.up_mask(x))):
            status.append(LOWER)
        else:
            status.append(OTHER)
    return status


@st.composite
def strict_orders(draw, max_n=14):
    """Strict orders closed from random pairs u < v, then relabelled, so
    that most of them are not V-posets."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    label = draw(st.permutations(range(n)))
    return Poset.from_covers(n, [(label[u], label[v]) for u, v in chosen])


class TestStatusByCounting:
    """`element_status` decides the axioms by the greatest element below and
    the least above each element; the reference checks them one by one."""

    @pytest.mark.parametrize("n", range(6))
    def test_all_labeled_posets(self, n):
        for p in all_labeled_posets(n):
            assert element_status(p) == reference_status(p)

    @settings(max_examples=300, deadline=None)
    @given(strict_orders())
    def test_random_orders(self, p):
        assert element_status(p) == reference_status(p)

    @settings(max_examples=100, deadline=None)
    @given(strict_orders())
    def test_top_of_a_row_is_unique_and_sees_the_rest(self, p):
        # Why a member one smaller needs no further check: its row is the rest.
        for x in range(p.n):
            down = p.down_mask(x)
            k = down.bit_count()
            tops = [t for t in _bits(down) if p.down_mask(t).bit_count() == k - 1]
            assert len(tops) <= 1
            assert all(p.down_mask(t) == down ^ (1 << t) for t in tops)

    @pytest.mark.parametrize(
        "p, expected",
        [
            # Two members of equal size on top of a row: neither is its top.
            (N_POSET, [UPPER, BASIC, BASIC, LOWER]),
            (BOWTIE_POSET, [OTHER, OTHER, OTHER, OTHER]),
            # A top one smaller whose own row is not a chain.
            (parse_poset("4\n1 3\n2 3\n3 4"), [BASIC, BASIC, UPPER, UPPER]),
            # A chain below a chain: 3 sees 1 < 2; its top 2 is no twin of 3,
            # as 2 also lies below 4.
            (parse_poset("4\n1 2\n2 3\n2 4"), [LOWER, LOWER, BASIC, BASIC]),
            # A twin pair: 1 agrees with 2 everywhere else; then a top that is
            # no twin.
            (parse_poset("2\n1 2"), [BASIC, UPPER]),
            (parse_poset("3\n1 2\n1 3"), [LOWER, BASIC, BASIC]),
            # Empty rows.
            (parse_poset("1"), [BASIC]),
            (parse_poset("3"), [BASIC, BASIC, BASIC]),
        ],
    )
    def test_branches(self, p, expected):
        assert element_status(p) == expected == reference_status(p)

    def test_long_chain_and_wide_antichain(self):
        # The limit is loose for a loaded machine: these take a fraction of
        # a second, while walking each row bit by bit takes over a minute
        # on the chain.
        n = 5000
        chain = Poset.from_covers(n, [(k, k + 1) for k in range(n - 1)])
        antichain = Poset.from_covers(n, [])
        start = time.perf_counter()
        assert element_status(chain) == [BASIC] + [UPPER] * (n - 1)
        assert element_status(antichain) == [BASIC] * n
        assert time.perf_counter() - start < 30

    def test_parsed_wide_antichain(self):
        # The limit is loose for a loaded machine: this takes under a
        # second, while copying each group mask per member takes about 6 s.
        n = 200000
        p = parse_poset(str(n))
        start = time.perf_counter()
        assert element_status(p) == [BASIC] * n
        assert time.perf_counter() - start < 3


def relabelled_with_implied_pairs(p, rng):
    """``p`` under a random relabelling, written as its covers and a random
    share of its implied pairs, in random order."""
    label = list(range(p.n))
    rng.shuffle(label)
    pairs = [(u, v) for u in range(p.n) for v in _bits(p.up_mask(u))]
    covers = set(p.covers())
    lines = [
        (label[u], label[v]) for u, v in pairs if (u, v) in covers or rng.random() < 0.3
    ]
    rng.shuffle(lines)
    return Poset.from_covers(p.n, lines)


class TestPeelStatuses:
    """The statuses the peel records as it removes each element of a
    V-poset are those the basic-element axioms give on the closed rows."""

    @pytest.mark.parametrize("n", range(9))
    def test_all_vposets(self, n):
        rng = random.Random(n)
        for p in all_vposets(n):
            for _ in range(4):
                q = relabelled_with_implied_pairs(p, rng)
                assert isinstance(is_v_poset(q), BuildTrace)
                assert q._status is not None  # recorded by the peel
                assert element_status(q) == list(_axiom_statuses(q))

    @pytest.mark.parametrize("n", range(6))
    def test_all_labeled_posets(self, n):
        for p in all_labeled_posets(n):
            if isinstance(is_v_poset(p), BuildTrace):
                assert element_status(p) == list(_axiom_statuses(p)) == reference_status(p)
            else:
                assert p._status is None


def forbidden_in_live(p, live):
    """`_forbidden_in` on the subposet that ``live`` induces, relabelled in
    index order, with its quadruple mapped back."""
    members = list(_bits(live))
    where = {x: i for i, x in enumerate(members)}
    above = [[where[v] for v in _bits(p.up_mask(u) & live)] for u in members]
    below = [[where[v] for v in _bits(p.down_mask(u) & live)] for u in members]
    found = _forbidden_in(above, below)
    if found is None:
        return None
    u, v, w, x, kind = found
    return ForbiddenPattern(u=members[u], v=members[v], w=members[w], x=members[x], kind=kind)


def reference_forbidden(p, live):
    """The first quadruple inside ``live`` in (u, v, x, w) order, walking
    every u and every v incomparable to it."""
    for u in _bits(live):
        du = p.down_mask(u) & live
        for v in _bits(live & ~p.comp_mask(u) & ~(1 << u)):
            for x in _bits(du & p.down_mask(v)):
                loose = du & ~p.comp_mask(x) & ~(1 << x)
                if loose:
                    w = (loose & -loose).bit_length() - 1
                    kind = "bowtie" if p.less(w, v) else "N"
                    return ForbiddenPattern(u=u, v=v, w=w, x=x, kind=kind)
    return None


def reference_extreme(ahead, behind, live):
    """The greatest element of a nonempty ``live`` over (up, down) rows, the
    least one over (down, up), or None: climbing to a higher live element
    until none is left reaches the only candidate."""
    u = live.bit_length() - 1
    while ahead[u] & live:
        u = (ahead[u] & live).bit_length() - 1
    return u if behind[u] & live == live ^ (1 << u) else None


def reference_peel(p):
    """The peel that splits every live mask into components first, and
    stacks each component complemented so that it is not split again."""
    steps = []
    todo = [((1 << p.n) - 1, 0)]
    while todo:
        live, low = todo.pop()
        if live < 0:
            live = ~live << low
        else:
            comps = [(~c, k) for c, k in bit_row_components(p, live)]
            if len(comps) != 1:  # a union, or with no component the empty poset
                steps.append(len(comps) or EMPTY)
                todo += comps
                continue
        u = reference_extreme(p._up, p._down, live)
        if u is not None:
            steps.append(GREATEST)
        else:
            u = reference_extreme(p._down, p._up, live)
            if u is None:
                return None, live
            steps.append(LEAST)
        todo.append((live ^ (1 << u), 0))
    return _trace(tuple(reversed(steps))), 0


def reference_components(p, live):
    """The components of the relation graph on ``live``, each found by a
    plain breadth-first search from its least element, by least element."""
    comps = []
    left = set(_bits(live))
    while left:
        low = min(left)
        seen, queue = {low}, [low]
        for v in queue:
            for w in (*p._above[v], *p._below[v]):
                if w in left and w not in seen:
                    seen.add(w)
                    queue.append(w)
        left -= seen
        comps.append(seen)
    return comps


def split_live(p, live):
    """`_split` on the live elements of ``live``, searched from all their
    sinks, as the peel searches a whole poset: the parts, with the one left
    open completed by the reference, and the counts it reports."""
    dead = bytearray(not live >> x & 1 for x in range(p.n))
    ups = [sum(not dead[y] for y in p._above[x]) for x in range(p.n)]
    downs = [sum(not dead[y] for y in p._below[x]) for x in range(p.n)]
    sinks = [x for x in _bits(live) if not ups[x]]
    sources = sum(1 for x in _bits(live) if not downs[x])
    found = _split(
        sinks, len(sinks), sources, p._above, p._below, ups, downs, dead, [-1] * p.n, 0
    )
    if found is None:
        return None
    alone, done, rest = found
    for members, k, t, j, b in done:
        tops = [x for x in members if not ups[x]]
        bottoms = [x for x in members if not downs[x]]
        assert (k, t, j, b) == (len(tops), sum(tops), len(bottoms), sum(bottoms))
    parts = [{x} for x in alone] + [set(members) for members, *_ in done]
    if rest >= 0:
        parts.append(set(_bits(live)) - set().union(*parts))
        assert rest in parts[-1]
    return sorted(parts, key=min)


class TestComponents:
    """The split, searching from every start in turn on a doubling budget,
    finds the components a plain breadth-first search finds, and leaves at
    most one of them open."""

    @pytest.mark.parametrize("n", range(6))
    def test_all_labeled_posets(self, n):
        rng = random.Random(n)
        for p in all_labeled_posets(n):
            live = rng.getrandbits(n)
            comps = reference_components(p, live)
            assert split_live(p, live) == (comps if len(comps) > 1 else None)

    @settings(max_examples=300, deadline=None)
    @given(strict_orders(), st.data())
    def test_random_orders(self, p, data):
        live = data.draw(st.integers(0, (1 << p.n) - 1))
        comps = reference_components(p, live)
        assert split_live(p, live) == (comps if len(comps) > 1 else None)

    def test_bit_row_components_agree(self):
        # The reference peel floods the closed rows; on a whole poset the
        # comparability and relation graphs have the same components.
        for p in all_labeled_posets(4):
            full = (1 << p.n) - 1
            assert [c << k for c, k in bit_row_components(p, full)] == [
                sum(1 << x for x in comp) for comp in reference_components(p, full)
            ]


def first_peel(p):
    """The trace and 0 when the peel yields no stuck component, else None
    and the first stuck component's mask, as `is_v_poset` reads them."""
    steps = []
    stuck = next(_peel(p, steps, [None] * p.n), None)
    if stuck is None:
        return _trace(tuple(reversed(steps))), 0
    return None, sum(1 << x for x in stuck)


def assert_peels_agree(p):
    """The graph peel gives the bit-row peel's steps and stuck components,
    in the same order."""
    steps, status, reference = [], [None] * p.n, []
    stuck = [sum(1 << x for x in members) for members in _peel(p, steps, status)]
    assert stuck == list(bit_row_peel(p, reference))
    if not stuck:
        assert steps == reference


class TestPeel:
    """The graph peel splits a component only when it has neither one sink
    nor one source, gives the same trace and stuck components as the
    bit-row peel over the closed rows, and the same trace and first stuck
    component as splitting every mask first."""

    @pytest.mark.parametrize("n", range(6))
    def test_all_labeled_posets(self, n):
        for p in all_labeled_posets(n):
            assert first_peel(p) == reference_peel(p)
            assert_peels_agree(p)

    @settings(max_examples=300, deadline=None)
    @given(strict_orders())
    def test_random_orders(self, p):
        assert first_peel(p) == reference_peel(p)
        assert_peels_agree(p)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_implied_pairs_and_row_backed_posets(self, data):
        # Relation lines that repeat or imply others, and the cover rows of
        # a poset built from rows, peel as the covers do.
        p = data.draw(strict_orders())
        pairs = [(u, v) for u in range(p.n) for v in _bits(p.up_mask(u))]
        extra = data.draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
        covers = data.draw(st.permutations(p.covers() + extra))
        for q in (Poset.from_covers(p.n, covers), Poset(p.n, [p.up_mask(u) for u in range(p.n)])):
            assert q == p
            assert_peels_agree(q)
            assert first_peel(q) == first_peel(p)

    def test_goes_on_past_a_stuck_component(self):
        # A bowtie, an N and a 2-chain side by side: the peel yields the
        # two stuck components, the last one first, and finishes the chain.
        p = Poset.disjoint_union([BOWTIE_POSET, N_POSET, parse_poset("2\n1 2")])
        assert list(_peel(p, [], [None] * p.n)) == [[4, 5, 6, 7], [0, 1, 2, 3]]


def fence(m):
    """m minima below m maxima, maximum m + i covering minima i and i + 1."""
    return Poset.from_covers(
        2 * m, [(i + d, m + i) for i in range(m - 1) for d in (0, 1)]
    )


def reference_greatest(rows):
    """Per element, the member of its closed row that every other member
    of the row lies below, or -1, by checking each member."""
    return [
        next(
            (m for m in _bits(row) if all(rows[m] >> b & 1 for b in _bits(row) if b != m)),
            -1,
        )
        for row in rows
    ]


class TestGreatestBelow:
    """The greatest element below each element, read off the relation graph
    along a topological order, is the member of its down row above every
    other member; up rows along the reversed order give the least above."""

    def assert_agrees(self, p):
        order = _topological_order(p._above, p._below)
        assert _greatest_below(p._down, p._below, order) == reference_greatest(p._down)
        assert _greatest_below(p._up, p._above, order[::-1]) == reference_greatest(p._up)

    @pytest.mark.parametrize("n", range(6))
    def test_all_labeled_posets(self, n):
        rng = random.Random(n)
        for p in all_labeled_posets(n):
            pairs = [(u, v) for u in range(n) for v in _bits(p.up_mask(u))]
            lines = pairs + [rng.choice(pairs) for _ in range(3)] if pairs else []
            rng.shuffle(lines)
            for q in (Poset.from_covers(n, p.covers()), Poset.from_covers(n, lines)):
                assert q == p
                self.assert_agrees(q)


class TestWitnessScan:
    """For each u the scan collects the x below u that have an incomparable
    w below u, and picks v, x and w as lowest bits; on the full mask, the
    peel's stuck mask and random live masks it finds the witness that
    walking every v incomparable to u finds first."""

    def assert_same_witness(self, p, live):
        assert find_forbidden(p) == reference_forbidden(p, (1 << p.n) - 1)
        assert forbidden_in_live(p, live) == reference_forbidden(p, live)
        trace, stuck = first_peel(p)
        if trace is None:
            assert is_v_poset(p) == reference_forbidden(p, stuck)

    @pytest.mark.parametrize("n", range(6))
    def test_all_labeled_posets(self, n):
        rng = random.Random(n)
        for p in all_labeled_posets(n):
            self.assert_same_witness(p, rng.getrandbits(n))

    @settings(max_examples=300, deadline=None)
    @given(strict_orders(), st.data())
    def test_random_orders(self, p, data):
        self.assert_same_witness(p, data.draw(st.integers(0, (1 << p.n) - 1)))

    def test_long_fence(self):
        # The limit is loose for a loaded machine: this takes well under a
        # second, while walking every incomparable v of every u takes
        # minutes.
        p = fence(10000)
        start = time.perf_counter()
        assert find_forbidden(p) == ForbiddenPattern(u=10000, v=10001, w=0, x=1, kind="N")
        assert is_v_poset(p) == find_forbidden(p)
        assert time.perf_counter() - start < 10

    def test_least_witness_over_stuck_components(self):
        # The peel is first stuck on the N, which has the higher indices;
        # the first witness of the whole poset lies in the bowtie.
        p = Poset.disjoint_union([BOWTIE_POSET, N_POSET])
        assert is_v_poset(p).u >= 4
        assert find_forbidden(p) == reference_forbidden(p, (1 << p.n) - 1)
        assert find_forbidden(p).kind == "bowtie"

    @pytest.mark.parametrize("certified_first", [False, True])
    def test_one_peel_and_one_witness_per_component(self, monkeypatch, certified_first):
        # The peel that certifies the poset goes on to the other stuck
        # component, and the kept certificate is the first one's witness;
        # a poset certified before is peeled again past that witness.
        p = Poset.disjoint_union([BOWTIE_POSET, N_POSET])
        if certified_first:
            is_v_poset(p)
        calls = []
        for name in ("_peel", "_stuck_witness"):
            f = getattr(posets, name)
            monkeypatch.setattr(
                posets, name, lambda *args, f=f, name=name: calls.append(name) or f(*args)
            )
        assert find_forbidden(p) == reference_forbidden(p, (1 << p.n) - 1)
        assert calls.count("_peel") == 1
        assert calls.count("_stuck_witness") == (1 if certified_first else 2)

    def test_one_record_per_witness(self, monkeypatch):
        # Each stuck component's scan answers in its own indices, and only
        # the witness mapped back is made a record.
        made = []
        init = ForbiddenPattern.__init__
        monkeypatch.setattr(
            ForbiddenPattern, "__init__",
            lambda self, *args, **kwargs: made.append(1) or init(self, *args, **kwargs),
        )
        p = Poset.disjoint_union([BOWTIE_POSET, N_POSET])
        witness = find_forbidden(p)
        assert len(made) == 2
        assert witness == reference_forbidden(p, (1 << p.n) - 1)

    def test_caterpillar_beside_an_n(self):
        # The limit is loose for a loaded machine: only the N is scanned,
        # in milliseconds, while scanning the whole poset takes about 15 s.
        h = 4000
        caterpillar = tree_to_poset(parse_tree("(()" * h + ")" * h))
        p = Poset.disjoint_union([caterpillar, N_POSET])
        assert p.n == 8004
        start = time.perf_counter()
        pattern = find_forbidden(p)
        assert time.perf_counter() - start < 1
        n = find_forbidden(N_POSET)
        assert pattern == ForbiddenPattern(
            u=n.u + 8000, v=n.v + 8000, w=n.w + 8000, x=n.x + 8000, kind="N"
        )


def reference_region_sets(p, status):
    """Every element's region set: for an upper element, the lower elements
    of the same basic association are looked for among all n."""
    n = p.n
    full = (1 << n) - 1
    incomp = [full & ~(p.comp_mask(v) | (1 << v)) for v in range(n)]
    basic_mask = 0
    for v in range(n):
        if status[v] == BASIC:
            basic_mask |= 1 << v
    assoc = [p.comp_mask(v) & basic_mask for v in range(n)]
    regions = [None] * n
    for a in range(n):
        st = status[a]
        if st == BASIC:
            regions[a] = frozenset()
        elif st == LOWER:
            regions[a] = frozenset(
                b for b in _bits(p.up_mask(a)) if not (p.down_mask(b) & incomp[a])
            )
        elif st == UPPER:
            keep = {
                b for b in _bits(p.down_mask(a)) if not (p.up_mask(b) & incomp[a])
            }
            keep -= {
                l for l in range(n) if status[l] == LOWER and assoc[l] == assoc[a]
            }
            regions[a] = frozenset(keep)
    return regions


@st.composite
def relabelled_vposets(draw):
    """V-posets replayed from random build traces, then relabelled."""
    trace = draw(st.recursive(
        st.just(Empty()),
        lambda inner: st.one_of(
            inner.map(AddGreatest),
            inner.map(AddLeast),
            st.lists(inner, max_size=3).map(DisjointUnion),
        ),
        max_leaves=16,
    ))
    p = replay_trace(trace)
    label = draw(st.permutations(range(p.n)))
    return Poset.from_covers(p.n, [(label[u], label[v]) for u, v in p.covers()])


def assert_regions_match(p):
    expected = reference_region_sets(p, element_status(p))
    for a, region in enumerate(expected):
        if region is None:
            with pytest.raises(ValueError, match="neither basic nor upper nor lower"):
                region_set(p, a)
        else:
            assert region_set(p, a) == region


class TestRegionSets:
    @pytest.mark.parametrize("n", range(8))
    def test_all_vposets(self, n):
        for p in all_vposets(n):
            assert_regions_match(p)

    @settings(max_examples=200, deadline=None)
    @given(relabelled_vposets())
    def test_random_vposets(self, p):
        assert isinstance(is_v_poset(p), BuildTrace)
        assert_regions_match(p)

    @settings(max_examples=100, deadline=None)
    @given(strict_orders())
    def test_random_orders(self, p):
        assert_regions_match(p)

    def test_long_chain(self):
        # The limit is loose for a loaded machine: this takes a fraction of
        # a second, while computing every element's region takes seconds.
        n = 5000
        chain = Poset.from_covers(n, [(k, k + 1) for k in range(n - 1)])
        start = time.perf_counter()
        assert region_set(chain, n - 1) == frozenset(range(n - 1))
        assert time.perf_counter() - start < 5

    def test_every_element_of_wide_posets(self):
        # The limit is loose for a loaded machine: each poset takes a small
        # fraction of a second, while copying the n statuses per call takes
        # over half a minute.
        k = 10000
        antichain = Poset.from_covers(2 * k, [])
        chains = Poset.from_covers(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
        start = time.perf_counter()
        assert all(region_set(antichain, a) == frozenset() for a in range(2 * k))
        for i in range(k):
            assert region_set(chains, 2 * i) == frozenset()
            assert region_set(chains, 2 * i + 1) == frozenset({2 * i})
        assert time.perf_counter() - start < 5

    def test_figure_poset_values(self, fig):
        assert region_set(fig, 6) == frozenset({1, 2, 3, 4, 5, 7})
        assert region_set(fig, 1) == frozenset({2, 3, 4, 5})
        assert region_set(fig, 0) == frozenset(range(1, 10))
        assert region_set(fig, 2) == frozenset({4})
        assert region_set(fig, 3) == frozenset({5})
        assert region_set(fig, 8) == frozenset({9})
        for basic in (4, 5, 7, 9):
            assert region_set(fig, basic) == frozenset()

    def test_bad_index(self, fig):
        with pytest.raises(ValueError):
            region_set(fig, 10)


class TestMaximalAntichains:
    def test_figure_poset(self, fig):
        got = {frozenset(a) for a in maximal_antichains_poset(fig)}
        assert got == {frozenset(a) for a in FIGURE_POSET_MAX_ANTICHAINS}
        assert len(got) == 13

    def test_two_antichain(self):
        assert maximal_antichains_poset(parse_poset("2")) == [frozenset({0, 1})]

    def test_three_chain(self):
        got = maximal_antichains_poset(parse_poset("3\n1 2\n2 3"))
        assert sorted(map(sorted, got)) == [[0], [1], [2]]


class TestPolynomials:
    def test_figure_poset_both_routes(self, fig):
        assert poset_poly(fig) == FIGURE_POSET_POLY
        assert antichain_expansion_poset(fig) == FIGURE_POSET_POLY

    def test_empty(self):
        assert poset_poly(Poset.empty()) == BivariatePoly.one()
        assert antichain_expansion_poset(Poset.empty()) == BivariatePoly.one()

    def test_single(self):
        assert antichain_expansion_poset(parse_poset("1")) == mono(1, 1, 0)

    def test_two_chain(self):
        assert poset_poly(parse_poset("2\n1 2")) == mono(1, 1, 0) + mono(1, 0, 1)

    def test_two_antichain_expansion(self):
        assert antichain_expansion_poset(parse_poset("2")) == mono(1, 2, 0)

    def test_non_v_input_raises_with_witness(self):
        with pytest.raises(NotVPosetError) as exc:
            poset_poly(N_POSET)
        assert exc.value.pattern.kind == "N"
        with pytest.raises(NotVPosetError):
            antichain_expansion_poset(BOWTIE_POSET)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_expansion_equals_recursion_on_census(self, n):
        for p in all_vposets(n):
            assert poset_poly(p) == antichain_expansion_poset(p)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_duality(self, n):
        for p in all_vposets(n):
            assert poset_poly(p.dual()) == poset_poly(p)


class TestCountingOracles:
    def test_figure_poset(self, fig):
        assert count_antichains_poset(fig) == 64
        assert count_cutsets_poset(fig) == 779
        assert count_maximal_antichains_no_basic(fig) == 2

    def test_single_element_cutsets(self):
        assert count_cutsets_poset(parse_poset("1")) == 1

    @pytest.mark.parametrize("n", range(0, 8))
    def test_six_evaluations_on_census(self, n):
        for p in all_vposets(n):
            poly = poset_poly(p)
            basics = sum(1 for s in element_status(p) if s == BASIC)
            assert poly.evaluate(1, 1) == count_maximal_antichains_poset(p)
            assert poly.specialize(y=0) == mono(1, basics, 0)
            assert poly.evaluate(0, 1) == count_maximal_antichains_no_basic(p)
            assert poly.evaluate(2, 1) == count_antichains_poset(p)
            assert poly.evaluate(1, 2) == count_cutsets_poset(p)
            assert poly.evaluate(2, 2) == 2**p.n

    def test_bound_refusal(self):
        big = Poset.from_covers(21, [(i, i + 1) for i in range(20)])
        with pytest.raises(OracleBoundError):
            count_antichains_poset(big)


class TestMinimalCutsets:
    def test_figure_poset_matches_antichains(self, fig):
        assert set(minimal_cutsets(fig)) == set(maximal_antichains_poset(fig))

    def test_n_poset_differs(self):
        antichains = set(maximal_antichains_poset(N_POSET))
        cutsets = set(minimal_cutsets(N_POSET))
        assert frozenset({1, 2}) in antichains  # {v, w}
        assert frozenset({1, 2}) not in cutsets

    def test_two_chain(self):
        assert sorted(map(sorted, minimal_cutsets(parse_poset("2\n1 2")))) == [[0], [1]]

    @pytest.mark.parametrize("n", range(0, 8))
    def test_census_equality(self, n):
        for p in all_vposets(n):
            assert set(minimal_cutsets(p)) == set(maximal_antichains_poset(p))


class TestDual:
    def test_two_chain(self):
        p = parse_poset("2\n1 2")
        assert p.dual().less(1, 0) and not p.dual().less(0, 1)

    def test_n_poset_class_self_dual(self):
        assert find_forbidden(N_POSET.dual()).kind == "N"

    def test_figure_poset_dual_is_v(self, fig):
        assert decompose(fig.dual()) is not None


class TestTreeToPoset:
    def test_star_root_greatest(self):
        p = tree_to_poset(star(3), "greatest")
        assert p.greatest_element() is not None
        status = element_status(p)
        assert sum(1 for s in status if s == BASIC) == 2

    def test_path_root_least_chain(self):
        p = tree_to_poset(path(3), "least")
        assert p.least_element() == 0  # the root
        # In a linear order the least element (the root here) is basic.
        assert element_status(p) == [BASIC, UPPER, UPPER]

    def test_single_vertex(self):
        from vposets import RootedTree

        for orientation in ("greatest", "least"):
            assert tree_to_poset(RootedTree(), orientation).n == 1

    def test_bad_orientation(self):
        with pytest.raises(ValueError):
            tree_to_poset(star(3), "sideways")

    @pytest.mark.parametrize("n", range(1, 10))
    def test_tree_steps_are_its_trace(self, n):
        for t in enumerate_rooted_trees(n):
            assert tuple(_tree_steps(t)) == decompose(tree_to_poset(t)).steps

    @pytest.mark.parametrize("n", range(1, 10))
    def test_polynomial_bridge(self, n):
        for t in enumerate_rooted_trees(n):
            for orientation in ("greatest", "least"):
                assert poset_poly(tree_to_poset(t, orientation)) == tree_poly(t)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_basic_element_characterisation(self, n):
        for t in enumerate_rooted_trees(n):
            leaves = set(range(t.size)) - set(parents_of(t))

            up = tree_to_poset(t, "greatest")
            basics = {i for i, s in enumerate(element_status(up)) if s == BASIC}
            assert basics == leaves

            down = tree_to_poset(t, "least")
            # Elements below exactly one leaf, then the minimal ones among them.
            one_leaf = {
                v
                for v in range(t.size)
                if len(leaves & ({v} | set(_above(down, v)))) == 1
            }
            minimal = {
                v for v in one_leaf if not any(w in one_leaf for w in _below(down, v))
            }
            basics = {i for i, s in enumerate(element_status(down)) if s == BASIC}
            assert basics == minimal


def _above(p, v):
    return [w for w in range(p.n) if p.less(v, w)]


def _below(p, v):
    return [w for w in range(p.n) if p.less(w, v)]


class TestIsomorphism:
    def test_chain_vs_dual(self):
        p = parse_poset("2\n1 2")
        assert poset_isomorphic(p, p.dual())

    def test_n_vs_bowtie(self):
        assert not poset_isomorphic(N_POSET, BOWTIE_POSET)

    def test_chain_vs_antichain(self):
        assert not poset_isomorphic(parse_poset("2\n1 2"), parse_poset("2"))

    def test_relabeling_detected(self):
        a = Poset.from_covers(4, [(0, 1), (0, 2), (3, 2)])
        b = Poset.from_covers(4, [(3, 2), (3, 1), (0, 1)])
        assert poset_isomorphic(a, b)

    def test_different_sizes(self):
        assert not poset_isomorphic(parse_poset("2\n1 2"), parse_poset("3\n1 2\n2 3"))

    def test_crowns_need_backtracking(self):
        # The 8-crown's cover graph is an 8-cycle, that of two 4-crowns two
        # 4-cycles: every element has the same signature in both, so only
        # the search, undoing its choices, tells them apart.
        crown8 = Poset.from_covers(8, [(i, 4 + j) for i in range(4) for j in (i, (i + 1) % 4)])
        crowns4 = Poset.from_covers(8, [(i, 4 + j) for i in range(4) for j in range(i & 2, (i & 2) + 2)])
        assert sorted(_element_signatures(crown8)) == sorted(_element_signatures(crowns4))
        assert not poset_isomorphic(crown8, crowns4)
        label = [5, 2, 7, 0, 3, 6, 1, 4]
        relabelled = Poset.from_covers(8, [(label[u], label[v]) for u, v in crown8.covers()])
        assert poset_isomorphic(crown8, relabelled)

    def test_bound_refusal(self):
        big = Poset.from_covers(9, [(i, i + 1) for i in range(8)])
        with pytest.raises(OracleBoundError):
            poset_isomorphic(big, big)


class TestLabeledGeneration:
    def test_counts(self):
        assert [len(all_labeled_posets(n)) for n in range(6)] == [1, 1, 3, 19, 219, 4231]

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundError):
            all_labeled_posets(6)


class TestImpossibility:
    def test_bowtie_targets(self):
        assert impossibility_search((2, 7, 7, 16)) is False

    def test_n_poset_targets(self):
        assert impossibility_search((3, 8, 8, 16)) is False

    def test_two_chain_targets(self):
        assert impossibility_search((2, 3, 3, 4)) is True

    def test_answers_below_the_bound(self):
        # 82251 candidates: sums of 4 of the 36 monomials x**a * y**b, a, b <= 5.
        assert impossibility_search((4, 32, 32, 64)) is False

    @pytest.mark.parametrize(
        "targets",
        [
            (12, 2**20, 2**20, 2**40),  # about 1.3 * 10**23 candidates
            (5, 64, 64, 256),  # 2869685 candidates
            (10**6, 2**999, 2**999, 4),  # a count of 602057 digits
            (10**7, 1, 1, 1),  # one candidate of 10**7 monomials
            (0, 2**10**7, 1, 1),  # 10**7 monomials
        ],
    )
    def test_bound_refuses_before_building(self, targets, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("a candidate was built")

        monkeypatch.setattr(itertools, "combinations_with_replacement", unbuilt)
        start = time.perf_counter()
        with pytest.raises(OracleBoundError, match="impossibility search"):
            impossibility_search(targets)
        assert time.perf_counter() - start < 1

    def test_targets_match_brute_counts(self):
        for p, k in ((BOWTIE_POSET, 2), (N_POSET, 3)):
            assert count_maximal_antichains_poset(p) == k
            assert count_antichains_poset(p) == count_cutsets_poset(p)


class TestStatusPreservation:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_construction_preserves_status(self, n):
        for p in all_vposets(n):
            assert_status_preserved(decompose(p))

    def test_linear_order_exception(self):
        chain = parse_poset("2\n1 2")
        assert element_status(chain) == [BASIC, UPPER]
        extended = chain.add_least()
        # The old least element loses basic status; the new least gains it.
        assert element_status(extended) == [UPPER, UPPER, BASIC]
