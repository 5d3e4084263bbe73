"""Unit tests for the counting series, census, and asymptotics."""

import hashlib
import math
import random
import sys

import pytest

from vposets import (
    BuildTrace,
    OracleBoundError,
    all_vposets,
    antichain_expansion_poset,
    asymptotic_constant,
    asymptotic_estimate,
    census,
    connected_vposets,
    decompose,
    q_series,
    r_value,
    solve_rho,
    v_series,
    w_series,
    w_value,
)
from vposets import enumeration
from vposets.enumeration import (
    _FLOAT_ORDER_BOUND,
    CENSUS_BOUND,
    SERIES_BOUND,
    _block_product,
    _vposets_of_size,
    _w_floats,
)
from vposets.posets import (
    _element_signatures,
    all_labeled_posets,
    is_v_poset,
    poset_isomorphic,
    poset_poly,
)

from helpers import reference_v_series

PINNED_COEFFS = (1, 1, 2, 5, 14, 40, 121, 373, 1184)


class TestSeries:
    def test_first_nine_coefficients(self):
        assert v_series(8).coeffs == PINNED_COEFFS

    def test_order_zero(self):
        assert v_series(0).coeffs == (1,)

    def test_hand_recurrence_at_three(self):
        # q = (1, 1, 3), divisor sums c = (1, 3, 10), 3*v_3 = 2 + 3 + 10
        s = v_series(3)
        assert s.coeffs == (1, 1, 2, 5)

    def test_exact_division_up_to_200(self):
        series = v_series(200)  # raises ArithmeticError on any inexact division
        assert series.coeffs[0] == 1
        assert all(c > 0 for c in series.coeffs)

    def test_q_series(self):
        q = q_series(8)
        assert q.coeffs[1:4] == (1, 1, 3)
        v = v_series(8)
        for n in range(2, 9):
            assert q[n] == 2 * v[n - 1] - v[n - 2]

    def test_w_series(self):
        w = w_series(8)
        q = q_series(8)
        assert w[1] == 2 == q[1] + 1
        assert w.coeffs[2:] == q.coeffs[2:]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            v_series(-1)

    @pytest.mark.parametrize("series", [v_series, q_series, w_series])
    def test_bound_refusal(self, series):
        with pytest.raises(OracleBoundError, match=f"order {SERIES_BOUND}"):
            series(SERIES_BOUND + 1)


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestPackedSeries:
    """`v_series` adds the pairs inside complete blocks of 64 indices from
    packed products; the one-by-one recurrence must give the same series."""

    def test_every_order_to_300(self):
        # Orders 63..65, 127..129, 191..193 and 255..257 straddle block edges.
        reference = reference_v_series(300)
        for order in range(301):
            assert v_series(order).coeffs == reference[: order + 1], order

    def test_order_1200(self):
        assert v_series(1200).coeffs == reference_v_series(1200)

    def test_digest_at_the_bound(self):
        text = "\n".join(map(str, v_series(SERIES_BOUND).coeffs))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "ebb99713d251b4bbf1bf160ad36abeb6ceca4e9bb7705dc10764b6711e97ba70"
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_block_product_is_the_convolution(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            # Sparse small entries against dense large ones, of any lengths.
            a = [rng.choice((0, rng.getrandbits(rng.randrange(1, 200))))
                 for _ in range(rng.randrange(1, 70))]
            b = [rng.getrandbits(rng.randrange(1, 3000)) for _ in range(rng.randrange(1, 70))]
            assert _block_product(a, b) == schoolbook(a, b)
            assert _block_product(b, a) == schoolbook(b, a)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([0] * 64, [0] * 64),
            ([0] * 64, [2**4000 - 1] * 64),
            ([1] * 64, [2**4000 - 1] * 64),
            ([2**4000 - 1] * 64, [2**4000 - 1] * 64),
            ([0] * 30 + [3**5000] + [0] * 33, list(range(64))),
            ([1, 0, 0, 7], [5]),
            ([2**64 - 1] * 64, [2**64 - 1] * 64),
        ],
        ids=["zeros", "zeros-by-huge", "ones-by-huge", "all-fields-full", "one-huge",
             "short", "word-sized"],
    )
    def test_block_product_edge_blocks(self, a, b):
        assert _block_product(a, b) == schoolbook(a, b)

    def test_exact_division_guards_the_packed_sums(self, monkeypatch):
        packed = _block_product

        def off_by_one(a, b):
            fields = packed(a, b)
            fields[0] += 1
            return fields

        monkeypatch.setattr(enumeration, "_block_product", off_by_one)
        with pytest.raises(ArithmeticError, match="non-integer"):
            v_series(300)


class TestCensus:
    def test_small(self):
        assert census(3) == [1, 2, 5]

    def test_single(self):
        assert census(1) == [1]

    def test_matches_series(self):
        assert census(7) == list(v_series(7).coeffs[1:])

    def test_connected_counts_match_q(self):
        q = q_series(CENSUS_BOUND)
        counts = [len(connected_vposets(n)) for n in range(1, CENSUS_BOUND + 1)]
        assert counts == list(q.coeffs[1:])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_no_two_isomorphic(self, n):
        # Exhaustive isomorphism search within buckets of equal element
        # signatures: the reference the census needs none of.
        buckets: dict[tuple, list] = {}
        for p in all_vposets(n):
            key = (p.n, p.relation_count, tuple(sorted(_element_signatures(p))))
            group = buckets.setdefault(key, [])
            assert not any(poset_isomorphic(p, rep) for rep in group)
            group.append(p)

    @pytest.mark.parametrize("n", range(5))
    def test_every_labeled_vposet_has_one_class(self, n):
        reps = all_vposets(n)
        for p in all_labeled_posets(n):
            if isinstance(is_v_poset(p), BuildTrace):
                assert sum(poset_isomorphic(p, rep) for rep in reps) == 1

    def test_census_posets_are_v_posets(self):
        for n in range(1, 7):
            for p in all_vposets(n):
                assert p.n == n
                assert decompose(p) is not None

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundError):
            census(9)

    def test_negative_size_refused_and_not_cached(self):
        before = _vposets_of_size.cache_info().currsize
        for n in (-1, -2):
            with pytest.raises(ValueError):
                all_vposets(n)
        assert _vposets_of_size.cache_info().currsize == before

    def test_caches_keep_no_answers(self):
        for n in range(1, 8):
            for generate in (all_vposets, connected_vposets):
                for p in generate(n):
                    antichain_expansion_poset(p)
                    poset_poly(p)
                    assert None not in (p._facts, p._cert, p._status)
                for p in generate(n):
                    assert p._facts is None and p._cert is None and p._status is None


class TestAsymptotics:
    def test_rho_and_inverse(self):
        result = solve_rho(order=100)
        assert abs(result.rho - 0.263436) < 1e-5
        assert abs(result.rho_inv - 3.79599) < 1e-4
        assert result.constant is None
        assert result.bracket_width <= 1e-12
        assert 0.2 < result.rho < 0.35
        assert abs(r_value(result.rho, 100) - 1.0 / math.e) < 1e-10

    def test_left_bracket_sign(self):
        assert r_value(0.0, 100) == 0.0 < 1.0 / math.e

    @pytest.mark.parametrize("x", [1.0, 1.5, -0.5, math.nan])
    def test_r_value_outside_unit_interval_raises(self, x):
        # At x = 1 the powers x**m never fall below the cutoff, and for
        # x < 0 a negative power ends the inner sum early.
        with pytest.raises(ValueError, match="0 <= x < 1"):
            r_value(x, 100)

    def test_r_value_inside_the_bracket(self):
        assert abs(r_value(0.2, 100) - 0.301924708060501) < 1e-15
        assert abs(r_value(0.3, 100) - 0.40216646368490083) < 1e-15

    def test_rho_stable_under_truncation(self):
        assert abs(solve_rho(order=80).rho - solve_rho(order=120).rho) < 1e-8

    def test_prefactor(self):
        result = asymptotic_constant(order=100)
        assert abs(result.constant - 0.726213) < 1e-4

    def test_order_past_double_precision(self):
        # w_536 * 536 is past the largest double; order 535 still answers.
        assert abs(asymptotic_constant(order=535).constant - 0.726213) < 1e-4
        with pytest.raises(ValueError, match="order 536 overflows double precision"):
            asymptotic_constant(order=536)

    def test_float_bound_is_the_last_order_that_fits(self):
        b = _FLOAT_ORDER_BOUND
        w = w_series(b + 1).coeffs
        assert b * w[b] <= sys.float_info.max < (b + 1) * w[b + 1]

    def test_series_cache_stays_small(self):
        for order in range(60, 160):
            w_value(0.1, order)
        info = _w_floats.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 8

    def test_tree_function_identity(self):
        # W = T(R) with T the solution of T = x*exp(T), so W*exp(-W) = R.
        for x in (0.05, 0.1, 0.15, 0.2):
            w = w_value(x, 100)
            assert abs(w * math.exp(-w) - r_value(x, 100)) < 1e-9

    def test_derivative_positive_and_matches_finite_differences(self):
        result = solve_rho(order=100)
        rho = result.rho
        h = 1e-6
        fd = (r_value(rho + h, 100) - r_value(rho - h, 100)) / (2 * h)
        # Recover R'(rho) from the published prefactor formula.
        const = asymptotic_constant(order=100).constant
        r_prime = (const * math.sqrt(2 * math.pi * rho) * (2 - rho)) ** 2 / math.e
        assert r_prime > 0
        assert abs(fd - r_prime) < 1e-6

    def test_estimate_ratio_at_100(self):
        result = asymptotic_constant(order=100)
        v100 = v_series(100)[100]
        assert abs(asymptotic_estimate(100, result) / v100 - 1) < 0.05

    def test_ratio_improves_with_n(self):
        result = asymptotic_constant(order=100)
        errors = []
        for n in (25, 50, 100):
            vn = v_series(n)[n]
            errors.append(abs(asymptotic_estimate(n, result) / vn - 1))
        assert errors[0] >= errors[1] - 1e-3
        assert errors[1] >= errors[2] - 1e-3

    def test_estimate_edge_cases(self):
        result = asymptotic_constant(order=100)
        est = asymptotic_estimate(1, result)
        assert est > 0 and math.isfinite(est)
        assert asymptotic_estimate(100000, result) == math.inf

    def test_preconditions(self):
        with pytest.raises(ValueError):
            solve_rho(order=59)
        with pytest.raises(ValueError):
            solve_rho(order=100, tol=1e-13)
        for solve in (solve_rho, asymptotic_constant):
            with pytest.raises(ValueError):
                solve(order=100, tol=math.nan)
