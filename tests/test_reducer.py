import dataclasses
import functools
import inspect
import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from zetaform.reducer import (
    DivergentSeriesError,
    as_index,
    canonicalize,
    classify,
    expand_double_one,
    expand_ones_run,
    partial_fraction,
    reduce_index,
)


def recombine(pf, k, m, a, x):
    """Evaluate the expansion at a rational x (independent check)."""
    total = F(0)
    for l, c in pf.pole_at_zero:
        total += c / x**l
    for l, c in pf.pole_at_a:
        total += c / (x + a) ** l
    return total


class TestPartialFraction:
    def test_simplest(self):
        pf = partial_fraction(1, 1, 1)
        assert pf.pole_at_zero == ((1, F(1)),)
        assert pf.pole_at_a == ((1, F(-1)),)

    def test_one_two_one(self):
        pf = partial_fraction(1, 2, 1)
        assert pf.pole_at_zero == ((1, F(1)),)
        assert pf.pole_at_a == ((1, F(-1)), (2, F(-1)))

    def test_two_one_one(self):
        pf = partial_fraction(2, 1, 1)
        assert pf.pole_at_zero == ((1, F(-1)), (2, F(1)))
        assert pf.pole_at_a == ((1, F(1)),)

    def test_rejects_nonpositive(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-2, 1, 1)]:
            with pytest.raises(ValueError):
                partial_fraction(*bad)

    def test_memo_keeps_rejecting_bad_arguments(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            for _ in range(3):
                with pytest.raises(ValueError):
                    partial_fraction(*bad)

    def test_memo_returns_an_equal_immutable_expansion(self):
        first, again = partial_fraction(3, 2, 4), partial_fraction(3, 2, 4)
        assert again == first
        assert isinstance(first.pole_at_zero, tuple) and isinstance(first.pole_at_a, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.pole_at_zero = ()
        assert recombine(again, 3, 2, 4, F(5, 7)) == 1 / (F(5, 7) ** 3 * F(33, 7) ** 2)

    @pytest.mark.parametrize("k, m, a", [(1, 1, 1), (3, 2, 4), (5, 1, 3), (2, 4, 6)])
    def test_over_common_denominator(self, k, m, a):
        pf = partial_fraction(k, m, a)
        den, at_zero, at_a = pf.over_common_denominator
        assert den > 0 and a ** (k + m - 1) % den == 0  # the shared a^(k+m-1) or a divisor
        assert all(type(c) is int for _, c in at_zero + at_a)
        assert tuple((l, F(c, den)) for l, c in at_zero) == pf.pole_at_zero
        assert tuple((l, F(c, den)) for l, c in at_a) == pf.pole_at_a

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("m", range(1, 7))
    def test_recombination(self, k, m):
        # clearing denominators must reproduce 1/(x^k (x+a)^m) exactly
        for a in range(1, 7):
            pf = partial_fraction(k, m, a)
            for x in (F(1, 3), F(7, 2), F(11)):
                assert recombine(pf, k, m, a, x) == 1 / (x**k * (x + a) ** m)


class TestIndexValidation:
    def test_strips_trailing_zeros(self):
        assert as_index((2, 1, 0, 0)) == (2, 1)

    def test_rejects_weight_below_two(self):
        with pytest.raises(DivergentSeriesError):
            as_index((1,))
        with pytest.raises(DivergentSeriesError):
            as_index((0, 1, 0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            as_index((2, -1))


class TestReduceIndex:
    def test_paper_five_term_example(self):
        got = reduce_index((2, 3, 2))
        want = {
            (0, 1, 1): F(1),
            (1, 1): F(-1),
            (2,): F(1, 4),
            (0, 3): F(1),
            (0, 0, 2): F(-1, 4),
        }
        assert got == want

    def test_already_canonical(self):
        assert reduce_index((1, 1)) == {(1, 1): F(1)}
        assert reduce_index((0, 0, 2)) == {(0, 0, 2): F(1)}
        assert reduce_index((0, 1, 0, 1)) == {(0, 1, 0, 1): F(1)}

    def test_single_step(self):
        assert reduce_index((1, 2)) == {(1, 1): F(1), (0, 2): F(-1)}

    def test_big_run_example(self):
        got = reduce_index((4, 1, 1, 1, 1, 1))
        want = {
            (4,): F(1, 120),
            (3,): F(-137, 7200),
            (2,): F(12019, 432000),
            (1, 1): F(-12019, 432000),
            (1, 1, 1): F(-3799, 432000),
            (1, 1, 1, 1): F(-1489, 216000),
            (1, 1, 1, 1, 1): F(-61, 8000),
            (1, 1, 1, 1, 1, 1): F(-1, 125),
        }
        assert got == want

    @pytest.mark.parametrize("p", [1000, 5000])
    def test_heavy_power_then_one(self, p):
        # 1/(n^p (n+1)) = sum_l (-1)^(p-l) / n^l + (-1)^(p-1) / (n (n+1)), one pivot per weight
        want = {(l,): F((-1) ** (p - l)) for l in range(2, p + 1)}
        want[(1, 1)] = F((-1) ** (p - 1))
        assert reduce_index((p, 1)) == want

    def test_unit_shapes_only(self):
        rng = random.Random(11)
        for _ in range(50):
            length = rng.randint(1, 5)
            s = tuple(rng.randint(0, 3) for _ in range(length))
            if sum(s) < 2:
                continue
            for key in reduce_index(s):
                assert classify(key)[0] in ("power", "pair", "ones") or sum(key) == 2
                assert sum(key) >= 2


class TestExpansions:
    def test_double_one_trivial(self):
        assert expand_double_one(0, 0) == {(1, 1): F(1)}

    def test_double_one_shifted(self):
        assert expand_double_one(1, 1) == {(0, 1, 1): F(1, 2), (0, 0, 1, 1): F(1, 2)}

    def test_double_one_wide(self):
        assert expand_double_one(0, 2) == {
            (1, 1): F(1, 3),
            (0, 1, 1): F(1, 3),
            (0, 0, 1, 1): F(1, 3),
        }

    def test_ones_run_trivial(self):
        assert expand_ones_run(0, 0) == {(1, 1): F(1)}

    def test_ones_run_three(self):
        assert expand_ones_run(0, 1) == {(1, 1): F(1, 2), (0, 1, 1): F(-1, 2)}

    def test_ones_run_shifted(self):
        assert expand_ones_run(1, 1) == {(0, 1, 1): F(1, 2), (0, 0, 1, 1): F(-1, 2)}

    @pytest.mark.parametrize("a", range(0, 4))
    @pytest.mark.parametrize("c", range(0, 5))
    def test_ones_run_agrees_with_reduction(self, a, c):
        # the closed form must match the plain pivot recursion carried through the run
        run = (0,) * a + (1,) * (c + 2)
        assert expand_ones_run(a, c) == fraction_pivot(run, ("power",))


class TestCanonicalize:
    def test_canonical_closure(self):
        rng = random.Random(23)
        for _ in range(60):
            length = rng.randint(1, 5)
            s = tuple(rng.randint(0, 3) for _ in range(length))
            if sum(s) < 2:
                continue
            for key in canonicalize(s):
                kind = classify(key)[0]
                assert kind in ("power", "pair"), (s, key)
                assert sum(key) >= 2

    def test_long_run_has_one_key_per_adjacent_pair(self):
        # a run reaches no recursion: its closed form gives (0^r, 1, 1) for r < 1199
        got = canonicalize((1,) * 1200)
        assert len(got) == 1199 and set(got) == {(0,) * r + (1, 1) for r in range(1199)}

    def test_long_vector_reduces_at_a_shallow_stack(self):
        # the pivot is a loop over weight levels, so the stack depth does not grow with the weight
        s = (3, 2, 1, 0, 2) + (1,) * 20
        want = fraction_pivot(s, ("power",))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 30)
        try:
            got = canonicalize(s)
        finally:
            sys.setrecursionlimit(limit)
        assert got == want

    def test_weight_bookkeeping(self):
        # every reduction unit keeps weight >= 2 and at most the input weight
        for s in [(2, 3, 2), (1, 2, 3), (4, 1, 1, 1, 1, 1), (2, 0, 2)]:
            for key in reduce_index(s):
                assert 2 <= sum(key) <= sum(s)

    def test_matches_full_pivot_reduction(self):
        # expanding the kept runs equals running the pivot loop through them
        def full_reduce(s):
            s = as_index(s)
            if sum(s) == 2 or sum(1 for v in s if v) == 1:
                return {s: F(1)}
            nz = [i for i, v in enumerate(s) if v]
            i, j = nz[0], nz[-1]
            out = {}
            for pos, sign in ((j, 1), (i, -1)):
                child = list(s)
                child[pos] -= 1
                while child and child[-1] == 0:
                    child.pop()
                for key, c in full_reduce(tuple(child)).items():
                    out[key] = out.get(key, F(0)) + sign * F(1, j - i) * c
            return {k: v for k, v in out.items() if v}

        rng = random.Random(5)
        seen = 0
        while seen < 25:
            length = rng.randint(1, 4)
            s = tuple(rng.randint(0, 3) for _ in range(length))
            if sum(s) < 2:
                continue
            seen += 1
            assert canonicalize(s) == full_reduce(s), s


def summand(key, n, z):
    """1 / prod_i (n+i+z)^key[i], exactly."""
    out = F(1)
    for i, e in enumerate(key):
        out /= (n + i + z) ** e
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=6).filter(lambda s: sum(s) >= 2),
    st.sampled_from((F(0), F(-1, 2), F(-1, 3))),
)
def test_reduction_preserves_the_summand(s, z):
    # times prod_i (n+i+z)^(largest exponent at i), the difference of the two
    # sides is a polynomial in n, so more zeros than its degree prove it is 0
    s = tuple(s)
    for comb in (reduce_index(s), canonicalize(s)):
        keys = [s, *comb]
        width = max(len(k) for k in keys)
        degree = sum(max(k[i] for k in keys if i < len(k)) for i in range(width))
        for n in range(1, degree + 2):
            got = sum(c * summand(k, n, z) for k, c in comb.items())
            assert got == summand(s, n, z), (s, z, n)


@functools.lru_cache(maxsize=None)
def fraction_pivot(s, stops):
    """The pivot recursion with one Fraction per operation, as a plain reference."""
    if sum(s) == 2 or classify(s)[0] in stops:
        return {s: F(1)}
    nz = [i for i, v in enumerate(s) if v]
    i, j = nz[0], nz[-1]
    out = {}
    for pos, sign in ((j, 1), (i, -1)):
        child = list(s)
        child[pos] -= 1
        for key, c in fraction_pivot(as_index(child), stops).items():
            out[key] = out.get(key, F(0)) + sign * F(1, j - i) * c
    return {k: v for k, v in out.items() if v}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=6).filter(lambda s: sum(s) >= 2))
def test_integer_pivot_recursion_matches_a_fraction_reference(s):
    # reduce_index pushes each weight level's Fraction coefficients down in one
    # loop; the output must still be the reference's reduced, nonzero Fractions
    for comb, stops in ((reduce_index(s), ("power", "ones")), (canonicalize(s), ("power",))):
        assert comb == fraction_pivot(as_index(s), stops), (s, stops)
        for c in comb.values():
            assert type(c) is F and c != 0
            assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
