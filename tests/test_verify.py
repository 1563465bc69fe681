import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction as F

import pytest
from mpmath import bernfrac, inf, log, mp, mpf, pi, quad, zeta
from mpmath.libmp import dps_to_prec

from test_golden import cases
from zetaform import cli, verify
from zetaform.engine import ClosedForm, SeriesSpec, closed_form
from zetaform.qsym import Polynomial
from zetaform.verify import (
    GUARD_BITS,
    HEAD_BLOCK,
    MHZ_CUTOFF,
    DeskLimitError,
    _SeriesSummer,
    _em_rule,
    _level_expansion,
    _level_order,
    _mhz_once,
    _tail_order,
    _width,
    _zeta_tail,
    closed_form_numeric,
    mhz_numeric,
    series_partial_sum,
    verify_identity,
)

X1 = Polynomial.variable(1)
X2 = Polynomial.variable(2)
WP = 227  # a fixed-point width for tests that need some width, not a tolerance's


def _mpf(q):
    """An exact Fraction as an mpf at the ambient precision."""
    return mpf(q.numerator) / q.denominator


def assert_close(value, reference, bound):
    assert abs(mpf(value) - mpf(reference)) <= bound, (value, reference)


class TestMhzNumeric:
    def test_basel(self):
        r = mhz_numeric((2,), 0, 1e-12)
        with mp.workdps(30):
            assert_close(_mpf(r.value), pi**2 / 6, 1e-20)

    def test_apery(self):
        r = mhz_numeric((3,), 0, 1e-12)
        with mp.workdps(30):
            assert_close(_mpf(r.value), zeta(3), 1e-20)

    def test_shifted_basel(self):
        r = mhz_numeric((2,), F(-1, 2), 1e-12)
        with mp.workdps(30):
            assert_close(_mpf(r.value), pi**2 / 2, 1e-20)

    def test_depth_two_classics(self):
        with mp.workdps(40):
            cases = [
                ((1, 2), zeta(3)),
                ((1, 3), pi**4 / 360),
                ((2, 2), pi**4 / 120),
            ]
        for vec, ref in cases:
            r = mhz_numeric(vec, 0, 1e-12)
            assert_close(_mpf(r.value), ref, 1e-12)
            assert abs(_mpf(r.value) - mpf(ref)) <= max(r.abs_err_bound, 1e-12)

    def test_depth_three_and_four(self):
        with mp.workdps(40):
            cases = [((1, 1, 2), zeta(4)), ((1, 1, 1, 2), zeta(5))]
        for vec, ref in cases:
            r = mhz_numeric(vec, 0, 1e-11)
            assert_close(_mpf(r.value), ref, 1e-11)

    def test_doubling_sanity(self):
        # a finer request must agree within the coarser reported bound
        coarse = mhz_numeric((1, 2), F(-1, 2), 1e-8)
        fine = mhz_numeric((1, 2), F(-1, 2), 1e-13)
        assert abs(_mpf(coarse.value) - _mpf(fine.value)) <= max(
            coarse.abs_err_bound, 1e-10
        )

    def test_depth_one_without_mpmath_zeta(self, monkeypatch):
        # mpmath only does arithmetic: neither the oracle, at every depth, nor
        # the LHS, whose constants come from its own head, asks for zeta or psi
        import mpmath
        from zetaform import verify

        def refuse(*args, **kwargs):
            raise AssertionError("the verifier called mpmath's zeta or psi")

        for name in ("zeta", "psi"):
            monkeypatch.setattr(mpmath, name, refuse)
            monkeypatch.setattr(mp, name, refuse)
        verify._mhz.cache_clear()
        r = mhz_numeric((3,), F(-1, 3), 1e-20)
        spec = SeriesSpec(X1 * X2, 1, F(-1, 3), (0, 0, 3))
        rep = verify_identity(spec, closed_form(spec), tol=1e-12, N=600)
        monkeypatch.undo()
        assert rep.passed, rep.message
        assert rep.lhs_estimate.abs_err_bound + rep.rhs_value.abs_err_bound <= 1e-12
        with mp.workdps(50):
            assert abs(_mpf(r.value) - zeta(3, mpf(2) / 3)) <= r.abs_err_bound <= 1e-20

    def test_rejects_nonconvergent(self):
        with pytest.raises(ValueError):
            mhz_numeric((2, 1), 0)

    @pytest.mark.parametrize("abs_err", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_abs_err(self, abs_err):
        cf = ClosedForm(F(1, 4), {((2,),): F(1, 2)}, F(0), 1)
        with pytest.raises(ValueError, match="abs_err"):
            mhz_numeric((2,), 0, abs_err)
        with pytest.raises(ValueError, match="abs_err"):
            closed_form_numeric(cf, abs_err)

    def test_least_positive_abs_err_splits(self):
        # 5e-324 split over three factors is 0.0 in floats: each factor is asked for the
        # least positive float instead, and the stated bound still covers the value
        cf = closed_form(SeriesSpec(X1 * X1 - X2, 1, 0, (0, 0, 2)))
        assert math.ulp(0) / (sum(map(len, cf.terms)) + 1) == 0
        got, reference = closed_form_numeric(cf, math.ulp(0)), closed_form_numeric(cf, 1e-40)
        assert abs(got.value - reference.value) <= F(got.abs_err_bound) + F(reference.abs_err_bound)
        assert 0 < got.abs_err_bound < 1e-320

    def test_desk_limits(self):
        with pytest.raises(DeskLimitError):
            mhz_numeric((1, 1, 1, 1, 1, 2), 0)
        with pytest.raises(DeskLimitError):
            mhz_numeric((9, 2), 0)


class TestClosedFormNumeric:
    def test_combination(self):
        cf = ClosedForm(F(1, 4), {((2,),): F(1, 2), ((2,), (3,)): -1}, F(0), 1)
        r = closed_form_numeric(cf, 1e-12)
        with mp.workdps(30):
            want = mpf(1) / 4 + zeta(2) / 2 - zeta(2) * zeta(3)
            assert_close(_mpf(r.value), want, 1e-15)

    @pytest.mark.parametrize(
        "poly, s",
        [(X1 * X1 - Polynomial.variable(2), (0, 2)), (Polynomial.variable(2), (1, 2))],
    )
    def test_bound_covers_rounding_near_minus_one(self, poly, s):
        # values near 2e6 and 1e18, summed exactly: the propagated oracle bounds cover
        # the error against a reference at 1e-50 and meet the abs_err asked for (rounding
        # the sum in mpf took x2's bound to 9.3e-15)
        cf = closed_form(SeriesSpec(poly, 1, F(-999999, 1000000), s))
        r = closed_form_numeric(cf, 1.25e-21)
        reference = closed_form_numeric(cf, 1e-50)
        with mp.workdps(80):
            err = abs(r.value - reference.value)
        assert err <= r.abs_err_bound + reference.abs_err_bound, (err, r.abs_err_bound)
        assert r.abs_err_bound <= 1.25e-21

    def test_product_bound_keeps_the_cross_term(self, monkeypatch):
        # each factor 2 within 1/2: the product can be 2.5^2, off by 2.25, which a
        # first-order bound, 2 * 2 * 1/2 = 2, misses
        monkeypatch.setattr(verify, "mhz_numeric", lambda *args: verify.NumericResult(F(2), 0.5))
        cf = ClosedForm(F(0), {((2,), (3,)): 1}, F(0), 1)
        r = closed_form_numeric(cf, 1e-10)
        assert r.value == 4
        assert r.abs_err_bound >= 2.5**2 - 2**2


class TestSeriesPartialSum:
    def test_single_term(self):
        spec = SeriesSpec(X1, 1, 0, (0, 2))
        assert series_partial_sum(spec, 1) == F(1, 4)

    def test_two_terms(self):
        spec = SeriesSpec(X1, 1, 0, (0, 2))
        assert series_partial_sum(spec, 2) == F(5, 12)

    def test_constant_numerator(self):
        spec = SeriesSpec(Polynomial.constant(1), 1, 0, (2,))
        assert series_partial_sum(spec, 3) == F(49, 36)

    def test_shifted(self):
        spec = SeriesSpec(X1, 1, F(-1, 2), (0, 1, 1))
        # n=1: H_1(-1/2) / ((3/2)(5/2)) = 2 * 4/15
        assert series_partial_sum(spec, 1) == F(8, 15)

    @pytest.mark.parametrize("N", [0, 10.0])
    def test_rejects_bad_n(self, N):
        spec = SeriesSpec(X1, 1, 0, (0, 2))
        with pytest.raises(ValueError, match="N"):
            series_partial_sum(spec, N)

    @pytest.mark.parametrize("N", [1, HEAD_BLOCK + 1])
    def test_zero_numerator(self, N):
        spec = SeriesSpec(Polynomial.constant(0), 1, F(-1, 3), (0, 2))
        assert series_partial_sum(spec, N) == 0
        assert _SeriesSummer(spec, WP).advance_to(N) == 0

    def test_monotone_increments(self):
        spec = SeriesSpec(X1 * X1, 1, 0, (0, 1, 1))
        values = [series_partial_sum(spec, n) for n in range(1, 9)]
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d > 0 for d in diffs)
        assert all(b < a for a, b in zip(diffs[2:], diffs[3:]))

    def test_checkpoint_sums_match_exact(self):
        spec = SeriesSpec(X1 * X1 - Polynomial.variable(2), 2, F(-1, 3), (1, 1))
        summer = _SeriesSummer(spec, WP)
        with mp.workdps(30):
            for n in [5, 10]:
                a = _mpf(summer.advance_to(n))
                exact = series_partial_sum(spec, n)
                assert abs(a - mpf(exact.numerator) / exact.denominator) < 1e-25


class TestFixedPointHead:
    """The raw-series head in fixed point against the exact Fraction sum."""

    SPECS = [
        SeriesSpec((X1 * X1 - Polynomial.variable(2)) * F(1, 2), 1, 0, (0, 0, 2)),
        SeriesSpec(Polynomial.constant(F(5, 3)), 2, F(-1, 2), (2,)),
        SeriesSpec(
            X1**3 * F(1, 6) - X1 * Polynomial.variable(2) * F(1, 2)
            + Polynomial.variable(3) * F(2, 3),
            2,
            F(-1, 3),
            (0, 1, 2),
        ),
        SeriesSpec(X1 * F(-3, 4) + Polynomial.variable(2) * F(7, 5), 1, F(-1, 3), (0, 0, 1, 1)),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: str(spec.s))
    def test_within_stated_bound_of_exact(self, spec):
        summer = _SeriesSummer(spec, WP)
        with mp.workdps(80):  # the head and its bound are exact: compare them far below the bound
            for n in [1, 2, 37, 600]:
                head = _mpf(summer.advance_to(n))
                exact = series_partial_sum(spec, n)
                bound = _mpf(summer.error_bound())
                assert abs(head - mpf(exact.numerator) / exact.denominator) <= bound, n
                assert bound < 1e-26

    def test_bound_sizes_the_summands_from_the_first_shift_present(self):
        # every summand is H_n H_n^(2) / (n+2+z)^3: sized from 1 + 2 + z, not from 1 + z = 1e-6
        # (which puts the bound near 5.5e-2), the bound is near 1e-20 at z near -1
        spec = SeriesSpec(X1 * X2, 1, F(-999999, 1000000), (0, 0, 3))
        summer = _SeriesSummer(spec, _width(1e-20)[0])
        head = summer.advance_to(600)
        bound = summer.error_bound()
        assert abs(head - series_partial_sum(spec, 600)) <= bound <= F(1, 10**18)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: str(spec.s))
    def test_resuming_is_bit_identical(self, spec):
        resumed = _SeriesSummer(spec, WP)
        resumed.advance_to(300)
        once = _SeriesSummer(spec, WP)
        assert resumed.advance_to(600) == once.advance_to(600)
        assert resumed.total == once.total


def per_term_head(spec, N, exact):
    """The raw-series head summed one term at a time: (total, harmonics).

    The term-by-term loop the block summer replaced, kept as its reference:
    H_i grows by div(q^r, x^r) at each n and each summand is one
    div(top, den), with div(a, b) = floor(a 2^wp / b) in fixed point or
    Fraction(a, b), at the summer's scales.
    """
    div = F if exact else (lambda a, b: (a << WP) // b)
    one, p, q, D = div(1, 1), spec.z.numerator, spec.z.denominator, spec.F.degree()
    L = math.lcm(*(c.denominator for c in spec.F.terms.values()))
    H, total = [0] * spec.F.max_variable(), 0
    for n in range(1, N + 1):
        x = q * n + p
        for i in range(len(H)):
            H[i] += div(q ** ((i + 1) * spec.m), x ** ((i + 1) * spec.m))
        top = sum(
            c.numerator * (L // c.denominator) * q ** sum(spec.s) * one ** (D - sum(exps))
            * math.prod(h**e for h, e in zip(H, exps))
            for exps, c in spec.F.terms.items()
        )
        den = one**D * math.prod((x + i * q) ** e for i, e in enumerate(spec.s))
        total += div(top, den)
    return total, H


def _spec_id(spec):
    return f"m{spec.m}-z{spec.z}-s{spec.s}"


class TestBlockHead:
    """The block summer takes the same floors as the term-by-term loop."""

    SPECS = [
        SeriesSpec(
            X1 * X1 * X2 * F(3, 5) - X2 * F(7, 2) + Polynomial.constant(1), 2, F(-2, 3), (0, 2, 0, 1)
        ),
        SeriesSpec(X1 * F(-1, 4) + X2 * X2, 1, F(-2, 3), (1, 0, 3)),
        SeriesSpec((X1 * X1 - X2) * F(1, 2), 1, 0, (0, 0, 2)),
        SeriesSpec(Polynomial.constant(F(-7, 3)), 2, F(-1, 2), (0, 2, 1)),  # D = 0: no shift
        SeriesSpec(X1, 1, 0, (4, 1, 1, 1, 1, 1)),  # coefficient 1: no multiply
        # D = 3 with a negative top coefficient: every numerator negative, shifted 2 wp bits
        SeriesSpec(X1**3 * F(-3, 2) + X1 * X2 * F(1, 3) + X2 * F(1, 4), 1, 0, (1, 0, 2)),
        SeriesSpec(X1 * X2 * F(2, 7) - X1 + Polynomial.constant(3), 3, F(-5, 7), (0, 1, 2)),
        # at n = 2 the numerator t < 0 is no multiple of 2^wp and P = 25 divides
        # floor(t / 2^wp) + 1: a shift that rounds t toward zero takes a different floor
        SeriesSpec(-X1 * X1 - X2, 1, F(-1, 2), (0, 2)),
    ]
    COUNTS = [1, 2, HEAD_BLOCK - 1, HEAD_BLOCK, HEAD_BLOCK + 1, 2 * HEAD_BLOCK + 3]

    @pytest.mark.parametrize("N", COUNTS)
    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_fixed_point_equals_per_term(self, spec, N):
        summer = _SeriesSummer(spec, WP)
        summer.advance_to(N)
        total, harmonics = per_term_head(spec, N, exact=False)
        assert (summer.total, summer.harmonics) == (total, harmonics)
        reference = _SeriesSummer(spec, WP)
        reference.n, reference.total, reference.harmonics = N, total, harmonics
        assert summer.error_bound() == reference.error_bound()

    @pytest.mark.parametrize("N", COUNTS)
    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_exact_equals_per_term(self, spec, N):
        L = math.lcm(*(c.denominator for c in spec.F.terms.values()))
        assert series_partial_sum(spec, N) == per_term_head(spec, N, exact=True)[0] / L

    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_uneven_resumption(self, spec):
        N = 2 * HEAD_BLOCK + 3
        summer = _SeriesSummer(spec, WP)
        summer.advance_to(HEAD_BLOCK - 1)
        summer.advance_to(N)
        assert (summer.total, summer.harmonics) == per_term_head(spec, N, exact=False)


class TestVerifyIdentity:
    def test_adjacent_pair_order_two(self):
        spec = SeriesSpec(X1, 2, 0, (1, 1))
        rep = verify_identity(spec, closed_form(spec), tol=1e-6, N=1000)
        assert rep.passed and rep.discrepancy < 1e-6

    def test_constant_case_half_shift(self):
        spec = SeriesSpec(X1, 1, F(-1, 2), (0, 1, 1))
        rep = verify_identity(spec, closed_form(spec), tol=1e-10, N=2000)
        assert rep.passed and rep.discrepancy < 1e-10

    @pytest.mark.parametrize("z", [0, F(-1, 2)])
    def test_zero_numerator(self, z):
        spec = SeriesSpec(X1 - X1, 1, z, (0, 2))
        rep = verify_identity(spec, closed_form(spec), tol=1e-10, N=600)
        assert rep.passed and rep.lhs_estimate.value == 0 and rep.rhs_value.value == 0

    def test_negative_control(self):
        spec = SeriesSpec(X1, 2, 0, (1, 1))
        bad = closed_form(spec) + ClosedForm(F(1, 1000), {}, F(0), 2)
        rep = verify_identity(spec, bad, tol=1e-6, N=1000)
        assert not rep.passed
        assert rep.discrepancy > 5e-4

    def test_metadata_mismatch(self):
        spec = SeriesSpec(X1, 2, 0, (1, 1))
        other = ClosedForm(F(0), {((3,),): 1}, F(-1, 2), 2)
        with pytest.raises(ValueError):
            verify_identity(spec, other)

    def test_reduction_functional_agreement(self):
        # the reduced combination applied through the engine matches the
        # raw series for a mixed index
        spec = SeriesSpec(X1, 1, 0, (2, 3, 2))
        rep = verify_identity(spec, closed_form(spec), tol=1e-7, N=500)
        assert rep.passed


def monomial_checkpoint_sums(comp, s, m, z, checkpoints):
    """Raw partial sums of a single monomial-basis series, no engine code."""
    zz = mpf(z.numerator) / z.denominator
    depth = len(comp)
    finite = [mpf(1)] + [mpf(0)] * depth  # finite[j] = zeta_n(a_1..a_j; z)
    total = mpf(0)
    out = []
    n = 0
    for M in checkpoints:
        while n < M:
            n += 1
            for j in range(depth, 0, -1):
                finite[j] += (n + zz) ** (-m * comp[j - 1]) * finite[j - 1]
            den = mpf(1)
            for i, e in enumerate(s):
                if e:
                    den *= (n + i + zz) ** e
            total += finite[depth] / den
        out.append(total)
    return out


def monomial_tail_bound(comp, s, m, z, N):
    """Upper bound on the terms n > N of a monomial-basis series.

    With x_i = 1/(i+z)^m and c = 1/(1+z), every x_i^a <= c^(m*a-1)/(i+z), so
    M_comp(n) <= prod_a H_n^(m*a)(z) <= c^(W-d) H_n(z)^d, W = m*sum(comp),
    d = len(comp); H_n(z) <= c + ln((n+z)/(1+z)); and prod (n+i+z)^s_i >=
    (n+z)^S, S = sum(s).  The majorant g(t) = (c + ln(t/(1+z)))^d / t^S
    decreases where S (c + ln(t/(1+z))) > d, for every case here from
    t = 400 on, so the terms past N sum to at most its integral from N+z.
    """
    zz = mpf(z.numerator) / z.denominator
    c = 1 / (1 + zz)
    d, S = len(comp), sum(s)
    g = lambda t: (c + log(t / (1 + zz))) ** d / t**S
    return c ** (m * sum(comp) - d) * quad(g, [N + zz, inf])


class TestReducedFunctionalOnMonomials:
    @pytest.mark.parametrize(
        "comp,s,m,z",
        [
            ((1, 2), (1, 2, 1), 1, F(-1, 3)),
            ((2, 1), (0, 2, 2), 1, F(0)),
            ((1, 1), (3, 1), 2, F(-1, 2)),
            ((3,), (1, 1, 1, 1), 1, F(0)),
        ],
    )
    def test_series_matches_closed_form(self, comp, s, m, z):
        from zetaform.engine import index_value

        cf = index_value(s, comp, m, z)
        rhs = closed_form_numeric(cf, 1e-9)
        with mp.workdps(30):
            checkpoints = [400 * 2**i for i in range(6)]
            sums = monomial_checkpoint_sums(comp, s, m, z, checkpoints)
            # every summand is positive: S_N <= S <= S_N + T(N)
            for N, partial in zip(checkpoints, sums):
                gap = _mpf(rhs.value) - partial
                tail = monomial_tail_bound(comp, s, m, z, N)
                assert -rhs.abs_err_bound <= gap <= tail + rhs.abs_err_bound, (N, gap, tail)
            assert tail < 1e-10


X3 = Polynomial.variable(3)
E2 = (X1 * X1 - X2) * F(1, 2)  # e_2 = (H^2 - H^(2)) / 2


class TestPairFamilyLowering:
    """(0^b, 1, 1), b >= 1, on basis elements whose last part exceeds 1.

    These reach the step's p = 1 split that lowers the last part, which no
    exact family test covers; the raw series certifies each closed form.
    """

    @pytest.mark.parametrize("z", [F(0), F(-1, 3), F(-1, 2)], ids=str)
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("poly", [X2, X1 * X3, X2 * X2 - X1], ids=["x2", "x1*x3", "x2^2-x1"])
    def test_certified_against_raw_series(self, poly, b, m, z):
        spec = SeriesSpec(poly, m, z, (0,) * b + (1, 1))
        rep = verify_identity(spec, closed_form(spec), tol=1e-12, N=600)
        assert rep.passed, rep.message
        assert rep.lhs_estimate.abs_err_bound + rep.rhs_value.abs_err_bound <= 1e-12


class TestSeriesLimit:
    """The LHS: a directly summed head plus the Euler-Maclaurin tail."""

    # (spec, closed form from depth-1 values only, 50-digit reference)
    REFERENCES = {
        "1/n^2": (
            SeriesSpec(Polynomial.constant(1), 1, 0, (2,)),
            ClosedForm(F(0), {((2,),): 1}, F(0), 1),
            lambda: zeta(2),
        ),
        "H_n/(n+1)^2": (
            SeriesSpec(X1, 1, 0, (0, 2)),
            ClosedForm(F(0), {((3,),): 1}, F(0), 1),
            lambda: zeta(3),
        ),
        "H_n/n^3": (
            SeriesSpec(X1, 1, 0, (3,)),
            ClosedForm(F(0), {((4,),): F(5, 4)}, F(0), 1),
            lambda: zeta(4) * 5 / 4,
        ),
        # the whole tail, near 201^-9/9, folds into the majorant at tol 1e-8 and 1e-12
        "1/n^10": (
            SeriesSpec(Polynomial.constant(1), 1, 0, (10,)),
            ClosedForm(F(0), {((10,),): 1}, F(0), 1),
            lambda: zeta(10),
        ),
        # telescopes: sum H_n(z)/((n+1+z)(n+2+z)) = 1/(1+z)
        "H_n(-1/2)/((n+1/2)(n+3/2))": (
            SeriesSpec(X1, 1, F(-1, 2), (0, 1, 1)),
            ClosedForm(F(2), {}, F(-1, 2), 1),
            lambda: mpf(2),
        ),
    }

    @pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-20])
    @pytest.mark.parametrize("label", sorted(REFERENCES))
    def test_bound_covers_true_error(self, label, tol):
        spec, cf, reference = self.REFERENCES[label]
        rep = verify_identity(spec, cf, tol=tol, N=200)
        lhs = rep.lhs_estimate
        with mp.workdps(50):
            err = abs(_mpf(lhs.value) - reference())
        assert err <= lhs.abs_err_bound, (float(err), lhs.abs_err_bound)
        assert rep.passed and lhs.abs_err_bound + rep.rhs_value.abs_err_bound <= tol

    def test_expansion_with_skipped_orders(self):
        # the stuffle sum_n H_n^(r)/n^s + H_n^(s)/n^r = zeta(r)zeta(s) + zeta(r+s):
        # H^(6) expands as zeta(6) - x^-5/5 + ..., with no orders 1..4, and the
        # x^-7/7 and -x^-8/2 of H^(8) lie past a low expansion order
        for r, s, total in [
            (6, 2, lambda: zeta(2) * zeta(6) + zeta(8)),
            (8, 2, lambda: zeta(2) * zeta(8) + zeta(10)),
        ]:
            gap = SeriesSpec(Polynomial.variable(r // s), s, 0, (s,))
            other = SeriesSpec(X1, s, 0, (r,))
            reps = [
                verify_identity(spec, closed_form(spec), tol=1e-12, N=100)
                for spec in (gap, other)
            ]
            for rep in reps:
                assert rep.passed
                assert rep.lhs_estimate.abs_err_bound + rep.rhs_value.abs_err_bound <= 1e-12
            with mp.workdps(50):
                err = abs(sum(_mpf(rep.lhs_estimate.value) for rep in reps) - total())
            assert err <= sum(rep.lhs_estimate.abs_err_bound for rep in reps), r

    @pytest.mark.parametrize("tol", [1e-8, 1e-20])
    @pytest.mark.parametrize("label", sorted(REFERENCES))
    def test_bound_is_the_sum_of_its_stated_parts(self, label, tol, monkeypatch):
        # the majorant past the kept orders, the constants' drift, the kept orders'
        # Euler-Maclaurin bounds and the head's fixed-point bound, rounded up once
        calls = []

        def record(name, real):
            def wrapped(*args):
                calls.append((name, args, out := real(*args)))
                return out

            return wrapped

        monkeypatch.setattr(verify, "_tail_order", record("tail", verify._tail_order))
        monkeypatch.setattr(verify, "_summand_expansion", record("model", verify._summand_expansion))
        monkeypatch.setattr(_SeriesSummer, "constants", record("constants", _SeriesSummer.constants))
        monkeypatch.setattr(_SeriesSummer, "error_bound", record("head", _SeriesSummer.error_bound))
        spec, D = self.REFERENCES[label][0], self.REFERENCES[label][0].F.degree()
        lhs = verify._series_limit(spec, 200, tol)[0]
        # the last tail point's calls: its constants, D + 1 tails of ln^d(x)/x^S, the
        # expansions tried, the one tail of the kept orders' terms, the head's bound
        at = max(i for i, (name, _, _) in enumerate(calls) if name == "constants")
        (_, (summer, a), (constants, error)), rest = calls[at], calls[at + 1 :]
        wp, S = summer.wp, sum(spec.s)
        tails = [t + r for _, _, (t, r) in rest[: D + 1]]
        den, coeffs = [out for name, _, out in rest if name == "model"][-1]
        ((kept_model, (_, kept)),) = [
            (args[0], out) for name, args, out in rest[D + 1 :] if name == "tail"
        ]
        (head,) = [out for name, _, out in rest if name == "head"]
        assert kept_model[0] == den  # the kept terms are the model's, keyed by (S + j, d)
        assert all(coeffs[q - S, d] == c for (q, d), c in kept_model[1].items())
        past = sum(
            abs(c) * tails[d] / (den * a**j)
            for (j, d), c in coeffs.items()
            if (S + j, d) not in kept_model[1]
        )
        size = spec.F.evaluate([F(abs(c) + 1, 1 << wp) + 1 for c in constants], abs)
        spread = sum(math.comb(D, d) * t for d, t in enumerate(tails))
        drift = math.ceil(D * error * size * spread / (1 << wp))
        exact = F(math.ceil(past) + drift + kept, 1 << wp) + head
        stated = lhs.abs_err_bound
        assert F(stated) >= exact > F(math.nextafter(stated, 0)), (stated, float(exact))

    @pytest.mark.parametrize(
        "spec",
        [
            SeriesSpec(E2, 1, 0, (0, 0, 2)),
            SeriesSpec(X1 * X1 - X2, 2, F(-1, 3), (1, 1)),
            SeriesSpec(X1 * X1 * X1, 1, F(-1, 2), (0, 1, 0, 1)),
        ],
    )
    def test_n_and_2n_agree_within_bounds(self, spec):
        cf = closed_form(spec)
        one = verify_identity(spec, cf, tol=1e-10, N=300)
        two = verify_identity(spec, cf, tol=1e-10, N=600)
        assert (one.n_used, two.n_used) == (300, 600)
        with mp.workdps(30):
            gap = abs(one.lhs_estimate.value - two.lhs_estimate.value)
        assert gap <= one.lhs_estimate.abs_err_bound + two.lhs_estimate.abs_err_bound

    def test_e2_over_shifted_square_is_certified(self):
        spec = SeriesSpec(E2, 1, 0, (0, 0, 2))
        rep = verify_identity(spec, closed_form(spec), tol=1e-8, N=10000)
        assert rep.passed and rep.n_used == 10000
        assert rep.lhs_estimate.abs_err_bound + rep.rhs_value.abs_err_bound <= 1e-8

    def test_offset_of_ten_tol_fails(self):
        # an offset of 10 * tol fails only if the LHS bound stays well below it
        spec = SeriesSpec(E2, 1, 0, (0, 0, 2))
        bad = closed_form(spec) + ClosedForm(F(1, 10**7), {}, F(0), 1)
        rep = verify_identity(spec, bad, tol=1e-8, N=10000)
        assert not rep.passed
        assert "exceeds budget" in rep.message

    def test_head_floor(self):
        spec = SeriesSpec(X1, 2, 0, (1, 1))
        rep = verify_identity(spec, closed_form(spec), tol=1e-8, N=1)
        assert rep.passed and rep.n_used == 44  # 2 * (20 + len(s))

    def test_head_raised_for_tight_tolerance(self, monkeypatch):
        # with a head floor of 14, A = 14 + 2/3 and the Euler-Maclaurin terms bottom
        # out near e^(-2 pi A) ~ 1e-40, above the 52-digit target: the head must grow
        monkeypatch.setattr(verify, "LHS_HEAD_FLOOR", 5)
        spec = SeriesSpec(X1 * X1, 1, F(-1, 3), (0, 2))
        start = time.perf_counter()
        rep = verify_identity(spec, closed_form(spec), tol=1e-40, N=1)
        assert time.perf_counter() - start < 20  # about 0.1 s on a 2-vCPU VM
        assert rep.passed and rep.n_used > 14
        assert rep.lhs_estimate.abs_err_bound + rep.rhs_value.abs_err_bound <= 1e-40

    def test_constants_drift_does_not_grow_the_head(self):
        # near z = -1 the constants are near 1e18, and their drift alone is far above
        # tol/1000 at any head length: it goes into the bound, and the head stays N
        spec = SeriesSpec(X1 * X2, 1, F(-999999, 1000000), (0, 0, 3))
        start = time.perf_counter()
        rep = verify_identity(spec, closed_form(spec), tol=1e-20, N=600)
        assert time.perf_counter() - start < 20  # about 0.2 s on a 2-vCPU VM
        assert rep.passed and rep.n_used == 600
        assert rep.lhs_estimate.abs_err_bound >= rep.discrepancy

    @pytest.mark.parametrize("N", [0, -3, 1e4, 600.0, 2.5])
    def test_rejects_nonpositive_n(self, N):
        spec = SeriesSpec(X1, 2, 0, (1, 1))
        with pytest.raises(ValueError):
            verify_identity(spec, closed_form(spec), N=N)

    def test_head_within_desk_cap(self):
        from zetaform.verify import DESK_MAX_TERMS

        spec = SeriesSpec(X1, 2, 0, (1, 1))
        with pytest.raises(DeskLimitError):
            verify_identity(spec, closed_form(spec), N=DESK_MAX_TERMS + 1)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("inf"), float("nan")])
    def test_rejects_bad_tolerance(self, tol):
        spec = SeriesSpec(X1, 2, 0, (1, 1))
        with pytest.raises(ValueError):
            verify_identity(spec, closed_form(spec), tol=tol, N=100)

    def test_least_positive_tolerance_verifies(self):
        # tol / 8 underflows to 0.0: the RHS is asked for the least positive float instead
        spec = SeriesSpec(X1, 1, 0, (0, 2))
        rep = verify_identity(spec, closed_form(spec), tol=math.ulp(0), N=600)
        assert rep.passed, rep.message


class TestTaylorModel:
    """Each truncated expansion's majorant bounds what it leaves out, for every x >= A."""

    @staticmethod
    def at(expansion, x, order):
        """(sum of the terms through order, the majorant) at x."""
        den, expansion = expansion
        terms = sum(c * log(x) ** d / x**j for (j, d), c in expansion.items() if j <= order)
        rest = sum(c * log(x) ** d for (j, d), c in expansion.items() if j > order)
        return terms / den, rest / den / x ** (order + 1)

    @staticmethod
    def model(poly, order, A):
        """poly through order, the terms past it folded at A into its majorant, in integers."""
        den = math.lcm(*(F(c).denominator for c in poly.values())) << WP
        out = {key: int(c * den) for key, c in poly.items() if key[0] <= order}
        for (j, d), c in poly.items():
            if j > order:
                fold = math.ceil(abs(c) * den * A ** (order + 1 - j))
                out[order + 1, d] = out.get((order + 1, d), 0) + fold
        return den, out

    @pytest.mark.parametrize("order", [1, 4, 9])
    def test_product_of_polynomials(self, order):
        # coefficients growing like (2A)^j make the pairs far past order the largest
        # at x = A, so every dropped pair must reach the majorant
        A = F(131, 3)
        grow = {(j, j % 2): (-2 * A) ** j for j in range(order + 5)}
        mixed = {(j, j // 3 % 2): F((-1) ** j * 7, j + 1) for j in range(order + 3)}
        with mp.workdps(60):
            for a, b in [(grow, grow), (grow, mixed), (mixed, mixed)]:
                ma, mb = self.model(a, order, A), self.model(b, order, A)
                product = verify._series_mul(ma, mb, order, A)
                for x in [_mpf(A), _mpf(A) * 3 / 2, _mpf(A) * 10, mpf(10) ** 6]:
                    exact = self.at((1, a), x, len(a))[0] * self.at((1, b), x, len(b))[0]
                    terms, rest = self.at(product, x, order)
                    assert abs(exact - terms) <= rest * (1 + mpf(10) ** -40), (order, x)

    @pytest.mark.parametrize("order", [2, 4, 8])
    @pytest.mark.parametrize(
        "poly, m, z, s",
        [
            (X1 * X1 - X2, 1, F(-1, 3), (1, 2, 1)),
            (Polynomial.variable(4), 2, F(0), (2,)),  # H^(8): nothing kept below order 7
            (X1 * X1 * X1, 1, F(-1, 2), (0, 1, 0, 3)),
        ],
    )
    def test_summand(self, poly, m, z, s, order):
        # the raw summand x^S F(H..)/prod (x+i)^s_i against its expansion from A on
        spec, A = SeriesSpec(poly, m, z, s), F(43) + z
        with mp.workdps(60):
            orders = [r * m for r in range(1, poly.max_variable() + 1)]
            shift = 1 + _mpf(z)
            constants = [-mp.psi(0, shift) if r == 1 else zeta(r, shift) for r in orders]
            constants = [int(mp.ldexp(c, WP)) for c in constants]
            coeffs = verify._summand_expansion(spec, order, constants, A, WP)
            for n in [43, 44, 86, 430]:
                x = n + _mpf(z)
                harmonics = [mp.fsum((k + _mpf(z)) ** -r for k in range(1, n + 1)) for r in orders]
                exact = poly.evaluate(harmonics, _mpf)
                for i, e in enumerate(s):
                    exact *= (x / (x + i)) ** e
                terms, rest = self.at(coeffs, x, order)
                assert abs(exact - terms) <= rest, (order, n, exact - terms, rest)


class TestGoldenCorpusBound:
    """The stated LHS bound against the closed form, over the golden rendering corpus."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-20, 1e-30])
    @pytest.mark.parametrize("cid, argv", cases(), ids=[cid for cid, _ in cases()])
    def test_bound_covers_closed_form(self, cid, argv, tol):
        spec = cli.parse_request(list(argv)).spec
        cf = closed_form(spec)
        rep = verify_identity(spec, cf, tol=tol, N=600)
        lhs = rep.lhs_estimate
        reference = closed_form_numeric(cf, tol * 1e-15)
        err = abs(lhs.value - reference.value) + F(reference.abs_err_bound)  # exact
        assert err <= lhs.abs_err_bound, (float(err), lhs.abs_err_bound)
        assert lhs.abs_err_bound + rep.rhs_value.abs_err_bound <= tol


class TestEulerMaclaurinTail:
    """Each ln^d(x)/x^q tail against mpmath's Hurwitz zeta derivatives."""

    @pytest.mark.parametrize("tol", [1e-18, 1e-33, 1e-60], ids=["30", "45", "72"])  # digits
    @pytest.mark.parametrize("z", [F(0), F(-1, 2), F(-1, 3)])
    @pytest.mark.parametrize("base", [21, 301])
    def test_within_stated_remainder(self, base, z, tol):
        # tiny and huge coefficients pin each term's fixed-point width to its size;
        # the terms bottom out near e^(-2 pi a) of the sum, so an absolute target
        # ulp / |c| below that is out of reach (at a = 21: c = 1e30, or 72 digits)
        (wp, _), a = _width(tol), base + z
        ulp = mp.ldexp(1, GUARD_BITS - wp)  # above the tail's target, 2^(GUARD_BITS-1) units
        # references 170 bits (50 digits) finer: mpmath's zeta(q, a) is good to about
        # 10^-(dps+10) absolute, and c = 1e30 scales values near 1e-31: 20 digits, plus 30 for c
        with mp.workprec(wp + 170):
            # q = 1: the regularized sum of 1/x from a is -psi(a)
            for q, d in [(1, 0), *itertools.product(range(2, 14), range(5))]:
                f_sum = -mp.psi(0, a) if q == 1 else (-1) ** d * zeta(q, a, d)
                for den, num in [(1, 1), (10**30, 1), (1, 10**30)]:
                    c = mpf(num) / den
                    value, remainder = _tail_order((den, {(q, d): num}), a, wp)
                    value = mp.ldexp(value, -wp)
                    remainder = inf if remainder is None else mp.ldexp(remainder, -wp)
                    if abs(c) / ulp > mp.exp(2 * mp.pi * a):
                        assert remainder == inf, (c, q, d)
                        continue
                    assert remainder <= ulp
                    err = abs(value - c * f_sum)
                    assert err <= remainder + 8 * ulp * abs(c * f_sum), (c, q, d, err, remainder)

    def test_remainder_is_infinite_when_a_is_too_small(self):
        # the remainder bound bottoms out near e^(-2 pi a) ~ 1e-6 at a = 2
        value, remainder = _tail_order((1, {(2, 0): 1}), F(2), WP)
        assert remainder is None
        assert abs(mp.ldexp(value, -WP) - zeta(2, 2)) < 1e-3


class TestShiftNearMinusOne:
    # the weight (1+z)^-s_0 makes values large as z -> -1: their bounds must
    # grow with them, and the shift 1 + z must not be rounded after the fact
    @pytest.mark.parametrize(
        "z", [F(-99, 100), F(-9999, 10000), F(0), F(-1, 2), F(-1, 3), F(-2, 3)]
    )
    def test_values_within_bounds(self, z):
        for vec in [(3, 3), (1, 1, 1, 2), (3, 1, 1, 2)]:
            r = mhz_numeric(vec, z, 1e-30)
            with mp.workdps(80):
                reference = mhz_numeric(vec, z, 1e-70).value
                assert abs(r.value - reference) <= r.abs_err_bound, (vec, r)
        # depth 1 against mpmath at the exact shift and at least 80 digits;
        # the bound is never wider than 4 ulps of the value at the request's
        # precision, its width less the guard bits
        for s, abs_err in itertools.product(range(2, 11), [1e-12, 1e-30, 1e-60]):
            r, (wp, _) = mhz_numeric((s,), z, abs_err), _width(abs_err)
            with mp.workprec(max(270, wp + 70)):
                reference = zeta(s, mp.mpq(*(1 + z).as_integer_ratio()))
                assert abs(_mpf(r.value) - reference) <= r.abs_err_bound, (s, abs_err, r)
            assert r.abs_err_bound <= abs(r.value) * F(4, 1 << (wp - GUARD_BITS)), (s, abs_err, r)

    def test_lhs_constants_at_exact_shift(self):
        # the constants of H^(r) in the LHS expansion, zeta(r, 1+z) and -psi(1+z),
        # from the head at the exact shift: within 4 ulps of mpmath's
        z = F(-999999, 1000000)
        for r in (1, 2, 3):
            summer = _SeriesSummer(SeriesSpec(X1, r, z, (2,)), WP)
            summer.advance_to(44)
            (value,), _ = summer.constants(45 + z)
            with mp.workdps(30):
                ulp = mp.ldexp(1, -mp.prec)
            with mp.workdps(60):
                value = mp.ldexp(value, -summer.wp)  # exact at 60 digits
                shift = mp.mpq(1, 1000000)
                reference = -mp.psi(0, shift) if r == 1 else zeta(r, shift)
                assert abs(value - reference) <= 4 * ulp * abs(reference), r


class TestLhsConstants:
    """The LHS constants from the raw series' own head, against mpmath."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-60])
    @pytest.mark.parametrize("M", [44, 600, 10000])
    @pytest.mark.parametrize(
        "z", [F(0), F(-1, 2), F(-1, 3), F(-2, 3), F(-1, 7), F(-999999, 1000000)]
    )
    def test_within_stated_error(self, z, M, tol):
        # x6 keeps H^(1), ..., H^(6) in the head
        summer = _SeriesSummer(SeriesSpec(Polynomial.variable(6), 1, z, (2,)), _width(tol)[0])
        summer.advance_to(M)
        constants, error = summer.constants(M + 1 + z)
        assert len(constants) == 6 and error < inf
        # the error is absolute, in units of 2^-wp: near z = -1 a constant near 1e24 needs
        # 60 more digits (200 bits) than the head for a reference as fine as that error
        with mp.workprec(summer.wp + 200):
            error = mp.ldexp(error, -summer.wp)  # exact at this precision
            shift = mp.mpq(*(1 + z).as_integer_ratio())
            for r, value in enumerate((mp.ldexp(c, -summer.wp) for c in constants), 1):
                reference = -mp.psi(0, shift) if r == 1 else zeta(r, shift)
                assert abs(value - reference) <= error, (r, value - reference, error)

    @pytest.mark.parametrize("r", [2, 4, 6])
    def test_one_constant_carries_the_head_floors(self, r):
        # H^(r) alone at M = 10000: the tail's bound is a few dozen units of 2^-wp there,
        # while the head's M floors lose about M/2, so the error bound must carry them
        z = F(-1, 3)
        summer = _SeriesSummer(SeriesSpec(X1, r, z, (2,)), WP)
        summer.advance_to(10000)
        (value,), error = summer.constants(10001 + z)
        with mp.workdps(90):
            value, error = mp.ldexp(value, -summer.wp), mp.ldexp(error, -summer.wp)
            assert abs(value - zeta(r, mp.mpq(2, 3))) <= error, r


class TestLazyVerifier:
    def test_verifier_runs_with_mpmath_unimportable(self):
        # the package needs no mpmath: with its import blocked, a bare import in a fresh
        # interpreter loads no submodule, and each submodule name loads its module; the exact
        # pipeline loads neither the verifier, the parser nor dataclasses (with the inspect
        # it imports), the parser loads on first use, and the verifier certifies from the API
        # and from the command line (the CLI loads no argparse), after which dataclasses and
        # inspect are still not loaded; last, every public name is its module's own object,
        # listed by dir and bound by *
        import zetaform

        code = (
            "import gc\n"
            "import sys\n"
            "sys.modules['mpmath'] = None\n"
            "before = set(sys.modules)\n"
            "import zetaform\n"
            "loaded = sorted(k for k in sys.modules if k.startswith('zetaform.'))\n"
            "assert not loaded, f'a bare import loaded {loaded}'\n"
            "def loads(*names):\n"
            "    for m in names:\n"
            "        assert getattr(zetaform, m) is sys.modules['zetaform.' + m], m\n"
            "loads('qsym', 'reducer', 'engine')\n"
            "x1 = zetaform.Polynomial.variable(1)\n"
            "spec = zetaform.SeriesSpec(x1, 1, 0, (4, 1, 1, 1, 1, 1))\n"
            "cf = zetaform.closed_form(spec)\n"
            "assert gc.isenabled(), 'closed_form left the collector off'\n"
            "zetaform.default_reduction_table()\n"
            "assert 'zetaform.verify' not in sys.modules, 'the exact path loaded the verifier'\n"
            "loaded = set(sys.modules) - before\n"
            "unwanted = {'dataclasses', 'inspect', 'zetaform.expr', 'zetaform.verify'}\n"
            "assert not loaded & unwanted, f'the exact path loaded {sorted(loaded & unwanted)}'\n"
            "loads('expr', 'verify')\n"
            "assert zetaform.parse_polynomial('x1') == x1\n"
            "report = zetaform.verify_identity(spec, cf, tol=1e-10, N=600)\n"
            "assert report.passed, report.message\n"
            "assert not hasattr(zetaform, 'no_such_name')\n"
            "from zetaform import cli\n"
            "assert 'argparse' not in sys.modules, 'the CLI loaded argparse'\n"
            "flags = '--F x1 --z 0 --binomial 4,5 --verify 600 --format json'\n"
            "code = cli.main(flags.split())\n"
            "left = {'dataclasses', 'inspect'} & set(sys.modules)\n"
            "assert not left, f'the package loaded {sorted(left)}'\n"
            "modules = [zetaform.qsym, zetaform.reducer, zetaform.engine, zetaform.expr, zetaform.verify]\n"
            "for name in zetaform.__all__:\n"
            "    value = getattr(zetaform, name)\n"
            "    bound = {id(vars(m)[name]) for m in modules if name in vars(m)}\n"
            "    assert bound == {id(value)}, name\n"
            "    home = getattr(value, '__module__', '')\n"
            "    assert not home.startswith('zetaform') or vars(sys.modules[home])[name] is value\n"
            "assert not set(zetaform.__all__) - set(dir(zetaform)), 'dir(zetaform) misses names'\n"
            "star = {}\n"
            "exec('from zetaform import *', star)\n"
            "assert set(star) - {'__builtins__'} == set(zetaform.__all__), 'import * differs'\n"
            "assert len(zetaform.__all__) == 42\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(zetaform.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verification"]["passed"]


def _reference_width(dps):
    """The width rule's one copy in the tests: (wp, cutoff) at dps decimal digits."""
    return dps_to_prec(dps) + GUARD_BITS, max(MHZ_CUTOFF, 6 * dps // 5)


class TestMhzMemo:
    def test_digits_do_not_depend_on_the_ambient_precision(self):
        # a caller's mpmath context must not change the digits a tolerance asks for
        for abs_err, digits in [(1e-5, 30), (1e-22, 34), (1e-25, 37), (1e-30, 42), (1e-60, 72)]:
            assert _width(abs_err) == _reference_width(digits)
            with mp.workdps(60):
                assert _width(abs_err) == _reference_width(digits)

    def test_value_does_not_depend_on_earlier_requests(self):
        from zetaform import verify

        verify._mhz.cache_clear()
        alone = mhz_numeric((1, 2), F(-1, 2), 1e-12)
        verify._mhz.cache_clear()
        tight = mhz_numeric((1, 2), F(-1, 2), 1e-60)
        after = mhz_numeric((1, 2), F(-1, 2), 1e-12)
        assert tight.abs_err_bound <= 1e-60
        assert after.value == alone.value
        assert after.abs_err_bound == alone.abs_err_bound

    @pytest.mark.parametrize("abs_err", [1e-60, 1e-120, 1e-200])
    def test_high_precision_values_at_z0(self, abs_err):
        # zeta(1,2) = zeta(3), zeta(1,1,2) = zeta(4), zeta(1,1,1,2) = zeta(5)
        # (duality) and zeta(2,2) = (zeta(2)^2 - zeta(4)) / 2 = pi^4 / 120
        references = {
            (1, 2): lambda: zeta(3),
            (1, 1, 2): lambda: zeta(4),
            (2, 2): lambda: pi**4 / 120,
            (1, 1, 1, 2): lambda: zeta(5),
        }
        for vec, reference in references.items():
            r = mhz_numeric(vec, 0, abs_err)
            assert r.abs_err_bound <= abs_err, vec
            with mp.workdps(round(-math.log10(abs_err)) + 30):
                err = abs(_mpf(r.value) - reference())
            assert err <= r.abs_err_bound, (vec, err, r.abs_err_bound)


class TestWorkingWidth:
    """Each call's width follows its own tolerance, never mpmath's context."""

    def test_width_is_the_rule_at_every_float_tolerance(self):
        # dps = max(30, floor(-log10 tol) + 12) with the log in double precision, where
        # 10.0**-313 and 10.0**-317, subnormal, read a digit short: every float 10^-e
        for e in range(324):
            dps = max(30, e - (e in (313, 317)) + 12)
            assert _width(10.0**-e) == _reference_width(dps), e

    @pytest.mark.parametrize("abs_err", [1e-8, 1e-20, 1e-40])
    def test_values_are_dyadic_at_the_width(self, abs_err):
        one = 1 << _width(abs_err)[0]
        for vec, z in itertools.product(
            [(2,), (1, 2), (2, 1, 3), (1, 1, 1, 2)], [F(0), F(-1, 2), F(-1, 3), F(-999999, 1000000)]
        ):
            den = mhz_numeric(vec, z, abs_err).value.denominator
            assert den & (den - 1) == 0 and one % den == 0, (vec, z, den)

    @pytest.mark.parametrize("abs_err", [1e-8, 1e-20, 1e-40])
    def test_bound_is_mhz_once_rounded_up_and_nothing_more(self, abs_err):
        # the least float at or above _mhz_once's exact bound: no floor on top, and
        # no half ulp lost to rounding to nearest
        wp, cutoff = _width(abs_err)
        for vec, z in itertools.product(
            [(2,), (1, 2), (2, 1, 3), (1, 1, 1, 2), (3, 3)], [F(0), F(-1, 2), F(-1, 3)]
        ):
            exact = F(_mhz_once(vec, z, cutoff, wp)[1], 1 << wp)
            stated = mhz_numeric(vec, z, abs_err).abs_err_bound
            assert F(stated) >= exact > F(math.nextafter(stated, 0)), (vec, z, stated, exact)

    def test_results_do_not_depend_on_the_ambient_precision(self):
        spec = SeriesSpec(X1 * X2, 1, F(-1, 3), (0, 0, 3))
        reports = []
        for dps in (15, 90):
            verify._mhz.cache_clear()
            with mp.workdps(dps):
                rep = verify_identity(spec, closed_form(spec), tol=1e-20, N=600)
            reports.append(rep)
        assert reports[0] == reports[1]


class TestSumTheorem:
    # depth k < w: weight w has no admissible vector of depth w or more
    @pytest.mark.parametrize(
        "w, k", [(w, k) for w in range(3, 8) for k in range(2, 6) if k < w]
    )
    def test_admissible_vectors_sum_to_zeta_w(self, w, k):
        # sum of zeta(s) over s of weight w, depth k, last entry >= 2 is
        # zeta(w); mpmath's zeta(w) is an independent reference
        vecs = [
            c[:-1] + (c[-1] + 1,) for c in itertools.product(range(1, w), repeat=k)
            if sum(c) == w - 1
        ]
        results = [mhz_numeric(v, 0, 1e-20) for v in vecs]
        assert all(r.abs_err_bound <= 1e-20 for r in results)
        with mp.workdps(40):
            total = mp.fsum(_mpf(r.value) for r in results)
            err = abs(total - zeta(w))
        assert err <= sum(r.abs_err_bound for r in results), (w, k, err)


def _truncated(den, nums, x):
    """sum_{p <= top} nums[p] / (den x^p), exactly: a level expansion without its majorant."""
    acc, X, q = 0, x.numerator, x.denominator
    for p, c in enumerate(nums[:-1]):
        acc = acc * X + c * q**p
    return F(acc, den * X ** (len(nums) - 2))


class TestLevelExpansion:
    VECTORS = [(1, 2), (2, 1, 3), (1, 1, 1, 1, 2), (3, 1, 1, 2)]

    @pytest.mark.parametrize("z", [F(0), F(-1, 2), F(-1, 3)])
    def test_cutoffs_20_and_40_agree(self, z):
        # with exact level expansions only the omitted orders differ, and at
        # 60 digits those are far below 1e-40; one wrong coefficient is not
        for vec in self.VECTORS:
            delta = abs(_mhz_once(vec, z, 20, WP)[0] - _mhz_once(vec, z, 40, WP)[0])
            assert F(delta, 1 << WP) < F(1, 10**40), (vec, delta)

    @pytest.mark.parametrize("z", [F(0), F(-1, 2), F(-1, 3), F(-999999, 1000000)])
    def test_cutoffs_c_and_2c_agree_within_stated_bounds(self, z):
        # a wrong coefficient at order p moves the value at c by 2^p times more than at 2c
        for tol in (1e-18, 1e-60):
            wp, c = _width(tol)
            for vec in self.VECTORS:
                (a, bound_a), (b, bound_b) = _mhz_once(vec, z, c, wp), _mhz_once(vec, z, 2 * c, wp)
                assert abs(a - b) <= bound_a + bound_b, (vec, tol, a - b)

    @pytest.mark.parametrize("z", [F(0), F(-1, 3), F(-999999, 1000000), F(-1, 2)])
    def test_bound_carries_a_short_expansions_rest(self, z, monkeypatch):
        # the order trades only the level rest against work: through order 10 the rest, near
        # c^-11 at the cutoff c, is far above the fixed-point error and the bound must carry
        # it; through dps + 20, the order before the rule, it is far below.  Either way the
        # value differs from the rule's by at most both stated bounds
        for tol, dps in ((1e-18, 30), (1e-32, 44), (1e-60, 72), (1e-100, 112)):
            wp, c = _width(tol)
            references = {vec: _mhz_once(vec, z, c, wp) for vec in self.VECTORS}
            for order in (10, dps + 20):
                with monkeypatch.context() as m:
                    m.setattr(verify, "_level_order", lambda wp, cutoff, top=order: top)
                    for vec, (reference, reference_bound) in references.items():
                        value, bound = _mhz_once(vec, z, c, wp)
                        assert abs(value - reference) <= bound + reference_bound, (vec, order)

    @pytest.mark.parametrize("top", [10, 29, 59])
    def test_rest_is_the_sum_of_its_stated_parts(self, top):
        # U / den: |c| times each zeta tail's past folded at x0 = MHZ_CUTOFF - 1, plus the inner
        # level's U times x0^(1-s) / (s + top); above that only two ceilings, of the inner term
        # over the unreduced denominator and of the sum over den
        x0 = MHZ_CUTOFF - 1
        vectors = [
            v for k in range(1, 6) for v in itertools.product((1, 2, 3), repeat=k)
            if v[-1] > 1 and sum(v) <= 10
        ]
        for vec in vectors:
            s, (den, nums) = vec[0], _level_expansion(vec, top)
            inner_den, inner = _level_expansion(vec[1:], top) if len(vec) > 1 else (1, (1, 0))
            tails = [(F(c, inner_den), _zeta_tail(s + q, top)) for q, c in enumerate(inner[:-1]) if c]
            exact = F(inner[-1], inner_den) * F(x0) ** (1 - s) / (s + top) + sum(
                abs(c) * F(u, d) / x0**i for c, (d, _, past) in tails for i, u in enumerate(past)
            )
            lcm = math.lcm(*(d for _, (d, _, _) in tails))
            ceilings = F(1, inner_den * lcm * x0**s) + F(1, den)
            assert exact <= F(nums[-1], den) < exact + ceilings, vec

    @pytest.mark.parametrize("tol", [1e-18, 1e-60], ids=["30", "72"])  # digits
    @pytest.mark.parametrize("z", [F(0), F(-1, 2), F(-999999, 1000000)])
    def test_bound_is_the_recurrence_of_its_stated_parts(self, tol, z):
        # E_j = e_j + ceil(W_j E_(j+1) / 2^wp), E_k = 0, in units of 2^-wp: e_j the level's
        # stated rest at x = c + z, a ceiling, plus 1 + 3c floors; W_j its floored weights, each
        # one unit up, over t >= 2 for an inner level (read at n >= 1) and t >= 1 for the outermost
        wp, c = _width(tol)
        top = _level_order(wp, c)
        vectors = [
            v for k in range(1, 6) for v in itertools.product((1, 2, 3), repeat=k)
            if v[-1] > 1 and sum(v) <= 10
        ]
        for vec in vectors:
            bound = 0
            for j in range(len(vec) - 1, -1, -1):
                den, nums = _level_expansion(vec[j:], top)
                rest = math.ceil(F(nums[-1] << wp, den) / (c + z) ** (top + 1))
                ts = range(2 if j else 1, c + 1)
                W = sum(math.floor((1 << wp) / (t + z) ** vec[j]) + 1 for t in ts)
                bound = rest + 1 + 3 * c + math.ceil(F(W * bound, 1 << wp))
            assert _mhz_once(vec, z, c, wp)[1] == bound, vec

    def test_deep_vector_within_budget(self):
        # depth 32, past the desk caps, which stay: the recurrence itself, summed level by level
        # (a closed-form majorant of it, k ((1+z)^-s_1 + L) L^(k-2), L = 2 + ln c, is 7.5e-12),
        # states at most the 1e-12 its width is for
        wp, c = _width(1e-12)
        bound = _mhz_once((1,) * 31 + (2,), F(-1, 3), c, wp)[1]
        assert F(bound, 1 << wp) <= F(1, 10**12)

    @pytest.mark.parametrize("tol", [1e-18, 1e-32, 1e-60], ids=["30", "44", "72"])  # digits
    def test_stated_rest_covers_the_truncation(self, tol):
        # |sum through top - f| <= U / (den x^(top+1)) for x >= MHZ_CUTOFF - 1, at the
        # order the rule picks at tol; the expansion 40 orders longer stands in for f
        top = _level_order(*_width(tol))
        vectors = [
            v for k in range(1, 6) for v in itertools.product((1, 2, 3), repeat=k)
            if v[-1] > 1 and sum(v) <= 10
        ]
        for vec in vectors:
            den, nums = _level_expansion(vec, top)
            ref_den, ref = _level_expansion(vec, top + 40)
            for x in (F(391, 10), F(40), F(80)):
                err = abs(_truncated(den, nums, x) - _truncated(ref_den, ref, x))
                assert err <= F(nums[-1], den) / x ** (len(nums) - 1), (vec, x)

    @pytest.mark.parametrize("tol", [1e-18, 1e-32, 1e-60, 1e-100], ids=["30", "44", "72", "112"])
    def test_rule_order_leaves_at_most_4_units_of_level_rest(self, tol):
        # at x = cutoff + z the stated rest past _level_order's top, for every admissible
        # vector (entries <= 7, depth <= 5, weight <= 10; a suffix of one is one too), is
        # at most 4 units of 2^-wp
        admissible = [
            v for k in range(1, 6) for v in itertools.product(range(1, 8), repeat=k)
            if v[-1] > 1 and sum(v) <= 10
        ]
        assert len(admissible) == 373
        wp, c = _width(tol)
        top, worst = _level_order(wp, c), 0
        for vec in admissible:
            den, nums = _level_expansion(vec, top)
            for z in (F(0), F(-1, 2), F(-999999, 1000000)):
                rest = math.ceil(F(nums[-1] << wp, den) / (c + z) ** (top + 1))
                assert rest <= 4, (vec, z, rest)
                worst = max(worst, rest)
        assert worst >= 1


@functools.lru_cache(maxsize=None)
def _reference_tail(sigma, order):
    """B_k (sigma)_(k-1) / k! on 1/x^(sigma-1+k), k = 0 left out for sigma = 1."""
    out = {}
    for k in range(0 if sigma > 1 else 1, order + 2 - sigma):
        rising = F(1, sigma - 1) if k == 0 else F(math.prod(range(sigma, sigma + k - 1)))
        out[sigma - 1 + k] = F(*bernfrac(k)) * rising / math.factorial(k)
    return out


@functools.lru_cache(maxsize=None)
def _reference_level_expansion(svec, top):
    # reference: the level recursion in Fraction arithmetic
    inner = _reference_level_expansion(svec[1:], top) if len(svec) > 1 else (F(1),)
    out = [F(0)] * (top + 1)
    for q, c in enumerate(inner):
        if c:
            for p, b in _reference_tail(svec[0] + q, top).items():
                out[p] += c * b
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _reference_em_rule(q, d, k):
    # reference: the Euler-Maclaurin step recurrence in Fraction arithmetic
    P, prev = _reference_em_rule(q, d, k - 1)[2] if k else (0,) * d + (1,), ()
    if q + 2 * k == 1:
        return (), (0,) * (d + 1) + (F(-1, d + 1),), P
    for p in range(q + max(2 * k - 2, 0), q + 2 * k):
        prev, P = P, tuple((i + 1) * e - p * c for i, (c, e) in enumerate(zip(P, P[1:] + (0,))))
    b = F(*bernfrac(2 * k)) / math.factorial(2 * k)
    w, Q = 2 * abs(b) if k else 1, [F(0)] * (d + 2)
    for t in range(d, -1, -1):
        Q[t] = (w * abs(P[t]) + (t + 1) * Q[t + 1]) / (q + 2 * k - 1)
    return tuple(b * c for c in prev), tuple(Q[:-1]), P


class TestIntegerExpansions:
    def test_em_rules_are_exact(self):
        for q, d, k in itertools.product(range(1, 13), range(5), range(15)):
            (term_den, term), (rem_den, rem), P = _em_rule(q, d, k)
            reference = _reference_em_rule(q, d, k)
            assert [F(c, term_den) for c in term] == list(reference[0]), (q, d, k)
            assert [F(c, rem_den) for c in rem] == list(reference[1]), (q, d, k)
            assert P == reference[2], (q, d, k)

    def test_em_rules_hold_only_ints(self, monkeypatch):
        # every rule a tol 1e-60 verification builds or reuses holds Python ints only
        from zetaform import verify

        rule, rules = verify._em_rule, []

        def recorded(*key):
            rules.append(rule(*key))
            return rules[-1]

        monkeypatch.setattr(verify, "_em_rule", recorded)
        spec = SeriesSpec(X1 * X1, 1, F(-1, 3), (0, 2))
        assert verify_identity(spec, closed_form(spec), tol=1e-60, N=1).passed
        assert len(rules) > 1000

        def ints(x):
            return all(map(ints, x)) if isinstance(x, tuple) else type(x) is int

        assert all(map(ints, rules))

    def test_lhs_expansions_hold_only_ints(self, monkeypatch):
        # with log powers and binomial factors at tol 1e-30, every denominator,
        # coefficient and majorant of the summand's expansion is a Python int
        expansion, models = verify._summand_expansion, []

        def recorded(spec, order, *args):
            models.append((order, expansion(spec, order, *args)))
            return models[-1][1]

        monkeypatch.setattr(verify, "_summand_expansion", recorded)
        spec = SeriesSpec(X1 * X1 * X2, 1, F(-1, 3), (0, 1, 2))
        assert verify_identity(spec, closed_form(spec), tol=1e-30, N=600).passed
        one = 1 << _width(1e-30)[0]
        assert models
        for order, (den, coeffs) in models:
            assert type(den) is int and den % one == 0  # so a fold's ceiling is at most 2^-wp
            assert any(d for _, d in coeffs) and any(j > order for j, _ in coeffs)
            assert all(type(c) is int for c in coeffs.values())

    def test_lhs_tail_holds_only_ints(self, monkeypatch):
        # every value, bound and constant of a tol 1e-30 verification's LHS tail is a
        # Python int, in units of 2^-wp; a bound is None only for a stalled remainder
        tail_order, summer_constants, tails, constants = (
            verify._tail_order, verify._SeriesSummer.constants, [], []
        )

        def recorded_tail(*args):
            tails.append(tail_order(*args))
            return tails[-1]

        def recorded_constants(summer, a):
            constants.append(summer_constants(summer, a))
            return constants[-1]

        monkeypatch.setattr(verify, "_tail_order", recorded_tail)
        monkeypatch.setattr(verify._SeriesSummer, "constants", recorded_constants)
        spec = SeriesSpec(X1 * X1 * X1, 1, F(-1, 3), (0, 2))
        rep = verify_identity(spec, closed_form(spec), tol=1e-30, N=600)
        assert rep.passed and rep.n_used == 600  # the head never doubled: nothing stalled
        assert len(tails) > 3 and constants
        assert all(type(value) is int and type(bound) is int for value, bound in tails)
        for values, error in constants:
            assert type(error) is int and all(type(c) is int for c in values)
        # at a = 2, R_K stops shrinking above the target
        value, bound = tail_order((1, {(2, 0): 1}), F(2), WP)
        assert type(value) is int and bound is None

    def test_row_error_covers_logs_a_unit_off(self):
        # _row's stated error at its worst: each log a unit (less 2^-20) off, in the
        # direction that raises the row's value, on top of the floor's loss
        worst, off = 0, 1 - F(1, 2**20)
        for (q, d, k), a in itertools.product(
            itertools.product((1, 2, 5), (0, 2, 4), (0, 1, 3)), (F(43), F(131, 3), F(601))
        ):
            X, qa = a.numerator, a.denominator
            for den, nums in (row for row in _em_rule(q, d, k)[:2] if row[1]):
                L = verify._logs(a, len(nums) - 1, 60)
                logs = [l + off * ((c > 0) - (c < 0)) for l, c in zip(L, nums)]
                power, x_power = qa ** (2 * k), X ** (2 * k)
                value, error = verify._row((den, nums), L, power, x_power)
                exact = sum(c * l for c, l in zip(nums, logs)) * power / (den * x_power)
                assert abs(value - exact) <= error, (q, d, k, a)
                worst = max(worst, abs(value - exact) / error)
        assert worst > F(9, 10)  # the worst case comes close

    @pytest.mark.parametrize("a", [F(43), F(2**20) - F(1, 3), F(10**6) + F(2, 3)], ids=str)
    def test_logs_within_a_unit(self, a):
        # round(ln^i(a) 2^W), i <= 6, against mpmath at 2W bits
        for W in (40, 127, 263, 600):
            logs = verify._logs(a, 6, W)
            assert len(logs) == 7 and all(type(L) is int for L in logs)
            with mp.workprec(2 * W):
                log = mp.log(mp.mpq(a.numerator, a.denominator))
                for i, L in enumerate(logs):
                    assert abs(L - mp.ldexp(log**i, W)) <= 1, (W, i)

    def test_no_power_of_ln_a_runs_no_series(self, monkeypatch):
        # a d = 0, q >= 2 term reads only L[0] = round(2^W): its tail, same as before, runs
        # neither atanh series, and a q = 1 term still needs ln a
        a, model = F(1801, 3), (7, {(q, 0): 5 - q for q in range(2, 9)})
        expected = _tail_order(model, a, WP)

        def refuse(*args):
            raise AssertionError("an atanh series ran")

        monkeypatch.setattr(verify, "_atanh", refuse)
        monkeypatch.setattr(verify, "_ln2", refuse)
        assert _tail_order(model, a, WP) == expected
        assert [verify._logs(a, 0, W) for W in (-2, -1, 0, 3)] == [(0,), (0,), (1,), (8,)]
        with pytest.raises(AssertionError, match="atanh"):
            _tail_order((1, {(1, 0): 1}), a, WP)

    def test_logs_match_the_mpmath_reference(self):
        # the integer _logs against mpmath's log at W + 64 bits, rounded half to even, on a
        # seeded grid that takes in W < 0, where 2^W, i = 0, is a tie at W = -1
        rng = random.Random(28)
        randoms = [F(rng.randint(1, 10**9), rng.randint(1, 10**4)) for _ in range(7)]
        for a in [F(43), F(2**20) - F(1, 3), F(10**6) + F(2, 3)] + randoms:
            for W in range(-20, 601):
                powers = rng.randint(0, 6)
                assert verify._logs(a, powers, W) == _mpmath_logs(a, powers, W), (a, powers, W)

    def test_bernoulli_numbers_match_bernfrac(self):
        assert all(verify._bernoulli(k) == tuple(bernfrac(k)) for k in range(401))

    @pytest.mark.parametrize("dps", [30, 44])
    def test_zeta_tail_coeffs_are_exact(self, dps):
        for sigma in range(1, 41):
            den, nums, _ = _zeta_tail(sigma, dps + 20)
            reference = _reference_tail(sigma, dps + 22)
            assert [F(c, den) for c in nums] == [reference.get(p, 0) for p in range(dps + 23)]

    @pytest.mark.parametrize("order", [0, 1, 9, 28, 29, 59])
    def test_zeta_tail_rest_doubles_the_first_even_bernoulli_term(self, order):
        # past: the |terms| past order through the first B_2K one, K >= 1, that one twice, as
        # Euler-Maclaurin's remainder after the B_2k, k < K, is at most twice it (DLMF 2.10.2)
        for sigma in range(1, 41):
            den, _, past = _zeta_tail(sigma, order)
            k = max(2, order + 2 - sigma)
            last = sigma - 1 + k + k % 2  # the first even Bernoulli index whose term is past order
            reference = _reference_tail(sigma, last)
            want = [abs(reference.get(p, 0)) for p in range(order + 1, last)]
            assert [F(u, den) for u in past] == want + [2 * abs(reference[last])], (sigma, order)

    @pytest.mark.parametrize("top", [50, 64])
    def test_level_expansions_are_exact(self, top):
        vectors = [v for k in range(1, 5) for v in itertools.product((1, 2, 3), repeat=k)]
        for vec in vectors:
            den, (*nums, _) = _level_expansion(vec, top)
            assert [F(c, den) for c in nums] == list(_reference_level_expansion(vec, top)), vec


def _mpmath_logs(a, powers, W):
    """The verifier's _logs as it was with mpmath: ln a at W + 64 bits, then nint."""
    with mp.workprec(max(W, 0) + 64):
        log = mp.log(mpf(a.numerator) / a.denominator)
        return tuple(int(mp.nint(mp.ldexp(log**i, W))) for i in range(powers + 1))


class TestStuffle:
    # zeta(a) zeta(b, c) = zeta(a, b, c) + zeta(b, a, c) + zeta(b, c, a)
    #                      + zeta(a + b, c) + zeta(b, a + c) at every shift;
    # zeta(a) is mpmath's Hurwitz zeta, the rest come from the fixed-point sums
    @pytest.mark.parametrize("abs_err", [1e-12, 1e-30, 1e-60])
    @pytest.mark.parametrize("z", [F(0), F(-1, 2), F(-1, 3), F(-2, 3)])
    def test_harmonic_product(self, z, abs_err):
        for a, b, c in itertools.product((2, 3), repeat=3):
            za, zbc = mhz_numeric((a,), z, abs_err), mhz_numeric((b, c), z, abs_err)
            rhs = [
                mhz_numeric(v, z, abs_err)
                for v in [(a, b, c), (b, a, c), (b, c, a), (a + b, c), (b, a + c)]
            ]
            with mp.workdps(round(-math.log10(abs_err)) + 30):
                err = abs(_mpf(za.value) * _mpf(zbc.value) - mp.fsum(_mpf(r.value) for r in rhs))
                bound = za.abs_err_bound * abs(_mpf(zbc.value))
                bound += zbc.abs_err_bound * abs(_mpf(za.value))
                bound += za.abs_err_bound * zbc.abs_err_bound + sum(r.abs_err_bound for r in rhs)
            assert err <= bound, ((a, b, c), err, bound)
