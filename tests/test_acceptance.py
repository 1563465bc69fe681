"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Exact criteria compare Fractions; numeric criteria state their tolerance.
"""

import math
import random
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

from zetaform.engine import (
    ClosedForm,
    SeriesSpec,
    apply_reductions,
    closed_form,
    default_reduction_table,
)
from zetaform.qsym import (
    Polynomial,
    QSymExpr,
    bell_polynomial,
    complete,
    compositions,
    elementary,
    evaluate_finite,
    monomial_sum,
    power_sum,
    quasi_shuffle,
)
from zetaform.reducer import reduce_index
from zetaform.verify import closed_form_numeric, mhz_numeric, verify_identity

X1 = Polynomial.variable(1)


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _mpf(q):
    """An exact Fraction as an mpf at the ambient precision."""
    return mpf(q.numerator) / q.denominator


def H(n, m=1, z=F(0)):
    return sum(F(1, 1) / (j + z) ** m for j in range(1, n + 1))


def elementary_poly(k):
    args = [(-1) ** (i + 1) * Polynomial.variable(i) for i in range(1, k + 1)]
    return bell_polynomial(k, args)


def test_criterion_1_reduction_anchor():
    got = reduce_index((2, 3, 2))
    want = {
        (0, 1, 1): F(1),
        (1, 1): F(-1),
        (2,): F(1, 4),
        (0, 3): F(1),
        (0, 0, 2): F(-1, 4),
    }
    report("1 (five-term reduction of (2,3,2))", got == want)


def test_criterion_2_reduction_big_run():
    # coefficients of the published expansion; the run-of-ones units carry
    # them (their canonical splitting is exercised separately)
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
    report("2 (eight coefficients for (4,1^5))", got == want)


def test_criterion_3_flagship_pipeline():
    spec = SeriesSpec(X1, 1, 0, (4, 1, 1, 1, 1, 1))
    total = closed_form(spec).scaled(math.factorial(5))
    got = apply_reductions(total, default_reduction_table())
    want = ClosedForm(
        F(131891, 172800),
        {
            ((5,),): F(3),
            ((2,), (3,)): F(-1),
            ((4,),): F(-137, 48),
            ((3,),): F(12019, 1800),
            ((2,),): F(-874853, 216000),
        },
        F(0),
        1,
    )
    report("3 (reciprocal-binomial flagship identity)", got == want)


def test_criterion_4_alternating_binomial_sweep():
    ok = True
    for b in range(1, 13):
        for k in range(1, 7):
            spec = SeriesSpec(elementary_poly(k), 1, 0, (0,) * b + (1, 1))
            got = closed_form(spec)
            rhs = (
                sum(F(math.comb(b, l) * (-1) ** (l + 1), l**k) for l in range(1, b + 1))
                / b
            )
            if got.terms or got.constant != rhs:
                ok = False
    report("4 (pure-constant sweep b<=12, k<=6)", ok)


def test_criterion_5_exact_fixture_families():
    ok = True
    # squared harmonic numerator, shifted adjacent pair, b = 1..10
    for b in range(1, 11):
        got = closed_form(SeriesSpec(X1 * X1, 1, 0, (0,) * b + (1, 1)))
        const = (b * H(b, 2) + b * H(b) ** 2 - H(b)) / F(b * b)
        if got.zeta_coefficient((2,)) != F(1, b) or got.constant != const:
            ok = False
        if set(got.terms) != {((2,),)}:
            ok = False
    # order-2 numerator over (n+2)^2, the k = 1 fixture
    got = closed_form(SeriesSpec(X1, 2, 0, (0, 0, 2)))
    if got != ClosedForm(F(3), {((2,),): -2, ((2, 2),): 1}, F(0), 2):
        ok = False
    # reciprocal binomial with a leading n: m <= 4, k <= 6
    for m in range(1, 5):
        for k in range(1, 7):
            spec = SeriesSpec(X1, m, 0, (1,) + (1,) * k)
            got = closed_form(spec).scaled(math.factorial(k))
            const = F(0)
            zc = {(m + 1,): F(1)}
            for r in range(1, k):
                c = F((-1) ** r * math.comb(k - 1, r))
                const += c * F((-1) ** (m - 1)) * H(r) / F(r**m)
                for l in range(2, m + 1):
                    zc[(l,)] = zc.get((l,), F(0)) + c * F((-1) ** (m - l), r ** (m + 1 - l))
            zc = {key: v for key, v in zc.items() if v}
            want = ClosedForm(const, {(key,): v for key, v in zc.items()}, F(0), m)
            if got != want:
                ok = False
    report("5 (exact fixtures: squares, shifted square, binomial family)", ok)


def test_criterion_6_half_shift_fixtures():
    ok = True
    half = F(-1, 2)
    # odd harmonic numbers over (2n+1)(2n+3): engine value 2, display value 1/4
    got = closed_form(SeriesSpec(X1, 1, half, (0, 1, 1)))
    if got.terms or got.constant * F(1, 8) != F(1, 4):
        ok = False
    # signed power-sum numerators: display value 2^-(k+1) for k <= 6
    for k in range(1, 7):
        got = closed_form(SeriesSpec(elementary_poly(k), 1, half, (0, 1, 1)))
        if got.terms or got.constant * F(1, 2 ** (k + 2)) != F(1, 2 ** (k + 1)):
            ok = False
    # single harmonic numerator family: b <= 4, m <= 4; coefficients exact
    # after the 2-power rescaling into odd-value units
    for m in range(1, 5):
        for b in range(1, 5):
            got = closed_form(SeriesSpec(X1, m, half, (0,) * b + (1, 1)))
            scale = F(1, 2 ** (m + 2))
            odd_b = sum(F(1, 2 * j - 1) for j in range(1, b + 1))
            if got.constant * scale != F((-1) ** (m - 1), 2 ** (m + 1) * b**m) * odd_b:
                ok = False
            for r in range(m - 1):
                w = m - r
                tcoeff = got.zeta_coefficient((w,)) * F(2) ** w * scale
                if tcoeff != F((-1) ** r, 2 ** (r + 2) * b ** (r + 1)):
                    ok = False
            if len(got.terms) != max(m - 1, 0):
                ok = False
    report("6 (half-shift fixtures in odd-value units)", ok)


def test_criterion_7_qsym_property_suite():
    ok = True
    rng = random.Random(985)

    def random_expr():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = rng.randint(0, 4)
            comp = rng.choice(list(compositions(w)))
            terms[comp] = F(rng.randint(-3, 3), rng.randint(1, 4))
        return QSymExpr(terms)

    # ring laws on random small elements
    for _ in range(25):
        a, b, c = random_expr(), random_expr(), random_expr()
        if a * b != b * a or (a * b) * c != a * (b * c):
            ok = False
        if a * (b + c) != a * b + a * c:
            ok = False
        if QSymExpr.one() * a != a:
            ok = False
    # homomorphism under finite evaluation: 200 random pairs, n <= 8
    for _ in range(200):
        u, v = random_expr(), random_expr()
        n = rng.randint(1, 8)
        m = rng.choice([1, 2])
        z = rng.choice([F(0), F(-1, 2), F(-1, 3)])
        if evaluate_finite(u * v, n, m, z) != evaluate_finite(
            u, n, m, z
        ) * evaluate_finite(v, n, m, z):
            ok = False
    # generator expansions through the modified Bell polynomial, k <= 8
    for k in range(0, 9):
        signed = [(-1) ** (i + 1) * power_sum(i) for i in range(1, k + 1)]
        plain = [power_sum(i) for i in range(1, k + 1)]
        if bell_polynomial(k, signed) != elementary(k):
            ok = False
        if bell_polynomial(k, plain) != complete(k):
            ok = False
    # product expansion over monomial sums with binomial weights, n <= 8
    for n in range(0, 9):
        for k in range(0, n + 1):
            lhs = quasi_shuffle(elementary(k), complete(n - k))
            rhs = QSymExpr.zero()
            for j in range(k, n + 1):
                rhs = rhs + math.comb(j, k) * monomial_sum(n, j)
            if lhs != rhs:
                ok = False
    report("7 (quasi-shuffle ring and specialization suite)", ok)


def test_criterion_8_euler_fixtures_numeric():
    ok = True
    details = []
    with mp.workdps(30):
        references = {
            "plain harmonic over (n+1)^2": (
                SeriesSpec(X1, 1, 0, (0, 2)),
                mhz_numeric((3,), 0, 1e-12).value,
            ),
            "plain harmonic over n^3": (
                SeriesSpec(X1, 1, 0, (3,)),
                F(5, 4) * mhz_numeric((4,), 0, 1e-12).value,
            ),
            "order-2 harmonic over n(n+1)": (
                SeriesSpec(X1, 2, 0, (1, 1)),
                mhz_numeric((3,), 0, 1e-12).value,
            ),
        }
    for label, (spec, ref) in references.items():
        cf = closed_form(spec)
        rep = verify_identity(spec, cf, tol=1e-8, N=10000)
        value = closed_form_numeric(cf, 1e-10)
        against_ref = abs(_mpf(value.value) - _mpf(ref))
        if not rep.passed or rep.discrepancy > 1e-8 or against_ref > 1e-8:
            ok = False
            details.append(f"{label}: disc={rep.discrepancy:.2e}")
    # order-2 numerators over (n+2)^2 vs the zeta staircase, k <= 4, numeric
    for k in range(1, 5):
        spec = SeriesSpec(elementary_poly(k), 1, 0, (0, 0, 2))
        cf = closed_form(spec)
        lhs = closed_form_numeric(cf, 1e-10)
        with mp.workdps(30):
            rhs = sum(
                (_mpf(mhz_numeric((j,), 0, 1e-12).value) for j in range(2, k + 3)), mpf(0)
            ) - (k + 1)
            gap = abs(_mpf(lhs.value) - rhs)
        if gap > 1e-8:
            ok = False
            details.append(f"staircase k={k}: gap={float(gap):.2e}")
    report("8 (numeric verification fixtures, tol 1e-8)", ok, "; ".join(details))


def _random_desk_specs(count=50, seed=20260810):
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        m = rng.choice([1, 2])
        z = rng.choice([F(0), F(-1, 2), F(-1, 3)])
        poly = Polynomial.zero()
        for _ in range(rng.randint(1, 2)):
            wd = rng.randint(0, 3)
            exps: dict = {}
            remaining = wd
            while remaining > 0:
                v = rng.randint(1, remaining)
                exps[v] = exps.get(v, 0) + 1
                remaining -= v
            key = tuple(exps.get(i, 0) for i in range(1, max(exps) + 1)) if exps else ()
            coeff = F(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
            poly = poly + Polynomial({key: coeff})
        if not poly:
            continue
        wt = poly.weighted_degree()
        s = None
        for _ in range(40):
            cand = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
            w = sum(cand)
            if 2 <= w <= 6 and m * wt + w <= 9:
                s = cand
                break
        if s is None:
            continue
        specs.append(SeriesSpec(poly, m, z, s))
    return specs


def test_criterion_9_random_desk_specs():
    failures = []
    for i, spec in enumerate(_random_desk_specs()):
        cf = closed_form(spec)
        rep = verify_identity(spec, cf, tol=1e-5, N=600)
        if not rep.passed:
            failures.append((i, spec, rep.discrepancy, rep.message))
    report(
        "9 (50 random desk specs at tol 1e-5)",
        not failures,
        f"{50 - len(failures)}/50 passed",
    )


def test_random_desk_specs_certified_at_tight_tolerance():
    # fresh specs, not criterion 9's; "certified" means the reported bounds
    # alone fit the tolerance, whatever the discrepancy
    specs = _random_desk_specs(count=100, seed=20261018)
    assert {spec.z for spec in specs} == {F(0), F(-1, 2), F(-1, 3)}
    assert {spec.m for spec in specs} == {1, 2}
    tol = 1e-10
    failures = []
    for i, spec in enumerate(specs):
        rep = verify_identity(spec, closed_form(spec), tol=tol, N=200)
        certified = rep.lhs_estimate.abs_err_bound + rep.rhs_value.abs_err_bound <= tol
        if not (rep.passed and certified):
            failures.append((i, spec, rep.discrepancy, rep.message))
    report(
        "random differential (100 fresh desk specs at tol 1e-10, certified)",
        not failures,
        f"{100 - len(failures)}/100 passed and certified; failures: {failures}",
    )


def test_staircase_certified_through_raw_series():
    # criterion 8 checks the staircase closed forms against zeta values
    # only; here each is certified against its raw series as well
    ok = True
    details = []
    tol = 1e-8
    for k in range(1, 5):
        spec = SeriesSpec(elementary_poly(k), 1, 0, (0, 0, 2))
        rep = verify_identity(spec, closed_form(spec), tol=tol, N=10000)
        bounds = rep.lhs_estimate.abs_err_bound + rep.rhs_value.abs_err_bound
        details.append(f"k={k}: bounds={bounds:.1e}")
        if not (rep.passed and bounds <= tol):
            ok = False
    report("staircase e_k/(n+2)^2 through the raw series, tol 1e-8", ok, "; ".join(details))
