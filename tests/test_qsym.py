import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from zetaform.qsym import (
    Polynomial,
    QSymExpr,
    bell_polynomial,
    complete,
    compositions,
    compositions_with_length,
    elementary,
    evaluate_finite,
    monomial_sum,
    poly_to_qsym,
    power_sum,
    quasi_shuffle,
)

M = QSymExpr.monomial


def brute_finite_zeta(comp, n, m, z):
    """Independent oracle: enumerate strictly increasing index tuples."""
    k = len(comp)
    if k == 0:
        return F(1)
    total = F(0)
    for idx in itertools.combinations(range(1, n + 1), k):
        term = F(1)
        for i, a in zip(idx, comp):
            term /= (i + z) ** (m * a)
        total += term
    return total


def brute_evaluate(u, n, m, z):
    return sum(
        (c * brute_finite_zeta(comp, n, m, z) for comp, c in u.terms.items()),
        F(0),
    )


def random_qsym(rng, max_terms=3, max_weight=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = rng.randint(0, max_weight)
        comp = rng.choice(list(compositions(w)))
        terms[comp] = F(rng.randint(-3, 3), rng.randint(1, 4))
    return QSymExpr(terms)


class TestScaled:
    def test_scaled_by_one_is_a_copy(self):
        x = QSymExpr({(2, 1): F(3, 4), (1,): -2})
        y = x.scaled(1)
        assert y == x and y is not x and y.terms is not x.terms
        y.terms[(1,)] = F(5)
        del y.terms[(2, 1)]
        assert x.terms == {(2, 1): F(3, 4), (1,): -2}

    def test_scaled_by_zero_is_zero(self):
        zero = QSymExpr({(2, 1): F(3, 4)}).scaled(0)
        assert not zero and zero == QSymExpr.zero()

    def test_scaled_multiplies_every_coefficient(self):
        x = QSymExpr({(2, 1): F(3, 4), (1,): -2})
        assert x.scaled(F(-2, 3)) == QSymExpr({(2, 1): F(-1, 2), (1,): F(4, 3)})


class TestQuasiShuffle:
    def test_two_letter_stuffle(self):
        assert M((1,)) * M((1,)) == QSymExpr({(1, 1): 2, (2,): 1})

    def test_e1_h1_is_p2_plus_2e2(self):
        lhs = quasi_shuffle(elementary(1), complete(1))
        assert lhs == power_sum(2) + 2 * elementary(2)

    def test_unit_law(self):
        rng = random.Random(7)
        for _ in range(10):
            u = random_qsym(rng)
            assert QSymExpr.one() * u == u
            assert u * QSymExpr.one() == u

    def test_commutative_associative_distributive(self):
        rng = random.Random(11)
        for _ in range(15):
            a, b, c = (random_qsym(rng, max_weight=3) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_grading(self):
        a = M((2, 1))
        b = M((1, 1, 1))
        for comp in (a * b).terms:
            assert sum(comp) == 6


class TestGenerators:
    def test_power_sum(self):
        assert power_sum(1) == M((1,))
        assert power_sum(3) == M((3,))
        with pytest.raises(ValueError):
            power_sum(0)

    def test_elementary(self):
        assert elementary(0) == QSymExpr.one()
        assert elementary(2) == M((1, 1))

    def test_complete(self):
        assert complete(0) == QSymExpr.one()
        assert complete(2) == QSymExpr({(2,): 1, (1, 1): 1})
        assert complete(3) == QSymExpr({(3,): 1, (1, 2): 1, (2, 1): 1, (1, 1, 1): 1})

    def test_monomial_sum(self):
        assert monomial_sum(2, 1) == M((2,))
        assert monomial_sum(2, 2) == M((1, 1))
        assert monomial_sum(3, 2) == QSymExpr({(1, 2): 1, (2, 1): 1})
        assert monomial_sum(0, 0) == QSymExpr.one()
        assert monomial_sum(4, 0) == QSymExpr.zero()

    def test_compositions_with_length_exhaustive(self):
        got = set(compositions_with_length(5, 3))
        want = {c for c in compositions(5) if len(c) == 3}
        assert got == want


class TestBellPolynomial:
    def test_empty_product(self):
        assert bell_polynomial(0, ()) == QSymExpr.one()

    def test_elementary_from_signed_power_sums(self):
        args = [(-1) ** (i + 1) * power_sum(i) for i in range(1, 3)]
        assert bell_polynomial(2, args) == elementary(2)

    def test_complete_from_power_sums(self):
        args = [power_sum(i) for i in range(1, 3)]
        assert bell_polynomial(2, args) == complete(2)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_generator_identities(self, k):
        signed = [(-1) ** (i + 1) * power_sum(i) for i in range(1, k + 1)]
        plain = [power_sum(i) for i in range(1, k + 1)]
        assert bell_polynomial(k, signed) == elementary(k)
        assert bell_polynomial(k, plain) == complete(k)

    def test_works_on_polynomials(self):
        args = [Polynomial.variable(i) for i in range(1, 3)]
        got = bell_polynomial(2, args)
        want = F(1, 2) * Polynomial.variable(1) ** 2 + F(1, 2) * Polynomial.variable(2)
        assert got == want


class TestEkHnk:
    @pytest.mark.parametrize("n", range(0, 9))
    def test_ek_times_hnk(self, n):
        # e_k h_{n-k} expands over monomial sums with binomial multiplicities
        for k in range(0, n + 1):
            lhs = quasi_shuffle(elementary(k), complete(n - k))
            rhs = QSymExpr.zero()
            for j in range(k, n + 1):
                rhs = rhs + math.comb(j, k) * monomial_sum(n, j)
            assert lhs == rhs


class TestPolyToQsym:
    def test_single_variable(self):
        assert poly_to_qsym(Polynomial.variable(1)) == M((1,))

    def test_square_minus_second(self):
        poly = Polynomial.variable(1) ** 2 - Polynomial.variable(2)
        assert poly_to_qsym(poly) == 2 * M((1, 1))

    def test_p2_plus_2e2(self):
        poly = Polynomial.variable(2) + (
            Polynomial.variable(1) ** 2 - Polynomial.variable(2)
        )
        assert poly_to_qsym(poly) == M((2,)) + 2 * M((1, 1))

    def test_constant_term(self):
        poly = Polynomial.constant(F(3, 2)) + Polynomial.variable(1)
        assert poly_to_qsym(poly) == QSymExpr({(): F(3, 2), (1,): 1})


def algebra_image(poly):
    """poly_to_qsym through the public algebra: products of power sums, summed."""
    total = QSymExpr.zero()
    for exps, coeff in poly.terms.items():
        term = QSymExpr.one()
        for i, e in enumerate(exps, start=1):
            term = term * power_sum(i) ** e
        total = total + coeff * term
    return total


COEFFS = (1, -1, 2, F(1, 2), F(-3, 4), F(5, 3))
X = [Polynomial.variable(i) for i in (1, 2, 3)]


@st.composite
def small_polynomial(draw):
    """A polynomial in x1..x3 of degree <= 4, sometimes with images that cancel."""
    exps = st.tuples(*[st.integers(0, 4)] * 3).filter(lambda e: sum(e) <= 4)
    poly = Polynomial(draw(st.lists(st.tuples(exps, st.sampled_from(COEFFS)), max_size=5)))
    for c in draw(st.lists(st.sampled_from(COEFFS), max_size=2)):
        # x1^2 - x2 and x1*x2 - x3 drop the single part M(2) and M(3)
        pair = draw(st.sampled_from([X[0] ** 2 - X[1], X[0] * X[1] - X[2]]))
        poly = poly + c * pair
    return poly


@settings(max_examples=150, deadline=None)
@given(small_polynomial())
def test_poly_to_qsym_matches_the_public_algebra(poly):
    got = poly_to_qsym(poly)
    assert got == algebra_image(poly)
    for c in got.terms.values():
        assert type(c) is F and c != 0


class TestEvaluateFinite:
    def test_harmonic(self):
        assert evaluate_finite(M((1,)), 2, 1, 0) == F(3, 2)

    def test_power_sum_two(self):
        assert evaluate_finite(power_sum(2), 2, 1, 0) == F(5, 4)

    def test_pairs(self):
        # 1/(1*2) + 1/(1*3) + 1/(2*3)
        assert evaluate_finite(M((1, 1)), 3, 1, 0) == F(1)

    def test_shifted(self):
        assert evaluate_finite(M((1,)), 1, 1, F(-1, 2)) == F(2)

    def test_rejects_bad_shift(self):
        with pytest.raises(ValueError):
            evaluate_finite(M((1,)), 2, 1, F(-3, 2))
        with pytest.raises(ValueError):
            evaluate_finite(M((1,)), 2, 1, F(1, 2))

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(20):
            u = random_qsym(rng, max_weight=3)
            n = rng.randint(1, 6)
            m = rng.choice([1, 2])
            z = rng.choice([F(0), F(-1, 2), F(-1, 3)])
            assert evaluate_finite(u, n, m, z) == brute_evaluate(u, n, m, z)

    def test_matches_brute_force_at_twenty(self):
        for comp in [(1,), (2, 1), (1, 1, 2)]:
            u = M(comp)
            assert evaluate_finite(u, 20, 1, F(-1, 2)) == brute_finite_zeta(
                comp, 20, 1, F(-1, 2)
            )

    def test_homomorphism_random(self):
        rng = random.Random(5)
        for _ in range(40):
            u = random_qsym(rng, max_weight=3)
            v = random_qsym(rng, max_weight=3)
            n = rng.randint(1, 6)
            m = rng.choice([1, 2])
            z = rng.choice([F(0), F(-1, 2)])
            assert evaluate_finite(u * v, n, m, z) == evaluate_finite(
                u, n, m, z
            ) * evaluate_finite(v, n, m, z)


@st.composite
def small_qsym(draw):
    n_terms = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n_terms):
        w = draw(st.integers(0, 3))
        comp = draw(st.sampled_from(list(compositions(w))))
        terms[comp] = F(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return QSymExpr(terms)


@settings(max_examples=40, deadline=None)
@given(small_qsym(), small_qsym(), st.integers(1, 5))
def test_homomorphism_property(u, v, n):
    assert evaluate_finite(u * v, n, 1, 0) == evaluate_finite(
        u, n, 1, 0
    ) * evaluate_finite(v, n, 1, 0)


class TestPolynomial:
    def test_evaluate_exact(self):
        poly = Polynomial.variable(1) ** 2 - F(1, 2) * Polynomial.variable(2)
        assert poly.evaluate([F(3, 2), F(5, 4)]) == F(9, 4) - F(5, 8)

    def test_weighted_degree(self):
        poly = Polynomial.variable(3) + Polynomial.variable(1) ** 2
        assert poly.weighted_degree() == 3
        assert poly.degree() == 2

    def test_strips_trailing_zero_exponents(self):
        assert Polynomial({(1, 0): 1}) == Polynomial.variable(1)
