import contextlib
import copy
import dataclasses
import gc
import hashlib
import inspect
import itertools
import json
import math
import pickle
import random
import sys
import weakref
from fractions import Fraction as F

import pytest
from test_golden import cases

from zetaform import cli, engine
from zetaform.cli import CliRequest, RenderedIdentity, closed_form_from_json, closed_form_to_json
from zetaform.engine import (
    ClosedForm,
    ReductionRule,
    ReductionTable,
    SeriesSpec,
    apply_reductions,
    closed_form,
    default_reduction_table,
    harmonic_value,
    index_value,
    load_reduction_table,
    pair_family_value,
    power_family_value,
    telescope_value,
)
from zetaform.qsym import Polynomial, bell_polynomial, sort_key
from zetaform.reducer import DivergentSeriesError, PartialFractionExpansion
from zetaform.verify import NumericResult, VerificationReport

X1 = Polynomial.variable(1)


def H(n, m=1, z=F(0)):
    return sum(F(1, 1) / (j + z) ** m for j in range(1, n + 1))


def elementary_poly(k):
    args = [(-1) ** (i + 1) * Polynomial.variable(i) for i in range(1, k + 1)]
    return bell_polynomial(k, args)


def cf(constant, terms, z=F(0), m=1):
    return ClosedForm(F(constant), terms, F(z), m)


class TestHarmonicValue:
    def test_empty(self):
        assert harmonic_value(0, 1, 0) == 0

    def test_h2(self):
        assert harmonic_value(2, 1, 0) == F(3, 2)

    def test_shifted_square(self):
        assert harmonic_value(1, 2, F(-1, 2)) == 4

    def test_rejects_shift(self):
        with pytest.raises(ValueError):
            harmonic_value(2, 1, F(-5, 4))


class TestLeadingZeroRun:
    """x1 over (0^k, 2): the steps at shifts 1..k each need H_a^(l)(z)."""

    @pytest.mark.parametrize("k", [50, 200])
    def test_harmonic_terms_grow_linearly(self, k, monkeypatch):
        # each reciprocal term 1/(j+z)^l is one Fraction power; summing every
        # H_a from j = 1 again costs about k^2 of them
        calls = []
        power = F.__pow__
        monkeypatch.setattr(F, "__pow__", lambda *a: calls.append(1) or power(*a))
        closed_form(SeriesSpec(X1, 1, 0, (0,) * k + (2,)))
        assert len(calls) <= 2 * k

    @pytest.mark.parametrize(
        "k, digest",
        [
            (1, "97e47095b6dad83309c492e29ba8dce6fd353e12a728d27de1091d4cb6f34eb1"),
            (5, "923460d3afdb86541d65a9bd3cb1655028828ba9eddd8af9e18952f20e7d9923"),
            (40, "f760bfe7d98a35d3e8a600476e1c63f100d3b88d2e1c5f064d068f8ff900c3f7"),
        ],
    )
    def test_closed_forms_unchanged(self, k, digest):
        # sha256 of the sorted closed-form JSON, recorded when every H_a was
        # summed from j = 1 by harmonic_value
        got = closed_form(SeriesSpec(X1, 1, 0, (0,) * k + (2,)))
        text = json.dumps(closed_form_to_json(got), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestPairFamily:
    def test_adjacent_on_single_part(self):
        got = pair_family_value(0, (2,), 1, 0)
        assert got == cf(0, {((3,),): 1})

    def test_adjacent_on_two_parts(self):
        got = pair_family_value(0, (1, 2), 1, 0)
        assert got == cf(0, {((1, 3),): 1})

    def test_adjacent_order_two(self):
        got = pair_family_value(0, (1,), 2, 0)
        assert got == cf(0, {((3,),): 1}, m=2)

    def test_shifted_single_order_one(self):
        # constant 1: the classic telescoped value
        got = pair_family_value(1, (1,), 1, 0)
        assert got == cf(1, {})

    def test_shifted_single_order_two(self):
        got = pair_family_value(1, (1,), 2, 0)
        assert got == cf(-1, {((2,),): 1}, m=2)

    def test_shifted_single_half(self):
        got = pair_family_value(1, (1,), 1, F(-1, 2))
        assert got == cf(2, {}, z=F(-1, 2))

    def test_two_ones_any_shift(self):
        z = F(-2, 7)
        got = pair_family_value(1, (1, 1), 1, z)
        assert got == cf(F(1) / (1 + z), {}, z=z)

    def test_empty_composition(self):
        z = F(-1, 3)
        got = pair_family_value(2, (), 1, z)
        assert got == cf(F(1) / (3 + z), {}, z=z)


class TestPowerFamily:
    def test_no_shift(self):
        got = power_family_value(0, 3, (1,), 1, 0)
        assert got == cf(0, {((4,),): 1, ((1, 3),): 1})

    def test_one_shift(self):
        got = power_family_value(1, 2, (1,), 1, 0)
        assert got == cf(0, {((1, 2),): 1})

    def test_unit_composition(self):
        z = F(-1, 2)
        got = power_family_value(0, 2, (), 1, z)
        assert got == cf(0, {((2,),): 1}, z=z)
        got = power_family_value(1, 2, (), 1, z)
        assert got == cf(-F(1) / (1 + z) ** 2, {((2,),): 1}, z=z)

    def test_two_shift_single(self):
        # the shifted-by-two square denominator on a plain harmonic numerator
        got = power_family_value(2, 2, (1,), 1, 0)
        assert got == cf(-2, {((1, 2),): 1, ((2,),): 1})

    def test_two_shift_order_two(self):
        got = power_family_value(2, 2, (2,), 1, 0)
        assert got == cf(3, {((2, 2),): 1, ((2,),): -2})

    def test_fourth_power_no_shift(self):
        got = power_family_value(0, 4, (1,), 1, 0)
        assert got == cf(0, {((5,),): 1, ((1, 4),): 1})


class TestTelescope:
    def test_base_one(self):
        got = telescope_value(1, 2, (1,), 1, 0)
        assert got == cf(2, {((2,),): -1})

    def test_p_one_delegates(self):
        assert telescope_value(1, 1, (1, 1), 1, 0) == pair_family_value(1, (1, 1), 1, 0)

    def test_empty_composition(self):
        got = telescope_value(1, 2, (), 1, 0)
        assert got == cf(F(1, 4), {})

    def test_rejects_zero_shift(self):
        with pytest.raises(ValueError):
            telescope_value(0, 2, (1,), 1, 0)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("z", [F(0), F(-1, 2), F(-1, 3)])
    def test_step_is_difference_of_powers(self, m, z):
        comps = [()] + [c for n in (1, 2, 3) for c in itertools.product((1, 2), repeat=n)]
        for comp, a, p in itertools.product(comps, range(1, 5), (2, 3)):
            want = power_family_value(a, p, comp, m, z) - power_family_value(a + 1, p, comp, m, z)
            assert telescope_value(a, p, comp, m, z) == want, (comp, a, p)


class TestPipeline:
    def test_square_identity_any_shift(self):
        for z in (F(0), F(-1, 2), F(-1, 3)):
            got = closed_form(SeriesSpec(X1 * X1, 1, z, (0, 1, 1)))
            assert got == cf(F(1) / (1 + z), {((2,),): 1}, z=z)

    def test_order_two_adjacent(self):
        got = closed_form(SeriesSpec(X1, 2, 0, (1, 1)))
        assert got == cf(0, {((3,),): 1}, m=2)

    def test_euler_shift_square(self):
        got = closed_form(SeriesSpec(X1, 1, 0, (0, 2)))
        assert got == cf(0, {((1, 2),): 1})

    def test_constant_numerator(self):
        got = closed_form(SeriesSpec(Polynomial.constant(1), 1, 0, (2,)))
        assert got == cf(0, {((2,),): 1})

    def test_constant_numerator_shifted(self):
        got = closed_form(SeriesSpec(Polynomial.constant(2), 1, 0, (0, 0, 2)))
        assert got == cf(-2 - F(1, 2), {((2,),): 2})

    def test_square_shift_family(self):
        for b in range(1, 11):
            got = closed_form(SeriesSpec(X1 * X1, 1, 0, (0,) * b + (1, 1)))
            const = (b * H(b, 2) + b * H(b) ** 2 - H(b)) / F(b * b)
            assert got == cf(const, {((2,),): F(1, b)})

    def test_order_two_squares_family(self):
        # adjacent pair on signed power-sum input, order 2: pure zeta staircase
        for k in range(1, 4):
            got = closed_form(SeriesSpec(elementary_poly(k), 2, 0, (0, 1, 1)))
            want_terms = {((2,) * j,): F((-1) ** (k - j)) for j in range(1, k + 1)}
            assert got == cf(F((-1) ** k), want_terms, m=2)

    def test_shifted_square_staircase(self):
        # squared denominator two steps out, order 2
        for k in range(1, 4):
            got = closed_form(SeriesSpec(elementary_poly(k), 2, 0, (0, 0, 2)))
            want_terms = {((2,) * (k + 1),): F(1)}
            for j in range(1, k + 1):
                want_terms[((2,) * j,)] = F(2 * (-1) ** (k + 1 - j) * (k + 1 - j))
            assert got == cf(F((-1) ** (k + 1) * (2 * k + 1)), want_terms, m=2)

    def test_shifted_square_staircase_half(self):
        # same shape at z=-1/2 (coefficients in t-values after 2-power scaling)
        for k in range(1, 4):
            got = closed_form(SeriesSpec(elementary_poly(k), 2, F(-1, 2), (0, 0, 2)))
            assert got.constant == F((-1) ** (k + 1) * (4 * k + 4))
            assert got.zeta_coefficient((2,) * (k + 1)) == 1
            for j in range(1, k + 1):
                assert got.zeta_coefficient((2,) * j) == F(
                    2 * (-1) ** (k + 1 - j) * (k + 1 - j)
                )

    def test_emitted_weight_is_checked(self, monkeypatch):
        # one extra pole at 0, heavier than the series' weight allows
        real = engine.partial_fraction

        def heavy(k, m, a):
            pf = real(k, m, a)
            return PartialFractionExpansion(pf.pole_at_zero + ((k + m + 1, F(1)),), pf.pole_at_a)

        monkeypatch.setattr(engine, "partial_fraction", heavy)
        with pytest.raises(AssertionError, match="emitted weight 4 exceeds bound 3"):
            closed_form(SeriesSpec(X1, 1, 0, (0, 0, 2)))

    def test_long_run_of_shifts_recurses_shallowly(self):
        # a run of telescoping steps is built bottom up, so the stack depth
        # does not grow with the number of leading zeros
        want = power_family_value(150, 2, (1,), 1, 0)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            got = closed_form(SeriesSpec(X1, 1, 0, (0,) * 150 + (2,)))
        finally:
            sys.setrecursionlimit(limit)
        assert got == want

    @pytest.mark.parametrize("k", [3, 10, 300, 1200])
    def test_run_of_ones_telescopes(self, k):
        # sum_n 1/(n (n+1) ... (n+k-1)) = 1/((k-1) (k-1)!): a run of ones has no zeta terms
        got = closed_form(SeriesSpec(Polynomial.constant(1), 1, 0, (1,) * k))
        assert got == cf(F(1, (k - 1) * math.factorial(k - 1)), {})

    def test_divergent_rejected(self):
        with pytest.raises(DivergentSeriesError):
            SeriesSpec(X1, 1, 0, (1,))

    def test_vector_invariant(self):
        # every emitted vector has entries >= 1 and a final entry >= 2
        specs = [
            SeriesSpec(X1 * X1 * X1, 1, 0, (2, 3, 2)),
            SeriesSpec(X1 * Polynomial.variable(2), 2, F(-1, 3), (0, 1, 0, 1)),
            SeriesSpec(elementary_poly(3), 1, F(-1, 2), (1, 1, 1, 1)),
        ]
        for spec in specs:
            got = closed_form(spec)
            for mono in got.terms:
                for vec in mono:
                    assert all(e >= 1 for e in vec) and vec[-1] >= 2
                    assert sum(vec) <= spec.m * 3 + sum(spec.s)

    def test_index_value_general(self):
        # a non-canonical index routed through reduction
        got = index_value((1, 2), (1,), 1, 0)
        want = pair_family_value(0, (1,), 1, 0) - power_family_value(1, 2, (1,), 1, 0)
        assert got == want


class TestNestedSumIdentity:
    @pytest.mark.parametrize("k", range(0, 6))
    def test_alternating_binomial_harmonic(self, k):
        # H_c^(k+1) as an alternating binomial sum over weakly increasing
        # chains 1 <= r_k <= ... <= r_1 <= r_0 <= c of the product 1/(r_0...r_k)
        for c in range(1, 11):
            t = [F(1)] * (c + 1)  # t[r] = chain sum over the k inner layers
            for _ in range(k):
                acc = F(0)
                new = [F(0)] * (c + 1)
                for r in range(1, c + 1):
                    acc += t[r] / r
                    new[r] = acc
                t = new
            total = sum(
                F((-1) ** (r + 1) * math.comb(c, r), r) * t[r] for r in range(1, c + 1)
            )
            assert total == H(c, k + 1)


class TestReductionTable:
    def test_default_entries(self):
        table = default_reduction_table()
        assert len(table) == 3
        assert table.shift == 0

    def test_single_substitution(self):
        table = default_reduction_table()
        got = apply_reductions(cf(0, {((1, 2),): 1}), table)
        assert got == cf(0, {((3,),): 1})

    def test_quarter_rule(self):
        table = default_reduction_table()
        got = apply_reductions(cf(0, {((1, 3),): 2}), table)
        assert got == cf(0, {((4,),): F(1, 2)})

    def test_product_rule(self):
        table = default_reduction_table()
        got = apply_reductions(cf(0, {((1, 4),): 1}), table)
        assert got == cf(0, {((5,),): 2, ((2,), (3,)): -1})

    def test_missing_entries_pass_through(self):
        table = default_reduction_table()
        start = cf(F(1, 2), {((2, 2),): 1})
        assert apply_reductions(start, table) == start

    def test_shift_mismatch_is_noop(self):
        table = default_reduction_table()
        start = cf(0, {((1, 2),): 1}, z=F(-1, 2))
        assert apply_reductions(start, table) == start

    def test_substitutes_inside_products(self):
        table = default_reduction_table()
        got = apply_reductions(cf(0, {((1, 2), (2,)): 1}), table)
        assert got == cf(0, {((2,), (3,)): 1})

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(
            '{"shift": "0", "rules": [{"source": [1, 2], "constant": "1/3",'
            ' "terms": [{"factors": [[3]], "coeff": "2"}]}]}'
        )
        table = load_reduction_table(path)
        got = apply_reductions(cf(0, {((1, 2),): F(3)}), table)
        assert got == cf(1, {((3,),): 6})

    def test_chained_rules_reach_a_fixed_point(self):
        rules = {
            (1, 2): ReductionRule((1, 2), F(0), ((((1, 3),), F(1)),)),
            (1, 3): ReductionRule((1, 3), F(0), ((((4,),), F(1, 4)),)),
        }
        got = apply_reductions(cf(0, {((1, 2), (1, 2)): 1}), ReductionTable(F(0), rules))
        assert got == cf(0, {((4,), (4,)): F(1, 16)})

    def test_rule_constant_inside_a_product(self):
        # zeta(1,2) = 1/3 + 2 zeta(3): the constant times the rest of the product
        rules = {(1, 2): ReductionRule((1, 2), F(1, 3), ((((3,),), F(2)),))}
        got = apply_reductions(cf(1, {((1, 2), (2,)): 3}), ReductionTable(F(0), rules))
        assert got == cf(1, {((2,),): 1, ((2,), (3,)): 6})

    def test_reductions_cancel_to_nothing(self):
        # zeta(1,2) -> zeta(3) and zeta(1,3) -> zeta(3)/2 meet with opposite signs
        rules = {
            (1, 2): ReductionRule((1, 2), F(0), ((((3,),), F(1)),)),
            (1, 3): ReductionRule((1, 3), F(0), ((((3,),), F(1, 2)),)),
        }
        got = apply_reductions(cf(0, {((1, 2),): 1, ((1, 3),): -2}), ReductionTable(F(0), rules))
        assert got == cf(0, {}) and not got

    def test_idempotent_on_the_flagship(self):
        table = default_reduction_table()
        spec = SeriesSpec(X1, 1, 0, (4, 1, 1, 1, 1, 1))
        once = apply_reductions(closed_form(spec).scaled(math.factorial(5)), table)
        assert apply_reductions(once, table) == once

    @pytest.mark.parametrize(
        "edges",
        [{(1, 2): (1, 2)}, {(1, 2): (1, 3), (1, 3): (2, 2), (2, 2): (1, 2)}],
        ids=["self", "three-cycle"],
    )
    def test_cyclic_table_is_rejected(self, edges):
        rules = {s: ReductionRule(s, F(0), (((t, (5,)), F(1)),)) for s, t in edges.items()}
        with pytest.raises(ValueError, match="cycle"):
            ReductionTable(F(0), rules)

    def test_flagship_identity(self):
        spec = SeriesSpec(X1, 1, 0, (4, 1, 1, 1, 1, 1))
        total = closed_form(spec).scaled(math.factorial(5))
        got = apply_reductions(total, default_reduction_table())
        want = cf(
            F(131891, 172800),
            {
                ((5,),): 3,
                ((2,), (3,)): -1,
                ((4,),): F(-137, 48),
                ((3,),): F(12019, 1800),
                ((2,),): F(-874853, 216000),
            },
        )
        assert got == want


def _random_poly(rng):
    """One or two monomials of weighted degree <= 3, as in the desk specs."""
    poly = Polynomial.zero()
    for _ in range(rng.randint(1, 2)):
        exps: dict = {}
        remaining = rng.randint(0, 3)
        while remaining > 0:
            v = rng.randint(1, remaining)
            exps[v] = exps.get(v, 0) + 1
            remaining -= v
        key = tuple(exps.get(i, 0) for i in range(1, max(exps) + 1)) if exps else ()
        poly = poly + Polynomial({key: F(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))})
    return poly


class TestIntegerPush:
    """The coefficient push runs on integers over one denominator per rule."""

    def _spec_pairs(self, count, seed=20261018):
        rng = random.Random(seed)
        while count:
            m, z = rng.choice([1, 2]), rng.choice([F(0), F(-1, 2), F(-1, 3)])
            f1, f2 = _random_poly(rng), _random_poly(rng)
            wt = max(f.weighted_degree() for f in (f1, f2))
            s = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
            if 2 <= sum(s) <= 6 and m * wt + sum(s) <= 9:
                count -= 1
                yield (SeriesSpec(f, m, z, s) for f in (f1, f2, f1 + f2))

    def test_linear_in_the_numerator(self):
        # the push is linear in its roots, so F1 + F2 must give the sum of the two forms
        for a, b, both in self._spec_pairs(200):
            assert closed_form(both) == closed_form(a) + closed_form(b)

    def test_push_matches_a_fraction_reference(self, monkeypatch):
        # the same rules pushed one Fraction per edge, as a plain reference
        def fraction_push(ev, roots, den=1):
            coeff, constant, terms = {}, F(0), {}
            for node, c in roots:
                coeff[node] = coeff.get(node, 0) + F(c, den)
            for node, (den, const, leaves, children, _) in reversed(ev.rules.items()):
                w = coeff.pop(node, 0)
                constant += w * const
                for vec, c in leaves:
                    terms[(vec,)] = terms.get((vec,), 0) + w * F(c, den)
                for child, c in children:
                    coeff[child] = coeff.get(child, 0) + w * F(c, den)
            return cf(constant, {k: c for k, c in terms.items() if c}, ev.z, ev.m)

        real, seen = engine._Evaluator.push, []

        def recording(ev, roots, den=1):
            seen.append((ev, roots, den))
            return real(ev, roots, den)

        monkeypatch.setattr(engine._Evaluator, "push", recording)
        for specs in self._spec_pairs(100, seed=11):
            for spec in specs:
                got = closed_form(spec)
                assert got == fraction_push(*seen.pop())

    def test_coefficients_are_reduced_nonzero_fractions(self):
        for specs in self._spec_pairs(60, seed=7):
            for spec in specs:
                out = closed_form(spec)
                for c in [out.constant, *out.terms.values()]:
                    assert type(c) is F and c.denominator > 0
                    assert math.gcd(c.numerator, c.denominator) == 1
                assert all(out.terms.values())

    def test_cancelling_roots_give_zero(self):
        ev = engine._Evaluator(1, F(-1, 2))
        for node in [("step", 2, 3, (2, 1)), ("power", 3, 2, (1, 1)), ("sum", 4, 2, (3,))]:
            got = ev.push([(node, 1), (node, -1)])
            assert got == cf(0, {}, z=F(-1, 2)) and not got
            assert ev.push([(node, F(1, 3)), (node, F(2, 3))]) == ev.push([(node, 1)])


class TestClosedFormAlgebra:
    def test_scaled_by_one_is_a_copy(self):
        a = cf(F(1, 2), {((2,),): 3, ((1, 3),): F(-1, 5)}, z=F(-1, 3), m=2)
        b = a.scaled(1)
        assert b == a and b is not a and b.terms is not a.terms
        assert (b.constant, b.shift, b.order) == (F(1, 2), F(-1, 3), 2)
        b.terms[((2,),)] = F(7)
        del b.terms[((1, 3),)]
        assert a.terms == {((2,),): 3, ((1, 3),): F(-1, 5)}

    def test_scaled_by_zero_is_zero(self):
        a = cf(F(1, 2), {((2,),): 3}, z=F(-1, 3), m=2)
        zero = a.scaled(0)
        assert not zero and zero == cf(0, {}, z=F(-1, 3), m=2)

    def test_mixing_shifts_is_an_error(self):
        a = cf(0, {((2,),): 1}, z=F(0))
        b = cf(0, {((2,),): 1}, z=F(-1, 2))
        with pytest.raises(ValueError):
            a + b

    def test_scaling(self):
        a = cf(F(1, 2), {((2,),): 3})
        assert a.scaled(F(2, 3)) == cf(F(1, 3), {((2,),): 2})

    def test_rejects_bad_vector(self):
        with pytest.raises(ValueError):
            cf(0, {((2, 1),): 1})

    def test_scalar_multiples_only(self):
        # closed forms are a vector space: no zero/one constructors and no product
        a = cf(F(1, 2), {((2,),): 3})
        assert not hasattr(ClosedForm, "zero") and not hasattr(ClosedForm, "one")
        assert a * 2 == 2 * a == a * F(2) == cf(1, {((2,),): 6})
        with pytest.raises(TypeError, match="unsupported operand"):
            a * a
        with pytest.raises(TypeError, match="unsupported operand"):
            a**2


def in_order(form) -> bool:
    return list(form.terms) == sorted(form.terms, key=sort_key)


# the engine-ladder rungs: x1^k over (3, 1^k) and three more up to weight 15
LADDER = [SeriesSpec(X1**k, 1, F(-1, 2), (3,) + (1,) * k) for k in range(4, 9)] + [
    SeriesSpec(X1**6, 2, F(-1, 3), (3,) + (1,) * 6),
    SeriesSpec(X1**3 * Polynomial.variable(2) ** 2, 1, F(-1, 3), (3, 1, 1, 1)),
    SeriesSpec(X1**4, 1, F(0), (4,) + (1,) * 5),
]


def golden_forms():
    for _, argv in cases():
        req = cli.parse_request(list(argv))
        yield closed_form(req.spec).scaled(req.prefactor)


class TestTermOrder:
    """Every way of making a closed form keeps its terms in sort_key order."""

    def test_constructor_sorts_shuffled_input(self):
        rng = random.Random(5)
        keys = [((2,),), ((3,),), ((1, 2),), ((2,), (3,)), ((1, 1, 3),), ((2,), (2,)), ((5,),)]
        for _ in range(20):
            rng.shuffle(keys)
            form = cf(1, {k: rng.choice([1, -2, F(1, 3)]) for k in keys})
            assert in_order(form) and len(form.terms) == len(keys)

    def test_closed_form_on_the_ladder(self):
        for spec in LADDER:
            assert in_order(closed_form(spec))

    def test_closed_form_on_the_golden_specs(self):
        assert all(in_order(form) for form in golden_forms())

    def test_scaled_sum_and_difference(self):
        by_fields: dict = {}
        for form in golden_forms():
            by_fields.setdefault((form.shift, form.order), []).append(form)
        unsorted_merges = 0  # pairs whose keys, merged in dict order, are out of order
        for forms in by_fields.values():
            for a, b in zip(forms, forms[1:]):
                for got in (a.scaled(F(-2, 3)), a + b, a - b, b - a):
                    assert in_order(got)
                keys = list({**a.terms, **b.terms})
                unsorted_merges += keys != sorted(keys, key=sort_key)
        assert unsorted_merges > 5

    def test_apply_reductions_with_the_shipped_table(self):
        table, rewritten = default_reduction_table(), 0
        # the table rewrites few golden forms, so the binomial rung joins them
        for form in [closed_form(LADDER[-1]), *golden_forms()]:
            reduced = apply_reductions(form, table)
            assert in_order(reduced)
            rewritten += reduced != form
        assert rewritten >= 3

    def test_closed_form_from_json(self):
        for form in [closed_form(LADDER[0]), *itertools.islice(golden_forms(), 40)]:
            payload = closed_form_to_json(form)
            payload["terms"].reverse()
            back = closed_form_from_json(payload)
            assert back == form and in_order(back)


@contextlib.contextmanager
def gc_disabled():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestNoReferenceCycles:
    """The exact path frees its memory by reference counting alone."""

    def test_exact_path_leaves_no_garbage(self):
        readme = ["--F", "x1", "--z", "0", "--binomial", "4,5", "--display", "reduced"]
        with gc_disabled():
            closed_form(LADDER[2])
            assert gc.collect() == 0
            assert cli.run(cli.parse_request(readme))[0] == 0
            assert gc.collect() == 0

    def test_an_evaluator_dies_with_its_last_reference(self):
        ev = engine._Evaluator(1, F(-1, 2))
        ev.push([(("step", 2, 3, (2, 1)), 1), (("power", 3, 2, (1, 1)), 1), (("sum", 4, 2, (3,)), 1)])
        ref = weakref.ref(ev)
        with gc_disabled():
            del ev
            assert ref() is None


_RULE_1_2 = ReductionRule((1, 2), F(0), ((((3,),), F(1)),))
_RULE_1_2_REPR = "ReductionRule(source=(1, 2), constant=Fraction(0, 1), terms=((((3,),), Fraction(1, 1)),))"
_LHS, _RHS = NumericResult(F(1, 3), 0.5), NumericResult(F(-2, 7), 1e-20)
_LHS_REPR = "NumericResult(value=Fraction(1, 3), abs_err_bound=0.5)"
_RHS_REPR = "NumericResult(value=Fraction(-2, 7), abs_err_bound=1e-20)"
_MESSAGE = "discrepancy 2.500e-01 exceeds budget 1.000e-08"
_SPEC = SeriesSpec(X1, 1, "-1/2", (0, 2))
_ECHO = {"F": "x1", "s": [0, 2]}

# (class, positional fields, the same fields by keyword in field order, repr, hashable)
RECORDS = {
    "expansion": (
        PartialFractionExpansion,
        (((1, F(-1, 9)), (2, F(1, 3))), ((1, F(1, 9)),)),
        {"pole_at_zero": ((1, F(-1, 9)), (2, F(1, 3))), "pole_at_a": ((1, F(1, 9)),)},
        "PartialFractionExpansion(pole_at_zero=((1, Fraction(-1, 9)), (2, Fraction(1, 3))),"
        " pole_at_a=((1, Fraction(1, 9)),))",
        True,
    ),
    "spec": (
        SeriesSpec,
        (F(1, 2) * X1 * X1 - Polynomial.variable(2), 1, "-1/2", (2, 1, 0)),
        {"F": F(1, 2) * X1 * X1 - Polynomial.variable(2), "m": 1, "z": F(-1, 2), "s": [2, 1]},
        "SeriesSpec(F=Polynomial({(0, 1): -1, (2,): 1/2}), m=1, z=Fraction(-1, 2), s=(2, 1))",
        False,  # a Polynomial is unhashable, so the spec is too
    ),
    "rule": (
        ReductionRule,
        ((1, 2), F(0), ((((3,),), F(1)),)),
        {"source": (1, 2), "constant": F(0), "terms": ((((3,),), F(1)),)},
        _RULE_1_2_REPR,
        True,
    ),
    "table": (
        ReductionTable,
        (F(0), {(1, 2): _RULE_1_2}),
        {"shift": F(0), "rules": {(1, 2): _RULE_1_2}},
        f"ReductionTable(shift=Fraction(0, 1), rules={{(1, 2): {_RULE_1_2_REPR}}})",
        False,  # its rules are a dict
    ),
    "numeric": (
        NumericResult,
        (F(1, 3), 0.5),
        {"value": F(1, 3), "abs_err_bound": 0.5},
        _LHS_REPR,
        True,
    ),
    "report": (
        VerificationReport,
        (_LHS, _RHS, 0.25, False, 600, _MESSAGE),
        {"lhs_estimate": _LHS, "rhs_value": _RHS, "discrepancy": 0.25, "passed": False,
         "n_used": 600, "message": _MESSAGE},
        f"VerificationReport(lhs_estimate={_LHS_REPR}, rhs_value={_RHS_REPR}, discrepancy=0.25,"
        f" passed=False, n_used=600, message={_MESSAGE!r})",
        True,
    ),
    "request": (
        CliRequest,
        (_SPEC, "json", "reduced", 600, 1e-8, None, F(2), _ECHO),
        {"spec": _SPEC, "output_format": "json", "display_mode": "reduced", "verify_n": 600,
         "tolerance": 1e-8, "reduction_table_path": None, "prefactor": F(2), "echo": _ECHO},
        "CliRequest(spec=SeriesSpec(F=Polynomial({(1,): 1}), m=1, z=Fraction(-1, 2), s=(0, 2)),"
        " output_format='json', display_mode='reduced', verify_n=600, tolerance=1e-08,"
        " reduction_table_path=None, prefactor=Fraction(2, 1), echo={'F': 'x1', 's': [0, 2]})",
        False,  # its spec holds a Polynomial, and its echo is a dict
    ),
    "rendered": (
        RenderedIdentity,
        ("value = 1",),
        {"text": "value = 1"},
        "RenderedIdentity(text='value = 1')",
        True,
    ),
}


class TestRecords:
    """The package's immutable records: fields, value semantics, repr, copies and pickles."""

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_record_behaviour(self, name):
        cls, args, kwargs, text, hashable = RECORDS[name]
        record, by_keyword = cls(*args), cls(**dict(reversed(list(kwargs.items()))))
        assert record == by_keyword and not record != by_keyword
        assert record != tuple(getattr(record, field) for field in kwargs)
        assert record != type("Twin", (cls,), {"__slots__": ()})(*args)
        assert repr(record) == repr(by_keyword) == text
        if hashable:
            assert hash(record) == hash(by_keyword) and len({record, by_keyword}) == 1
        else:
            with pytest.raises(TypeError):
                hash(record)
        for field in kwargs:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, getattr(record, field))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field)
        for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(again) is cls and again == record and repr(again) == text
        if cls is SeriesSpec:
            again = pickle.loads(pickle.dumps(record))
            assert type(again.z) is F and again.z == F(-1, 2) and again.s == (2, 1)
