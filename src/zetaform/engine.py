"""Closed-form evaluation of harmonic-number series.

Given a polynomial ``F``, a harmonic order ``m``, a rational shift ``z`` in
(-1, 0] and a denominator exponent vector ``s``, the series

    sum_{n>=1} F(H_n^(m)(z), H_n^(2m)(z), ...) / prod_i (n+i-1+z)^{s_i}

equals an exact rational constant plus a rational combination of multiple
Hurwitz zeta values ``zeta(v_1, ..., v_k; z)``.  ``closed_form`` computes that
combination exactly: the polynomial becomes a quasi-symmetric function in the
monomial basis, the exponent vector is reduced to canonical families, and each
(family, basis element) pair is evaluated by telescoping and partial-fraction
recursions whose only atoms are zeta vectors and finite harmonic values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping, Optional

from .qsym import (
    Composition,
    Polynomial,
    _LinComb,
    add_term,
    as_shift,
    poly_to_qsym,
    sort_key,
)
from .reducer import (
    Index,
    as_index,
    canonicalize,
    classify,
    expand_double_one,
    partial_fraction,
)

ZetaVector = tuple[int, ...]
ZetaMonomial = tuple[ZetaVector, ...]  # sorted multiset of vectors


def check_vector(v: ZetaVector) -> ZetaVector:
    vec = tuple(v)
    if not vec or any(not isinstance(e, int) or e < 1 for e in vec) or vec[-1] < 2:
        raise ValueError(
            f"zeta vector must have entries >= 1 and last entry >= 2: {v!r}"
        )
    return vec


def monomial_key(factors) -> ZetaMonomial:
    return tuple(sorted((check_vector(v) for v in factors), key=sort_key))


def harmonic_value(a: int, ell: int, z) -> Fraction:
    """Exact finite harmonic value: sum of 1/(j+z)^ell for j = 1..a."""
    zq = as_shift(z)
    if a < 0 or ell < 1:
        raise ValueError("harmonic_value requires a >= 0 and ell >= 1")
    return sum((Fraction(1) / (j + zq) ** ell for j in range(1, a + 1)), Fraction(0))


class ClosedForm(_LinComb):
    """Exact rational constant plus zeta-monomial combination at fixed (z, m).

    The shared rational linear combination (`qsym._LinComb`) over zeta
    monomials, sorted tuples of zeta vectors, plus the constant and the
    (shift, order) the zeta values belong to.  The constructor validates and
    sorts every monomial; sums and multiples reuse the canonical keys.
    """

    __slots__ = ("constant", "shift", "order")

    def __init__(self, constant, terms, shift, order):
        super().__init__(terms)
        self.constant = Fraction(constant)
        self.shift = Fraction(shift)
        self.order = order

    _validate_key = staticmethod(monomial_key)
    __mul__ = _LinComb.__rmul__  # scalars only: closed forms have no product

    def _like(self, terms: dict) -> "ClosedForm":
        out = super()._like(terms)
        out.constant, out.shift, out.order = Fraction(0), self.shift, self.order
        return out

    def _add_scaled(self, other: "ClosedForm", c) -> None:
        if self.shift != other.shift or self.order != other.order:
            raise ValueError(
                "cannot combine closed forms with different (shift, order): "
                f"({self.shift}, {self.order}) vs ({other.shift}, {other.order})"
            )
        super()._add_scaled(other, c)
        self.constant += c * other.constant

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClosedForm):
            return NotImplemented
        mine = (self.constant, self.terms, self.shift, self.order)
        return mine == (other.constant, other.terms, other.shift, other.order)

    def __bool__(self) -> bool:
        return bool(self.constant or self.terms)

    def __repr__(self) -> str:
        fields = (self.constant, self.terms, self.shift, self.order)
        return f"ClosedForm({', '.join(map(repr, fields))})"

    def zeta_coefficient(self, vector) -> Fraction:
        """Coefficient of a single zeta value (depth-one monomial)."""
        return self.terms.get((check_vector(vector),), Fraction(0))

    def max_weight(self) -> int:
        return max((sum(sum(v) for v in mono) for mono in self.terms), default=0)


@dataclass(frozen=True)
class SeriesSpec:
    """One series instance: numerator polynomial, order, shift, exponents."""

    F: Polynomial
    m: int
    z: Fraction
    s: Index

    def __post_init__(self):
        if not isinstance(self.F, Polynomial):
            raise TypeError("F must be a Polynomial")
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError("m must be a positive integer")
        object.__setattr__(self, "z", as_shift(self.z))
        object.__setattr__(self, "s", as_index(self.s))


class _Evaluator:
    """Per-pipeline-call evaluator for canonical families on basis elements.

    Memoizes the two recursions (adjacent-pair values and telescoping steps)
    for the fixed (m, z) of one closed_form invocation.
    """

    def __init__(self, m: int, z: Fraction):
        self.m = m
        self.z = Fraction(z)
        self._pair: dict = {}
        self._t: dict = {}

    def _zero(self) -> ClosedForm:
        return ClosedForm(Fraction(0), {}, self.z, self.m)

    def _const(self, value: Fraction) -> ClosedForm:
        return ClosedForm(value, {}, self.z, self.m)

    def _zetas(self, *vectors: ZetaVector) -> ClosedForm:
        out = self._zero()
        for vec in vectors:
            add_term(out.terms, (vec,), Fraction(1))
        return out

    def pair_value(self, b: int, comp: Composition) -> ClosedForm:
        """Value of the adjacent-pair family (0^b, 1, 1) on a basis element.

        The series sum_n M_comp(n) / ((n+b+z)(n+b+1+z)).  For b = 0 a single
        telescoping collapses the tail; for b >= 1, splitting
        1/((n+z)^m (n+b+z)) into simple poles yields a recursion that lowers
        either the last part or the depth of the composition.
        """
        key = (b, comp)
        hit = self._pair.get(key)
        if hit is not None:
            return hit
        m = self.m
        if not comp:
            cf = self._const(Fraction(1, 1) / (b + 1 + self.z))
        elif b == 0:
            cf = self._zetas(tuple(m * a for a in comp[:-1]) + (m * comp[-1] + 1,))
        elif comp[-1] == 1:
            cf = self._split(b, 1, comp)
        else:
            # split only the factor 1/(x^m (x+b)) of 1/(x^(m*last) (x+b)),
            # x = n+z: the poles at 0 are zeta values, the one at -b is the
            # pair value on the composition with its last part lowered
            lowered = comp[:-1] + (comp[-1] - 1,)
            base = tuple(m * a for a in lowered)
            pf = partial_fraction(m, 1, b)
            cf = self._zero()
            for l, c in pf.pole_at_zero:
                add_term(cf.terms, (base[:-1] + (base[-1] + l,),), c)
            cf._add_scaled(self.pair_value(b, lowered), pf.pole_at_a[0][1])
        self._pair[key] = cf
        return cf

    def t_value(self, a: int, p: int, comp: Composition) -> ClosedForm:
        """Telescoping step: the (0^a, p) value minus the (0^(a+1), p) value.

        Defined for a >= 1, p >= 1; for p = 1 it coincides with the
        adjacent-pair family at shift a.
        """
        if p == 1:
            return self.pair_value(a, comp)
        key = (a, p, comp)
        hit = self._t.get(key)
        if hit is not None:
            return hit
        if not comp:
            cf = self._const(Fraction(1, 1) / (a + 1 + self.z) ** p)
        else:
            cf = self._split(a, p, comp)
        self._t[key] = cf
        return cf

    def _split(self, a: int, p: int, comp: Composition) -> ClosedForm:
        """Split 1/((n_k+z)^w (n_k+a+z)^p), w = m*last, by `partial_fraction`.

        A pole of order l >= 2, at 0 or at -a, gives zeta(prefix, l); the
        zeta parts of the two simple poles cancel.  Moving a pole at -a to 0
        costs a finite sum over the shifts 1..a: the harmonic value
        H_a^(l)(z) when the prefix is empty, else the prefix's t values.
        """
        prefix = comp[:-1]
        pv = tuple(self.m * x for x in prefix)
        pf = partial_fraction(self.m * comp[-1], p, a)
        cf = self._zero()
        for l, c in pf.pole_at_zero[1:] + pf.pole_at_a[1:]:
            add_term(cf.terms, (pv + (l,),), c)
        for l, c in pf.pole_at_a:
            if prefix:
                for j in range(1, a + 1):
                    cf._add_scaled(self.t_value(j, l, prefix), -c)
            else:
                cf.constant -= c * harmonic_value(a, l, self.z)
        return cf

    def power_value(self, a: int, p: int, comp: Composition) -> ClosedForm:
        """Value of the lone-power family (0^a, p), p >= 2, on a basis element."""
        if p < 2:
            raise ValueError("power family requires p >= 2")
        if not comp:
            cf = self._zetas((p,))
            cf.constant = -harmonic_value(a, p, self.z)
            return cf
        base = tuple(self.m * x for x in comp)
        if a == 0:
            return self._zetas(base[:-1] + (base[-1] + p,), base + (p,))
        cf = self._zetas(base + (p,))
        for j in range(1, a):
            cf._add_scaled(self.t_value(j, p, comp), -1)
        return cf

    def key_value(self, key: Index, comp: Composition) -> ClosedForm:
        kind, x, y = classify(key)
        if kind == "power":
            return self.power_value(x, y, comp)
        if kind == "pair":
            cf = self._zero()
            for k2, c2 in expand_double_one(x, y).items():
                cf._add_scaled(self.pair_value(len(k2) - 2, comp), c2)
            return cf
        raise ValueError(f"not a canonical key: {key!r}")


def closed_form(spec: SeriesSpec) -> ClosedForm:
    """Full pipeline: exact closed form of the series described by `spec`."""
    u = poly_to_qsym(spec.F)
    comb = canonicalize(spec.s)
    ev = _Evaluator(spec.m, spec.z)
    total = ev._zero()
    for key, c1 in comb.items():
        for comp, c2 in u.terms.items():
            part = ev.key_value(key, comp)
            bound = spec.m * sum(comp) + sum(spec.s)
            if part.max_weight() > bound:
                raise AssertionError(
                    f"emitted weight {part.max_weight()} exceeds bound {bound}"
                )
            total._add_scaled(part, c1 * c2)
    return total


def index_value(index, comp, m: int, z) -> ClosedForm:
    """Closed form of one exponent-vector functional on one basis element."""
    ev = _Evaluator(m, as_shift(z))
    total = ev._zero()
    for key, coeff in canonicalize(as_index(index)).items():
        total._add_scaled(ev.key_value(key, tuple(comp)), coeff)
    return total


def telescope_value(a: int, p: int, comp, m: int, z) -> ClosedForm:
    """Closed form of the telescoping step on one basis element (a >= 1)."""
    if a < 1:
        raise ValueError("telescope_value requires a >= 1")
    if p < 1:
        raise ValueError("telescope_value requires p >= 1")
    return _Evaluator(m, as_shift(z)).t_value(a, p, tuple(comp))


def pair_family_value(b: int, comp, m: int, z) -> ClosedForm:
    """Closed form of the adjacent-pair family (0^b, 1, 1) on a basis element."""
    if b < 0:
        raise ValueError("pair_family_value requires b >= 0")
    return _Evaluator(m, as_shift(z)).pair_value(b, tuple(comp))


def power_family_value(a: int, p: int, comp, m: int, z) -> ClosedForm:
    """Closed form of the lone-power family (0^a, p) on a basis element."""
    if a < 0:
        raise ValueError("power_family_value requires a >= 0")
    return _Evaluator(m, as_shift(z)).power_value(a, p, tuple(comp))


# ---------------------------------------------------------------------------
# Known-reduction tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionRule:
    source: ZetaVector
    constant: Fraction
    terms: tuple  # ((ZetaMonomial, Fraction), ...)


@dataclass(frozen=True)
class ReductionTable:
    """Reduction rules by source vector; no rule may reach its own source.

    That lets apply_reductions substitute until nothing changes.  The check
    peels off rules whose terms hold no remaining source until none is left.
    """

    shift: Fraction
    rules: Mapping[ZetaVector, ReductionRule]

    def __post_init__(self):
        reach = {v: {u for mono, _ in r.terms for u in mono} for v, r in self.rules.items()}
        left = set(reach)
        while left:
            leaves = {v for v in left if not reach[v] & left}
            if not leaves:
                raise ValueError(f"reduction table: the rules for {sorted(left)} form a cycle")
            left -= leaves

    def __len__(self) -> int:
        return len(self.rules)


def _is_json(value, *types) -> bool:
    # bool is an int subclass; int() would silently truncate a float
    return isinstance(value, types) and not isinstance(value, bool)


def _need(value, *types):
    """`value` if it is a JSON value of one of `types`; a rational comes back a Fraction."""
    if not _is_json(value, *types):
        names = " or ".join(t.__name__ for t in types)
        raise ValueError(f"{json.dumps(value)} is not a JSON {names}")
    return Fraction(value) if str in types else value


def _vector(v) -> ZetaVector:
    return check_vector(tuple(_need(e, int) for e in _need(v, list)))


def _terms(items) -> tuple:
    """(monomial, Fraction) pairs of a JSON list of {"factors", "coeff"} objects."""
    return tuple(
        (monomial_key(map(_vector, _need(t["factors"], list))), _need(t["coeff"], str, int))
        for t in _need(items, list)
    )


def _table_from_dict(data) -> ReductionTable:
    """Validate a parsed reduction table; any malformed one is a ValueError.

    "rules" is a required list of objects.  As in closed-form JSON, vector
    entries must be JSON integers and the rationals strings or integers.
    """
    try:
        rules = {}
        for entry in _need(_need(data, dict)["rules"], list):
            terms = _terms(entry.get("terms", []))
            source = _vector(entry["source"])
            constant = _need(entry.get("constant", "0"), str, int)
            rules[source] = ReductionRule(source, constant, terms)
        shift = as_shift(_need(data.get("shift", "0"), str, int))
    except (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed reduction table ({type(exc).__name__}: {exc})") from None
    return ReductionTable(shift, rules)


def load_reduction_table(path) -> ReductionTable:
    """Load a reduction table from a JSON file (rationals as "p/q" strings)."""
    with open(path, "r", encoding="utf-8") as fh:
        return _table_from_dict(json.load(fh))


def default_reduction_table() -> ReductionTable:
    """The shipped z = 0 table: the three depth-two reductions of weight <= 5."""
    text = resources.files("zetaform").joinpath("data/reductions_z0.json").read_text()
    return _table_from_dict(json.loads(text))


def apply_reductions(cf: ClosedForm, table: Optional[ReductionTable]) -> ClosedForm:
    """Substitute table rules into a closed form, iterating to a fixed point.

    Rules apply only when the table shift matches the closed form's shift;
    vectors without an entry pass through unchanged.
    """
    if table is None or table.shift != cf.shift or not table.rules:
        return cf
    work, changed = cf, True
    while changed:
        new = cf._like({})
        new.constant = work.constant
        changed = False
        for mono, coeff in work.terms.items():
            pos = next((i for i, v in enumerate(mono) if v in table.rules), None)
            if pos is None:
                add_term(new.terms, mono, coeff)
                continue
            changed = True
            rule = table.rules[mono[pos]]
            rest = mono[:pos] + mono[pos + 1 :]
            if rule.constant:
                if rest:
                    add_term(new.terms, rest, coeff * rule.constant)
                else:
                    new.constant += coeff * rule.constant
            for tmono, tc in rule.terms:
                add_term(new.terms, tuple(sorted(rest + tmono, key=sort_key)), coeff * tc)
        work = new
    return work
