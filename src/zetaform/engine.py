"""Closed-form evaluation of harmonic-number series.

Given a polynomial ``F``, a harmonic order ``m``, a rational shift ``z`` in
(-1, 0] and a denominator exponent vector ``s``, the series

    sum_{n>=1} F(H_n^(m)(z), H_n^(2m)(z), ...) / prod_i (n+i-1+z)^{s_i}

equals an exact rational constant plus a rational combination of multiple
Hurwitz zeta values ``zeta(v_1, ..., v_k; z)``.  ``closed_form`` computes that
combination exactly: the polynomial becomes a quasi-symmetric function in the
monomial basis, the exponent vector is reduced to canonical families, and the
telescoping and partial-fraction identities write each (family, basis element)
value as a linear rule over smaller values, zeta vectors and finite harmonic
values.  One pass over those rules pushes the coefficients down to the atoms.
"""

from __future__ import annotations

import gc
import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import gcd, lcm
from typing import Optional

from .qsym import (
    Composition,
    Polynomial,
    _LinComb,
    _Record,
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
    mono = tuple(sorted((check_vector(v) for v in factors), key=sort_key))
    if not mono:
        raise ValueError("a zeta monomial needs a factor; a rational term is the constant")
    return mono


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
    sorts every monomial; sums and multiples reuse the canonical keys.  Every
    way of making one keeps the terms in `sort_key` order, which `sorted_terms` reads.
    """

    __slots__ = ("constant", "shift", "order")

    def __init__(self, constant, terms, shift, order):
        super().__init__(terms)
        self._sort()
        self.constant, self.shift, self.order = Fraction(constant), Fraction(shift), order

    _validate_key = staticmethod(monomial_key)

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
        merge = self.terms and other.terms  # an empty target takes other's order whole
        super()._add_scaled(other, c)
        if merge:
            self._sort()
        self.constant += c * other.constant

    def _sort(self) -> None:
        self.terms = {key: self.terms[key] for key in sorted(self.terms, key=sort_key)}

    def sorted_terms(self) -> list:
        return list(self.terms.items())

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


class SeriesSpec(_Record):
    """One series instance: numerator polynomial F, order m, shift z, exponents s."""

    __slots__ = _fields = ("F", "m", "z", "s")

    def __post_init__(self):
        if not isinstance(self.F, Polynomial):
            raise TypeError("F must be a Polynomial")
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError("m must be a positive integer")
        object.__setattr__(self, "z", as_shift(self.z))
        object.__setattr__(self, "s", as_index(self.s))


def _accumulate(totals: dict, key, num: int, den: int) -> None:
    """totals[key] += num/den, kept as an unreduced (numerator, lcm of denominators) pair."""
    n, d = totals.get(key, (0, den))
    g = d if d == den else gcd(d, den)
    totals[key] = (n * (den // g) + num * (d // g), d // g * den)


@lru_cache(maxsize=None)
def _root_shape(key: Index) -> tuple:
    """((kind, a, p), c) pairs summing to a canonical `key`; a node adds the composition."""
    kind, x, y = classify(key)
    if kind == "power":
        return ((("power", x, y), 1),)
    if kind == "pair":
        return tuple((("step", len(k2) - 2, 1), c) for k2, c in expand_double_one(x, y).items())
    raise ValueError(f"not a canonical key: {key!r}")


class _Evaluator:
    """Values of canonical families on basis elements, for one fixed (m, z).

    Each value is stored once, as a local linear rule: a rational constant,
    and zeta-vector leaves and child values with integer numerators over one
    positive rule denominator, plus the highest leaf weight reachable from it.
    There are three node kinds: telescoping steps ("step", a, p, comp), whose
    p = 1 case is the adjacent pair (0^a, 1, 1); lone powers ("power", a, p,
    comp); and prefix sums ("sum", a, p, comp) of the steps at shifts 1..a,
    whose rule step(a) + sum(a - 1) makes a run of steps cost one edge, not a.
    `rules` holds each rule after its children's, so `push` walks it backwards
    once.
    """

    def __init__(self, m: int, z: Fraction):
        self.m = m
        self.z = Fraction(z)
        self.rules: dict = {}  # node -> (den, constant, leaves, children, max weight)
        self.harmonics: dict = {}  # l -> [H_0^(l)(z), H_1^(l)(z), ...]

    def build(self, node) -> int:
        """Store the rules from `node` down; return its max leaf weight before cancellation."""
        rule = self.rules.get(node)
        if rule is None:
            kind, a, p, comp = node
            den, constant, leaves, children = _RULES[kind](self, a, p, comp)
            top = max([sum(vec) for vec, _ in leaves], default=0)
            for child, _ in children:
                weight = self.build(child)
                if weight > top:
                    top = weight
            rule = self.rules[node] = (den, constant, leaves, children, top)
        return rule[4]

    def push(self, roots, den: int = 1) -> ClosedForm:
        """The closed form of the sum of (c / den) * node over the (node, c) `roots`.

        Parents come first in the walk, so each node has its total coefficient
        before it pushes it into its constant, leaves and children.  Totals are
        integer numerators over a running denominator; a node's is reduced
        once, and each surviving leaf becomes one Fraction, in `sort_key` order.
        """
        total: dict = {}
        for node, c in roots:
            self.build(node)
            _accumulate(total, node, c.numerator, c.denominator * den)
        constant, leaf = Fraction(0), {}
        for node, (rule_den, const, leaves, children, _) in reversed(self.rules.items()):
            num, d = total.pop(node, (0, 1))
            if not num:
                continue
            if const:
                constant += Fraction(num, d) * const
            g = gcd(num, d)
            num, d = num // g, d // g * rule_den
            for into, edges in ((leaf, leaves), (total, children)):  # _accumulate, inline
                for key, c in edges:
                    n, e = into.get(key, (0, d))
                    if e == d:
                        into[key] = (n + num * c, d)
                    else:
                        g = gcd(e, d)
                        into[key] = (n * (d // g) + num * c * (e // g), e // g * d)
        out = ClosedForm(constant, {}, self.z, self.m)
        out.terms = {(v,): Fraction(*leaf[v]) for v in sorted(leaf, key=sort_key) if leaf[v][0]}
        return out

    def _step(self, a: int, p: int, comp: Composition):
        """Telescoping step: the (0^a, p) value minus the (0^(a+1), p) value.

        For p = 1 this is the adjacent pair (0^a, 1, 1).  At a = 0 one
        telescoping collapses its tail; at a >= 1 with last part > 1, splitting
        only 1/(x^m (x+a)) of 1/(x^(m*last) (x+a)), x = n+z, lowers the last
        part: the poles at 0 are zeta values, the one at -a the lowered step.

        Otherwise split 1/((n_k+z)^w (n_k+a+z)^p), w = m*last, by
        `partial_fraction`.  A pole of order l >= 2, at 0 or at -a, gives
        zeta(prefix, l); the zeta parts of the simple poles cancel.  Moving a
        pole at -a to 0 costs a sum over the shifts 1..a: H_a^(l)(z), or the
        prefix sum on the prefix.
        """
        if not comp:
            return 1, Fraction(1) / (a + 1 + self.z) ** p, (), ()
        prefix, last = comp[:-1], comp[-1]
        pv = prefix if self.m == 1 else tuple(self.m * x for x in prefix)
        if p == 1 and a == 0:
            return 1, 0, [(pv + (self.m * last + 1,), 1)], ()
        if p == 1 and last > 1:
            if last > 2 and ("step", a, 1, prefix + (last - 1,)) not in self.rules:
                for j in range(1, last - 1):  # bottom up, so a long chain recurses no deeper
                    self.build(("step", a, 1, prefix + (j,)))
            den, at_zero, at_a = partial_fraction(self.m, 1, a).over_common_denominator
            leaves = [(pv + (self.m * (last - 1) + l,), c) for l, c in at_zero]
            return den, 0, leaves, [(("step", a, 1, prefix + (last - 1,)), at_a[0][1])]
        den, at_zero, at_a = partial_fraction(self.m * last, p, a).over_common_denominator
        leaves = [(pv + (l,), c) for l, c in at_zero[1:] + at_a[1:]]
        if prefix:
            return den, 0, leaves, [(("sum", a, l, prefix), -c) for l, c in at_a]
        return den, -sum(c * self._harmonic(a, l) for l, c in at_a) / den, leaves, ()

    def _sum(self, a: int, p: int, comp: Composition):
        """Sum of the telescoping steps at shifts 1..a (a >= 1)."""
        if a > 2 and ("sum", a - 1, p, comp) not in self.rules:
            for j in range(1, a - 1):  # bottom up, so a long run recurses no deeper
                self.build(("sum", j, p, comp))
        rest = [(("sum", a - 1, p, comp), 1)] if a > 1 else []
        return 1, 0, (), [(("step", a, p, comp), 1)] + rest

    def _power(self, a: int, p: int, comp: Composition):
        """Lone-power family (0^a, p), p >= 2: the zeta value less the steps below a."""
        if not comp:
            return 1, -self._harmonic(a, p), [((p,), 1)], ()
        base = tuple(self.m * x for x in comp)
        if a == 0:
            return 1, 0, [(base[:-1] + (base[-1] + p,), 1), (base + (p,), 1)], ()
        return 1, 0, [(base + (p,), 1)], [(("sum", a - 1, p, comp), -1)] if a > 1 else ()

    def _harmonic(self, a: int, l: int) -> Fraction:
        """H_a^(l)(z) = harmonic_value(a, l, z), each new a one term past the last."""
        values = self.harmonics.setdefault(l, [Fraction(0)])
        while len(values) <= a:
            values.append(values[-1] + 1 / (len(values) + self.z) ** l)
        return values[a]


# node kind -> rule; unbound, since bound methods kept on the evaluator would form a cycle
_RULES = {"step": _Evaluator._step, "sum": _Evaluator._sum, "power": _Evaluator._power}


def closed_form(spec: SeriesSpec) -> ClosedForm:
    """Full pipeline: exact closed form of the series described by `spec`.

    Automatic cyclic garbage collection is paused while it runs and put back as found.
    """
    enabled = gc.isenabled()
    gc.disable()  # the exact path forms no reference cycles, so the collector frees nothing
    try:
        u = poly_to_qsym(spec.F)
        ev = _Evaluator(spec.m, spec.z)
        shapes: dict = {}  # node shape -> its coefficient summed over the canonical keys
        for key, c1 in canonicalize(spec.s).items():
            for shape, c in _root_shape(key):
                shapes[shape] = shapes.get(shape, 0) + c1 * c
        den_s = lcm(*(c.denominator for c in shapes.values()))
        den_u = lcm(*(c.denominator for c in u.terms.values()))
        nums_s = [(shape, c.numerator * (den_s // c.denominator)) for shape, c in shapes.items()]
        roots = []  # each root node with its integer numerator over den_s * den_u
        for comp, cu in u.terms.items():
            bound = spec.m * sum(comp) + sum(spec.s)
            nu = cu.numerator * (den_u // cu.denominator)
            for shape, ns in nums_s:
                node = shape + (comp,)
                weight = ev.build(node)
                if weight > bound:
                    raise AssertionError(f"emitted weight {weight} exceeds bound {bound}")
                roots.append((node, ns * nu))
        return ev.push(roots, den_s * den_u)
    finally:
        if enabled:
            gc.enable()


def index_value(index, comp, m: int, z) -> ClosedForm:
    """Closed form of one exponent-vector functional on one basis element."""
    ev, comp, comb = _Evaluator(m, as_shift(z)), tuple(comp), canonicalize(as_index(index))
    return ev.push([(s + (comp,), c1 * c) for k, c1 in comb.items() for s, c in _root_shape(k)])


def telescope_value(a: int, p: int, comp, m: int, z) -> ClosedForm:
    """Closed form of the telescoping step on one basis element (a >= 1)."""
    if a < 1:
        raise ValueError("telescope_value requires a >= 1")
    if p < 1:
        raise ValueError("telescope_value requires p >= 1")
    return _Evaluator(m, as_shift(z)).push([(("step", a, p, tuple(comp)), 1)])


def pair_family_value(b: int, comp, m: int, z) -> ClosedForm:
    """Closed form of the adjacent-pair family (0^b, 1, 1) on a basis element."""
    if b < 0:
        raise ValueError("pair_family_value requires b >= 0")
    return _Evaluator(m, as_shift(z)).push([(("step", b, 1, tuple(comp)), 1)])


def power_family_value(a: int, p: int, comp, m: int, z) -> ClosedForm:
    """Closed form of the lone-power family (0^a, p) on a basis element."""
    if a < 0:
        raise ValueError("power_family_value requires a >= 0")
    if p < 2:
        raise ValueError("power family requires p >= 2")
    return _Evaluator(m, as_shift(z)).push([(("power", a, p, tuple(comp)), 1)])


# ---------------------------------------------------------------------------
# Known-reduction tables
# ---------------------------------------------------------------------------


class ReductionRule(_Record):
    __slots__ = _fields = ("source", "constant", "terms")  # terms: ((ZetaMonomial, Fraction), ...)


class ReductionTable(_Record):
    """Reduction rules, each keyed by its source, at one shift; no rule may reach its source.

    That lets apply_reductions follow each monomial to the end.  The check
    peels off rules whose terms hold no remaining source until none is left.
    """

    __slots__ = _fields = ("shift", "rules")

    def __post_init__(self):
        for v, r in self.rules.items():
            if r.source != v:
                raise ValueError(f"reduction table: the rule filed under {v} has source {r.source}")
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


def _table_from_json(raw: bytes) -> ReductionTable:
    """Parse and validate a UTF-8 JSON table; any malformed one is a ValueError.

    "rules" is a required list of objects.  As in closed-form JSON, vector
    entries must be JSON integers and the rationals strings or integers.
    """
    try:
        data = json.loads(raw.decode("utf-8"))
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
    with open(path, "rb") as fh:
        return _table_from_json(fh.read())


def default_reduction_table() -> ReductionTable:
    """The shipped z = 0 table: the three depth-two reductions of weight <= 5."""
    shipped = resources.files("zetaform").joinpath("data/reductions_z0.json")
    return _table_from_json(shipped.read_bytes())


def apply_reductions(cf: ClosedForm, table: Optional[ReductionTable]) -> ClosedForm:
    """Substitute table rules into a closed form until no factor has a rule.

    Rules apply only when the table shift matches the closed form's shift;
    vectors without an entry pass through unchanged.  A worklist follows
    each monomial down its rules; it ends because a table has no cycle.
    """
    if table is None or table.shift != cf.shift or not table.rules:
        return cf
    out = cf._like({})
    out.constant = cf.constant
    work = list(cf.terms.items())
    while work:
        mono, coeff = work.pop()
        pos = next((i for i, v in enumerate(mono) if v in table.rules), None)
        if pos is None:
            add_term(out.terms, mono, coeff)
            continue
        rule = table.rules[mono[pos]]
        rest = mono[:pos] + mono[pos + 1 :]
        if rule.constant:
            if rest:
                work.append((rest, coeff * rule.constant))
            else:
                out.constant += coeff * rule.constant
        for tmono, tc in rule.terms:
            work.append((tuple(sorted(rest + tmono, key=sort_key)), coeff * tc))
    out._sort()
    return out
