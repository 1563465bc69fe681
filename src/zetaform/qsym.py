"""Quasi-symmetric function algebra over exact rationals, in the monomial basis.

Elements are finite rational combinations of monomial basis functions indexed
by compositions (tuples of positive integers; the empty composition is the
unit).  Multiplication is the quasi-shuffle rule.  Specializing the underlying
variables to ``x_i = 1/(i+z)^m`` for ``i <= n`` (and 0 beyond) turns a basis
element into a finite nested harmonic sum, which is what ``evaluate_finite``
computes exactly.

Everything in this module is immutable after construction and uses
``fractions.Fraction`` coefficients throughout; no floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence, Union

Composition = tuple[int, ...]
Scalar = Union[int, Fraction]


def as_shift(z) -> Fraction:
    """Validate a series shift: a rational number in (-1, 0]."""
    try:
        zq = Fraction(z)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"shift must be rational, got {z!r}") from exc
    if zq <= -1 or zq > 0:
        raise ValueError(f"shift must lie in (-1, 0], got {zq}")
    return zq


def sort_key(key) -> tuple:
    """The canonical order of basis keys: weight, then depth, then the parts.

    A key is a tuple of integers (a composition, an exponent vector, a zeta
    vector) or a tuple of such tuples (a product of zeta values), whose
    weight and depth add up over its factors.
    """
    flat = [e for v in key for e in v] if key and isinstance(key[0], tuple) else key
    return (sum(flat), len(flat), key)


def add_term(terms: dict, key, coeff) -> None:
    """terms[key] += coeff in place, dropping the key when it cancels."""
    total = terms.get(key, 0) + coeff
    if total:
        terms[key] = total
    else:
        terms.pop(key, None)


def compositions(n: int) -> Iterator[Composition]:
    """All compositions of n, the empty one for n = 0."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def compositions_with_length(n: int, k: int) -> Iterator[Composition]:
    """Compositions of n with exactly k (positive) parts."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(1, n - k + 2):
        for rest in compositions_with_length(n - first, k - 1):
            yield (first,) + rest


class _LinComb:
    """Shared plumbing for dict-backed rational linear combinations.

    The constructor is the boundary for keys from outside: it validates and
    normalizes each one.  Arithmetic keeps keys canonical, so its results are
    built through `_like` and `_add_scaled` without validating them again.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, coeff in items:
                add_term(self.terms, self._validate_key(key), Fraction(coeff))

    @classmethod
    def _validate_key(cls, key):  # pragma: no cover - overridden
        raise NotImplementedError

    def _like(self, terms: dict):
        """A new element with self's type and fixed fields holding `terms`.

        The terms must already be canonical and nonzero.  Subclasses with
        extra fields extend this hook instead of copying the arithmetic.
        """
        out = object.__new__(type(self))
        out.terms = terms
        return out

    def _add_scaled(self, other, c) -> None:
        """self += c * other, in place: only for an element not yet handed out."""
        if not self.terms:  # an empty target takes c * other whole
            terms = other.terms
            self.terms = dict(terms) if c == 1 else {k: c * v for k, v in terms.items() if c}
            return
        for key, coeff in other.terms.items():
            add_term(self.terms, key, c * coeff)

    def _combine(self, *parts):
        """The sum of c * x over the (x, c) pairs, with self's fixed fields."""
        out = self._like({})
        for x, c in parts:
            out._add_scaled(x, c)
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._combine((self, 1), (other, 1))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._combine((self, 1), (other, -1))

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, scalar):
        return self._combine((self, Fraction(scalar)))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    __mul__ = __rmul__  # scalars only; _Algebra adds the product

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: sort_key(kv[0]))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in self.sorted_terms())
        return f"{type(self).__name__}({{{body}}})"


class _Algebra(_LinComb):
    """A _LinComb with a product: keys multiply through `_mul_keys`, and the key () is one."""

    @classmethod
    def _mul_keys(cls, a, b):  # pragma: no cover - overridden
        raise NotImplementedError

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): 1})

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return self.__rmul__(other)
        out = self._like({})
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                c = ca * cb
                for key, mult in self._mul_keys(ka, kb):
                    add_term(out.terms, key, c * mult)
        return out

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = type(self).one()
        for _ in range(exponent):
            result = result * self
        return result


class _Record:
    """An immutable record of the fields a subclass names in `_fields`, held in `__slots__`.

    Built by position or keyword, then handed to `__post_init__`, which may check it
    and normalize a field or fill a further slot through `object.__setattr__`.  Equal
    only within its type, hashed and shown by field values; copies and pickles are
    rebuilt through the constructor, so they are checked too.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(values) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        for name in self._fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, *value):
        from dataclasses import FrozenInstanceError  # the library path never loads dataclasses
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"


@lru_cache(maxsize=None)
def _stuffle(a: Composition, b: Composition) -> tuple:
    """Quasi-shuffle of two single compositions, as ((composition, count), ...)."""
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    out: dict = {}
    x, xs = a[0], a[1:]
    y, ys = b[0], b[1:]
    for comp, c in _stuffle(xs, b):
        key = (x,) + comp
        out[key] = out.get(key, 0) + c
    for comp, c in _stuffle(a, ys):
        key = (y,) + comp
        out[key] = out.get(key, 0) + c
    for comp, c in _stuffle(xs, ys):
        key = (x + y,) + comp
        out[key] = out.get(key, 0) + c
    return tuple(sorted(out.items()))


class QSymExpr(_Algebra):
    """A quasi-symmetric function written in the monomial basis."""

    @classmethod
    def _validate_key(cls, key) -> Composition:
        comp = tuple(key)
        if any(not isinstance(p, int) or p < 1 for p in comp):
            raise ValueError(f"composition parts must be positive integers: {key!r}")
        return comp

    @classmethod
    def _mul_keys(cls, a, b):
        return _stuffle(a, b)

    @classmethod
    def monomial(cls, comp: Iterable[int]) -> "QSymExpr":
        return cls({tuple(comp): 1})


class Polynomial(_Algebra):
    """Polynomial over Q in variables x1, x2, ... (exponent-vector keys)."""

    @classmethod
    def _validate_key(cls, key) -> tuple[int, ...]:
        exps = tuple(key)
        if any(not isinstance(e, int) or e < 0 for e in exps):
            raise ValueError(f"exponents must be nonnegative integers: {key!r}")
        while exps and exps[-1] == 0:
            exps = exps[:-1]
        return exps

    @classmethod
    def _mul_keys(cls, a, b):
        n = max(len(a), len(b))
        a = a + (0,) * (n - len(a))
        b = b + (0,) * (n - len(b))
        return ((cls._validate_key(tuple(x + y for x, y in zip(a, b))), 1),)

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        if index < 1:
            raise ValueError("variables are indexed from 1")
        return cls({(0,) * (index - 1) + (1,): 1})

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls({(): value})

    def max_variable(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def weighted_degree(self) -> int:
        # degree with variable x_i carrying weight i
        return max(
            (sum((i + 1) * e for i, e in enumerate(k)) for k in self.terms),
            default=0,
        )

    def evaluate(self, values: Sequence, convert=lambda c: c):
        """Evaluate at values[i] for x_{i+1}; `convert` maps each coefficient."""
        if self.max_variable() > len(values):
            raise ValueError("not enough values supplied")
        total = convert(Fraction(0))
        for exps, coeff in self.terms.items():
            term = convert(coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * values[i] ** e
            total = total + term
        return total


def quasi_shuffle(a: QSymExpr, b: QSymExpr) -> QSymExpr:
    """Product of two quasi-symmetric functions in the monomial basis."""
    if not isinstance(a, QSymExpr) or not isinstance(b, QSymExpr):
        raise TypeError("quasi_shuffle expects two QSymExpr values")
    return a * b


def power_sum(k: int) -> QSymExpr:
    """k-th power sum: the single-part monomial basis element."""
    if k < 1:
        raise ValueError("power_sum requires k >= 1")
    return QSymExpr.monomial((k,))


def elementary(k: int) -> QSymExpr:
    """k-th elementary symmetric function: the all-ones composition."""
    if k < 0:
        raise ValueError("elementary requires k >= 0")
    return QSymExpr.monomial((1,) * k)


def complete(k: int) -> QSymExpr:
    """k-th complete homogeneous symmetric function: all compositions of k."""
    if k < 0:
        raise ValueError("complete requires k >= 0")
    return QSymExpr({comp: 1 for comp in compositions(k)})


def monomial_sum(n: int, k: int) -> QSymExpr:
    """Sum of monomial basis elements of weight n and depth k.

    The degenerate conventions: zero for k = 0 with n >= 1, the unit for
    n = k = 0.
    """
    if n < 0 or k < 0:
        raise ValueError("monomial_sum requires n, k >= 0")
    if k == 0:
        return QSymExpr.one() if n == 0 else QSymExpr.zero()
    return QSymExpr({comp: 1 for comp in compositions_with_length(n, k)})


def _weighted_partitions(total: int) -> Iterator[tuple[int, ...]]:
    # exponent vectors (k_1, ..., k_total) with sum i*k_i = total
    def rec(remaining: int, part: int):
        if part == 0:
            if remaining == 0:
                yield ()
            return
        for count in range(remaining // part + 1):
            for rest in rec(remaining - part * count, part - 1):
                yield rest + (count,)

    yield from rec(total, total)


def bell_polynomial(k: int, args: Sequence):
    """Modified Bell polynomial of the given arguments.

    Defined by ``exp(sum x_j t^j / j) = sum_k P_k t^k``; explicitly the sum
    over exponent vectors with ``sum j*k_j = k`` of
    ``prod (x_j/j)^{k_j} / k_j!``.  Arguments may be any ring elements
    supporting ``+``, ``*`` and Fraction scaling (QSymExpr or Polynomial).
    """
    if k < 0:
        raise ValueError("bell_polynomial requires k >= 0")
    if len(args) < k:
        raise ValueError(f"bell_polynomial needs at least {k} arguments")
    one = type(args[0]).one() if args else QSymExpr.one()
    if k == 0:
        return one
    total = None
    for exps in _weighted_partitions(k):
        scale = Fraction(1)
        term = one
        for j, kj in enumerate(exps, start=1):
            if not kj:
                continue
            scale /= Fraction(j) ** kj * math.factorial(kj)
            for _ in range(kj):
                term = term * args[j - 1]
        term = scale * term
        total = term if total is None else total + term
    return total


def poly_to_qsym(poly: Polynomial) -> QSymExpr:
    """Substitute x_i -> i-th power sum and expand via quasi-shuffle."""
    den = math.lcm(*(c.denominator for c in poly.terms.values()))  # sums in integers over den
    totals: dict = {}
    for exps, coeff in poly.terms.items():
        term = {(): coeff.numerator * (den // coeff.denominator)}
        for i, e in enumerate(exps, start=1):
            for _ in range(e):
                prod: dict = {}
                for comp, n in term.items():
                    for key, mult in _stuffle(comp, (i,)):
                        add_term(prod, key, n * mult)
                term = prod
        for comp, n in term.items():
            add_term(totals, comp, n)
    return QSymExpr()._like({comp: Fraction(n, den) for comp, n in totals.items()})


def _finite_zeta(comp: Composition, n: int, m: int, z: Fraction) -> Fraction:
    if not comp:
        return Fraction(1)
    prev = [Fraction(1)] * (n + 1)
    for a in comp:
        cur = [Fraction(0)] * (n + 1)
        acc = Fraction(0)
        for t in range(1, n + 1):
            acc += prev[t - 1] / (t + z) ** (m * a)
            cur[t] = acc
        prev = cur
    return prev[n]


def evaluate_finite(u: QSymExpr, n: int, m: int, z) -> Fraction:
    """Exact value of u under x_i = 1/(i+z)^m for i <= n, zero beyond."""
    zq = as_shift(z)
    if n < 1:
        raise ValueError("evaluate_finite requires n >= 1")
    if m < 1:
        raise ValueError("evaluate_finite requires m >= 1")
    total = Fraction(0)
    for comp, coeff in u.terms.items():
        total += coeff * _finite_zeta(comp, n, m, zq)
    return total
