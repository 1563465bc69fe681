"""Reduction of series denominator exponent vectors to canonical families.

An exponent vector ``(s_1, ..., s_k)`` of nonnegative integers with total
weight >= 2 labels the linear functional sending a quasi-symmetric function
``u`` to ``sum_n u(n) / prod_i (n+i-1+z)^{s_i}``.  Every such functional is a
rational combination of two canonical families: a lone power after leading
zeros, ``(0^a, p)`` with p >= 2, and a pair of ones possibly separated by
zeros, ``(0^a, 1, 0^b, 1)``.

``reduce_index`` runs one fixed pivot rule: split the first and last nonzero
exponents via the identity of ``partial_fraction`` and strip trailing zeros.
Each split lowers the weight by one, so it pushes one weight level down to the
next until every key has weight 2, is a lone power or is a run of ones.
``canonicalize`` then rewrites each run by its closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .qsym import _Record

Index = tuple[int, ...]
Combination = dict[Index, Fraction]


class DivergentSeriesError(ValueError):
    """Raised when an exponent vector has weight < 2 (the series diverges)."""


def _strip(vec) -> Index:
    t = tuple(vec)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def as_index(s) -> Index:
    """Validate and normalize an exponent vector (strip trailing zeros)."""
    vec = tuple(s)
    if not vec or any(not isinstance(v, int) or v < 0 for v in vec):
        raise ValueError(f"exponents must be nonnegative integers: {s!r}")
    vec = _strip(vec)
    if sum(vec) < 2:
        raise DivergentSeriesError(
            f"exponent vector {tuple(s)!r} has weight {sum(vec)} < 2; "
            "the series diverges"
        )
    return vec


class PartialFractionExpansion(_Record):
    """Coefficients of 1/(x^k (x+a)^m) against 1/x^l and 1/(x+a)^l, as (l, Fraction) pairs.

    `over_common_denominator`, set at construction, is (den, pole_at_zero,
    pole_at_a) with integer numerators over one den > 0.
    """

    _fields = ("pole_at_zero", "pole_at_a")
    __slots__ = _fields + ("over_common_denominator",)

    def __post_init__(self):
        poles = (self.pole_at_zero, self.pole_at_a)
        den = math.lcm(*(c.denominator for pole in poles for _, c in pole))
        over = (den,) + tuple(tuple((l, int(c * den)) for l, c in pole) for pole in poles)
        object.__setattr__(self, "over_common_denominator", over)


@lru_cache(maxsize=None)
def partial_fraction(k: int, m: int, a: int) -> PartialFractionExpansion:
    """Expand 1/(x^k (x+a)^m) into simple poles at 0 and -a.

    For positive integers k, m, a the expansion is exact:
    coefficient ``C(k-l+m-1, m-1) (-1)^(k-l) / a^(m+k-l)`` on ``1/x^l`` and
    ``C(k-l+m-1, k-1) (-1)^k / a^(m+k-l)`` on ``1/(x+a)^l``.  Results are
    memoized; the frozen expansion is safe to share.
    """
    if k < 1 or m < 1 or a < 1:
        raise ValueError("partial_fraction requires positive k, m, a")
    at_zero = tuple(
        (l, Fraction(math.comb(k - l + m - 1, m - 1) * (-1) ** (k - l), a ** (m + k - l)))
        for l in range(1, k + 1)
    )
    at_a = tuple(
        (l, Fraction(math.comb(k - l + m - 1, k - 1) * (-1) ** k, a ** (m + k - l)))
        for l in range(1, m + 1)
    )
    return PartialFractionExpansion(at_zero, at_a)


def classify(key: Index) -> tuple:
    """Shape of a reduced unit.

    Returns ("power", a, p) for (0^a, p); ("pair", a, b) for (0^a, 1, 0^b, 1);
    ("ones", a, c) for a trailing run of c >= 3 ones; ("general", None, None)
    otherwise.
    """
    key = _strip(key)  # so its last entry, if any, is nonzero
    n = len(key) - key.count(0)  # nonzero entries, counted by C-level tuple scans
    if n == 1:
        return ("power", len(key) - 1, key[-1])
    if n and key.count(1) == n:
        a = key.index(1)
        if n == 2:
            return ("pair", a, len(key) - a - 2)
        if n == len(key) - a:
            return ("ones", a, n)
    return ("general", None, None)


def reduce_index(s) -> Combination:
    """Rewrite an exponent vector as a combination of reduction units.

    One stop rule ends the pivot: weight-2 keys (such as the pairs
    (0^a, 1, 0^b, 1)), lone powers (0^a, p) and runs of ones (0^a, 1^n), n >= 3.
    The pivot is (first nonzero, last nonzero), which pins the output.  Each
    pivot lowers the weight by one, so the vectors of one weight are pushed
    down together, one weight at a time, and a stop key is reached at its own
    weight only.
    """
    level, out = {as_index(s): Fraction(1)}, {}
    while level:
        lower = {}
        for t, c in level.items():
            if sum(t) == 2 or classify(t)[0] in ("power", "ones"):
                out[t] = c
                continue
            nz = [i for i, v in enumerate(t) if v]
            i, j = nz[0], nz[-1]
            c /= j - i
            for p, share in ((j, c), (i, -c)):
                low = _strip(t[:p] + (t[p] - 1,) + t[p + 1 :])
                lower[low] = share + lower.get(low, 0)
        level = {t: c for t, c in lower.items() if c}
    return out


def expand_double_one(a: int, b: int) -> Combination:
    """Average of shifted adjacent pairs equal to (0^a, 1, 0^b, 1)."""
    if a < 0 or b < 0:
        raise ValueError("expand_double_one requires a, b >= 0")
    coeff = Fraction(1, b + 1)
    return {(0,) * (r + a) + (1, 1): coeff for r in range(b + 1)}


def expand_ones_run(a: int, c: int) -> Combination:
    """Expansion of the run (0^a, 1^(c+2)) into shifted adjacent pairs: `canonicalize` of it."""
    if a < 0 or c < 0:
        raise ValueError("expand_ones_run requires a, c >= 0")
    return canonicalize((0,) * a + (1,) * (c + 2))


def canonicalize(s) -> Combination:
    """Fully canonical combination: only (0^a, p) and (0^a, 1, 0^b, 1) keys.

    `reduce_index`, with each run rewritten by the paper's closed form
    (0^a, 1^n) = sum_r (-1)^r C(n-2, r) / (n-1)! (0^(a+r), 1, 1), r = 0..n-2.
    """
    comb, out = reduce_index(s), {}
    # one integer denominator: a run key (0^a, 1^n) has n <= len(key), so (n-1)! divides it
    den = math.lcm(*(c.denominator for c in comb.values())) * math.factorial(max(map(len, comb)))
    for key, coeff in comb.items():
        kind, a, n = classify(key)
        num = coeff.numerator * (den // coeff.denominator)
        if kind != "ones":
            out[key] = out.get(key, 0) + num
            continue
        scale = num // math.factorial(n - 1)
        for r in range(n - 1):
            pair = (0,) * (a + r) + (1, 1)
            out[pair] = out.get(pair, 0) + scale * (-1) ** r * math.comb(n - 2, r)
    return {key: Fraction(c, den) for key, c in out.items() if c}
