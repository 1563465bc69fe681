"""Independent numeric oracle for closed forms and raw series.

Multiple Hurwitz zeta values of every depth are evaluated by nested backward
summation in fixed-point integers from a cutoff set by the working precision
(40 up to 34 digits).  Every level, a tail sum, starts from its large-n
expansion in powers of 1/(n+z), whose exact coefficients, integers over one
denominator, come level by level from the Hurwitz zeta expansion with
Bernoulli numbers (DLMF 25.11.43).  A raw series is summed directly in
fixed-point integer arithmetic for its first N terms; its tail, the summand's
large-n expansion in ln^d(x)/x^q (x = n + z) from the same Hurwitz zeta
expansion, is summed by Euler-Maclaurin with a stated remainder, so
verification never reuses the symbolic machinery it is checking.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial, reduce
from fractions import Fraction
from itertools import accumulate, count, repeat
from operator import add, floordiv, mul, rshift

from .engine import ClosedForm, SeriesSpec, ZetaVector, check_vector
from .qsym import _Record, as_shift

DESK_MAX_DEPTH = 5
DESK_MAX_WEIGHT = 10
DESK_MAX_TERMS = 10**6
MHZ_CUTOFF = 40
GUARD_BITS = 24
HEAD_BLOCK = 256  # raw-series terms summed per pass of list operations


@lru_cache(maxsize=None)
def _tangent_numbers(n: int) -> tuple:
    """T_1..T_n of tan x = sum T_k x^(2k-1)/(2k-1)!: Brent and Harvey's O(n^2) recurrence (2011)."""
    T = list(accumulate(range(1, n), mul, initial=1))  # T_k = (k-1)! to start
    for k in range(1, n):
        for j in range(k, n):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return tuple(T)


@lru_cache(maxsize=None)
def _bernoulli(k: int) -> tuple:
    """B_k in lowest terms, B_1 = -1/2: B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)), from a
    tangent table grown by doubling."""
    if k < 2 or k % 2:
        return ((1, 1), (-1, 2))[k] if k < 2 else (0, 1)
    m, den = k // 2, 2**k * (2**k - 1)  # 4^m (4^m - 1)
    num = (-1) ** (m - 1) * k * _tangent_numbers(1 << (m - 1).bit_length())[m - 1]
    return num // (g := math.gcd(num, den)), den // g


class DeskLimitError(ValueError):
    """Raised when a request exceeds the documented desk-scale caps."""


class NumericResult(_Record):
    """An exact value and its error bound: value is a Fraction (the oracle's fixed-point sum over
    2^wp, or the LHS estimate), abs_err_bound a float rounded up."""

    __slots__ = _fields = ("value", "abs_err_bound")

    def __float__(self) -> float:
        return float(self.value)


def _float_up(x: Fraction) -> float:
    """The least float >= x, so that a stated bound never sits below the exact one."""
    return f if (f := float(x)) >= x else math.nextafter(f, math.inf)


class VerificationReport(_Record):
    """lhs_estimate and rhs_value are NumericResults, discrepancy a float, passed a bool, n_used
    (the head summed) an int, and message a str, empty when the identity passed."""

    __slots__ = _fields = ("lhs_estimate", "rhs_value", "discrepancy", "passed", "n_used",
                           "message")


def _width(abs_err: float) -> tuple:
    """(wp, cutoff) for a target absolute error: the verifier's one width rule.

    dps = max(30, floor(-log10 abs_err) + 12) digits in double precision, prec = round((dps + 1)
    log2 10) bits for them, wp = prec + GUARD_BITS, cutoff = max(MHZ_CUTOFF, 6 dps // 5).
    """
    if not 0 < abs_err < math.inf:
        raise ValueError("abs_err must be positive and finite")
    dps = max(30, int(-math.log10(abs_err)) + 12)
    return round((dps + 1) * math.log2(10)) + GUARD_BITS, max(MHZ_CUTOFF, 6 * dps // 5)


def _check_terms(N: int) -> None:
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if N > DESK_MAX_TERMS:
        raise DeskLimitError(f"N={N} exceeds desk cap {DESK_MAX_TERMS}")


def _reduced(den: int, nums) -> tuple:
    """(den, nums) with their common factor divided out."""
    g = math.gcd(den, *nums)
    return den // g, tuple(n // g for n in nums)


@lru_cache(maxsize=None)
def _zeta_tail(sigma: int, order: int) -> tuple:
    """(den, nums, past): zeta(sigma, x+1) ~ sum_p nums[p] / (den x^p), and its rest past order.

    zeta(sigma, x+1) ~ sum_k B_k (sigma)_(k-1)/k! x^(1-sigma-k) with B_1 = -1/2
    and (sigma)_(-1) = 1/(sigma-1) (DLMF 25.11.43): B_k C(sigma+k-2, k)/(sigma-1).
    For sigma = 1 the k = 0 term is left out (-psi(x+1) has -ln x there) and
    the others are B_k / k.  Exact, over the least common denominator; no z.
    nums runs through p = max(order + 2, sigma + 1), past the first B_2K term past order.
    past[i], on 1/x^(order+1+i), majorizes the rest for x > 0: the terms past order through
    that one, it twice, as Euler-Maclaurin's remainder after the B_2k, k < K, is at most
    2 |B_2K|/(2K)! |f^(2K-1)(x)| (DLMF 2.10.2; f^(2K) has one sign).
    """
    top = max(order + 2, sigma + 1)
    nums, dens = [0] * (top + 1), [1] * (top + 1)
    for k in range(0 if sigma > 1 else 1, top + 2 - sigma):
        p, (b, d) = sigma - 1 + k, _bernoulli(k)
        nums[p], dens[p] = (b * math.comb(p - 1, k), d * (sigma - 1)) if sigma > 1 else (b, d * k)
    den, nums = _reduced(lcm := math.lcm(*dens), [n * (lcm // d) for n, d in zip(nums, dens)])
    last = sigma - 1 + 2 * max(1, (order + 3 - sigma) // 2)  # the B_2K term
    return den, nums, (*map(abs, nums[order + 1 : last]), 2 * abs(nums[last]))


@lru_cache(maxsize=None)
def _level_expansion(svec: ZetaVector, top: int) -> tuple:
    """f(n) ~ sum_p nums[p] / (den x^p), x = n + z, p <= top, as (den, nums).

    f(n) = sum_{n < t_1 < ... < t_k} prod (t_i + z)^-s_i.  Going inward to outward, each term
    c / x^q of the inner level's expansion adds c times the expansion of zeta(s_1 + q, x + 1),
    in integers over the lcm of their denominators, reduced once; no z, no dps: _mhz_once takes top
    from _level_order, which sets only how tight its bound is.  U = nums[top + 1] bounds the rest:
    |f(n) - the sum| <= U / (den x^(top+1)) for x >= x0 = MHZ_CUTOFF - 1.  It adds
    |c| times each zeta's rest (_zeta_tail) and the inner U times sum_{t>n} (t+z)^-(s_1+top+1)
    <= x^-(s_1+top) / (s_1+top); x^-p <= x0^(top+1-p) x^-(top+1) for p > top + 1.
    """
    s, x0 = svec[0], MHZ_CUTOFF - 1
    den, inner = _level_expansion(svec[1:], top) if len(svec) > 1 else (1, (1, 0))
    tails = [(c, _zeta_tail(s + q, top)) for q, c in enumerate(inner[:-1]) if c]
    lcm = math.lcm(*(d for _, (d, _, _) in tails))
    out, rest = [0] * (top + 1), -(-inner[-1] * lcm * x0 // (s + top))  # over den lcm x0^s
    for c, (d, nums, past) in tails:
        c *= lcm // d
        for p, b in enumerate(nums[: top + 1]):
            if b:
                out[p] += c * b
        rest += abs(c) * sum(u * x0 ** (s - i) for i, u in enumerate(past))
    reduced, nums = _reduced(den * lcm, out)
    return reduced, nums + (-(-rest * reduced // (den * lcm * x0**s)),)


def _level_order(wp: int, c: int) -> int:
    """The least top with top! / (2 pi (c - 1))^top <= 2^-wp at cutoff c, 2 pi as 710/113.

    |B_k|/k! ~ 2/(2 pi)^k (DLMF 24.9) sizes the zeta-tail terms at c, times (2/top) (2 pi)^(sigma-1)
    / (sigma-1)! (at most about 5 at 30 digits); past 2 pi (c - 1), where top stops, they grow.
    It sets only how tight the bound is; tested, the level rest at c is at most 3 units of 2^-wp.
    """
    t, fac, bt = 1, 113 << wp, (b := 710 * (c - 1))  # 2^wp 113^t t!, b^t; b ~ 113 (2 pi) (c - 1)
    while 113 * t < b and fac > bt:
        t, fac, bt = t + 1, fac * 113 * (t + 1), bt * b
    return t


def _mhz_once(svec: ZetaVector, zq: Fraction, cutoff: int, wp: int) -> tuple:
    """(value, bound) at a fixed cutoff >= MHZ_CUTOFF, both integers in units u = 2^-wp.

    Level j is f_j(n) = sum_{t>n} (t+z)^-s_j f_(j+1)(t), with f_k = 1 and the value f_0(0).  Each
    level starts at n = cutoff from its expansion to _level_order's top, summed exactly at
    x = cutoff + z and floored, then runs back to n = 0 in fixed point at wp bits: for z = p/q
    the weight is floor(q^s 2^wp / (q n + p)^s) and a product is (w f) >> wp.

    Error, in units of u, bounded beside the sum: level j's own error e_j is its expansion's
    stated rest at x, a ceiling, plus under 1 + 3c floors at cutoff c (the start; per step the
    weight's floor times the inner level at n >= 1, at most its z = 0 multiple zeta value, below
    zeta(2) by the sum theorem, and the product's floor).  E_j <= e_j + ceil(W_j E_(j+1) / 2^wp),
    E_k = 0, W_j the level's floored weights each rounded up by a unit, over t >= 2 for an inner
    level, whose f(0) is never read, and t >= 1 for the outermost.  The bound is E_0.
    """
    p, q = zq.numerator, zq.denominator
    x, top = q * cutoff + p, _level_order(wp, cutoff)  # x = q (cutoff + z)
    f, bound = [1 << wp] * (cutoff + 1), 0
    for j in range(len(svec) - 1, -1, -1):
        (den, nums), acc, W = _level_expansion(svec[j:], top), 0, 0
        for k, c in enumerate(nums[:-1]):
            acc = acc * x + c * q**k
        acc, scaled = (acc << wp) // (den * x**top), q ** svec[j] << wp
        for n in range(cutoff, 0, -1):
            w = scaled // (q * n + p) ** svec[j]
            f[n], acc, W = acc, acc + (w * f[n] >> wp), W + w + 1
        W -= w + 1 if j else 0  # an inner level is read at n >= 1: its weights at t >= 2
        rest = -(-(nums[-1] * q ** (top + 1) << wp) // (den * x ** (top + 1)))
        bound = rest + 1 + 3 * cutoff - (-W * bound >> wp)
    return acc, bound


def mhz_numeric(v, z, abs_err: float = 1e-12) -> NumericResult:
    """Multiple Hurwitz zeta value with an error bound.

    Desk-scale only (depth <= 5, weight <= 10).  The value is exact, over 2^wp with (wp, cutoff)
    = _width(abs_err), and depends on nothing else.  Every depth, 1 included, is summed once in
    fixed point at that cutoff, each level from its expansion to _level_order's top; the bound
    is _mhz_once's (each level's majorant and floors, an inner level's carried through the outer
    level's weights), rounded up to a float, and nothing more.
    """
    vec = check_vector(v)
    if len(vec) > DESK_MAX_DEPTH:
        raise DeskLimitError(f"vector depth {len(vec)} exceeds {DESK_MAX_DEPTH}")
    if sum(vec) > DESK_MAX_WEIGHT:
        raise DeskLimitError(f"vector weight {sum(vec)} exceeds {DESK_MAX_WEIGHT}")
    return _mhz(vec, as_shift(z), *_width(abs_err))


@lru_cache(maxsize=None)
def _mhz(vec: ZetaVector, zq: Fraction, wp: int, cutoff: int) -> NumericResult:
    value, bound = _mhz_once(vec, zq, cutoff, wp)
    return NumericResult(Fraction(value, 1 << wp), _float_up(Fraction(bound, 1 << wp)))


def closed_form_numeric(cf: ClosedForm, abs_err: float = 1e-10) -> NumericResult:
    """Evaluate a closed form exactly from the oracle's values, propagating their bounds.

    Only the bound is rounded, up.  A term c prod v, each v off by at most its bound e, is off by at
    most |c| (prod (|v| + e) - prod |v|), every product of the errors included.  Each v is asked
    for abs_err over the factor count plus one, or the least positive float if that underflows.
    """
    if not 0 < abs_err < math.inf:
        raise ValueError("abs_err must be positive and finite")
    budget = max(abs_err / (sum(len(mono) for mono in cf.terms) + 1), math.ulp(0))
    total, bound = cf.constant, Fraction(0)
    for mono, coeff in cf.terms.items():
        factors = [mhz_numeric(v, cf.shift, budget) for v in mono]
        prod = math.prod(r.value for r in factors)
        total += coeff * prod
        wide = math.prod(abs(r.value) + Fraction(r.abs_err_bound) for r in factors)
        bound += abs(coeff) * (wide - abs(prod))
    return NumericResult(total, _float_up(bound))


def series_partial_sum(spec: SeriesSpec, N: int) -> Fraction:
    """Exact partial sum of the series through n = N, term by term: the head's reference."""
    _check_terms(N)
    H, total = [Fraction(0)] * spec.F.max_variable(), Fraction(0)
    for x in (n + spec.z for n in range(1, N + 1)):
        H = [h + x ** -(i * spec.m) for i, h in enumerate(H, 1)]
        total += spec.F.evaluate(H) / math.prod((x + i) ** e for i, e in enumerate(spec.s))
    return total


def _powers(values, e: int):
    """Each of values raised to e, lazily."""
    return values if e == 1 else map(mul, values, values) if e == 2 else map(pow, values, repeat(e))


class _SeriesSummer:
    """Incremental partial sums of one series, in fixed point at wp bits.

    With z = p/q, x = q n + p, and F's coefficients written a_k / L over
    their least common denominator L, L times the n-th summand is

        q^S sum_k a_k prod_i H_i^e_ik / prod_i (x + i q)^s_i,

    where H_i, the harmonic number of order r = i m, grows by q^r / x^r at
    each n.  Every quotient is the floor of one a / b, one = 2^wp, and
    `advance_to` returns the sum as an exact Fraction.  A monomial of degree
    d has its coefficient premultiplied by q^S one^(T - d), T = max(D, 1),
    D = deg F; each numerator t is shifted right by (T - 1) wp bits and
    divided by prod (x + i q)^s_i = P alone.  As
    floor(floor(t / 2^k) / P) = floor(t / (2^k P)) for integers t, k >= 0,
    P >= 1 (Concrete Mathematics 3.2), each summand is the one floor of
    t / (one^(T - 1) P), at scale one.
    Terms are summed HEAD_BLOCK at a time in list operations: per H_i one
    column of running sums, each monomial an element-wise product of those
    columns, the denominators a product of columns, and one sum of quotients.
    Each floor is the one a term-by-term sum takes, so the sums, and the
    bound below, are the same.

    Fixed-point truncation: after n terms each stored H_i is below the true one by less than
    n 2^-wp (one floor per increment), which is at most n 2^-wp of its value because
    H_i >= (1+z)^-r >= 1.  A monomial of degree d is then off by at most d n 2^-wp of its value,
    and the division's floor adds less than 2^-wp / L.  With |F| the polynomial with coefficients
    |a_k| / L, which grows with every H_i, and the sum over n of 1/prod (n+i+z)^s_i at most
    a^-S + a^(1-S)/(S-1), a = 1 + i0 + z (the product is at least (n+i0+z)^S, i0 the first i
    with s_i > 0), a partial sum through N differs from the exact one by less than

        N 2^-wp (1/L + D |F|(H_N) (a^-S + a^(1-S)/(S-1))),

    which `error_bound` returns exactly.
    """

    def __init__(self, spec: SeriesSpec, wp: int):
        self.spec, self.wp, one = spec, wp, 1 << wp
        self.p, self.q = spec.z.numerator, spec.z.denominator
        self.L = math.lcm(*(c.denominator for c in spec.F.terms.values()))
        self.D = spec.F.degree()
        top = max(self.D, 1)
        q_S = self.q ** sum(spec.s)
        self.monomials = [
            (
                c.numerator * (self.L // c.denominator) * q_S * one ** (top - sum(exps)),
                [(i, e) for i, e in enumerate(exps) if e],
            )
            for exps, c in spec.F.terms.items()
        ] or [(0, [])]  # F = 0: one zero monomial, so every block has a first numerator
        ell = spec.F.max_variable()
        self.q_powers = [self.q ** (i * spec.m) * one for i in range(1, ell + 1)]
        self.den_factors = [(i * self.q, e) for i, e in enumerate(spec.s) if e]
        self.shift = (top - 1) * wp
        self.scale = one * self.L
        self.harmonics = [0] * ell
        self.total = 0
        self.n = 0

    def advance_to(self, M: int) -> Fraction:
        H, q = self.harmonics, self.q
        while self.n < M:
            start, self.n = self.n, min(M, self.n + HEAD_BLOCK)
            xs = range(q * start + q + self.p, q * self.n + self.p + 1, q)
            steps = power = list(_powers(xs, self.spec.m))
            columns = []
            for i, q_r in enumerate(self.q_powers):
                power = list(map(mul, power, steps)) if i else power
                increments = map(floordiv, repeat(q_r), power)
                columns.append(list(accumulate(increments, initial=H[i] + next(increments))))
                H[i] = columns[-1][-1]
            terms = []
            for a, exps in self.monomials:
                factors = [_powers(columns[i], e) for i, e in exps]
                if a != 1 or not factors:
                    factors.append(repeat(a, len(xs)))
                terms.append(reduce(partial(map, mul), factors))
            tops = reduce(partial(map, add), terms)
            if self.shift:
                tops = map(rshift, tops, repeat(self.shift))
            dens = (_powers(range(xs.start + iq, xs.stop + iq, q), e) for iq, e in self.den_factors)
            self.total += sum(map(floordiv, tops, reduce(partial(map, mul), dens)))
        return Fraction(self.total, self.scale)

    def error_bound(self) -> Fraction:
        """Bound on |fixed-point partial sum - exact one| through self.n, from the floors above."""
        n, unit = self.n, Fraction(1, 1 << self.wp)
        S, a = sum(self.spec.s), 1 + next(i for i, e in enumerate(self.spec.s) if e) + self.spec.z
        size = self.spec.F.evaluate([(h + n) * unit for h in self.harmonics], abs)
        tail = a**-S + a ** (1 - S) / (S - 1)  # >= sum of 1/prod (n+i+z)^s_i
        return n * unit * (Fraction(1, self.L) + self.D * size * tail)

    def constants(self, a: Fraction) -> tuple:
        """zeta(r, 1+z) of each H^(r) (-psi(1+z) for r = 1), and their error bound, in 2^-wp units.

        Each is H_M^(r) plus the _tail_order of 1/x^r from the exact a = M + 1 + z, off by
        less than that tail's bound plus M units, one per floor of H_M^(r)'s increments.
        The bound is None if a tail's remainder stops shrinking.
        """
        constants, errors = [], [0]
        for i, h in enumerate(self.harmonics):
            tail, bound = _tail_order((1, {((i + 1) * self.spec.m, 0): 1}), a, self.wp)
            constants.append(h + tail)
            errors.append(None if bound is None else bound + self.n)
        return constants, None if None in errors else max(errors)


# ---------------------------------------------------------------------------
# Raw-series limit: exact head plus an Euler-Maclaurin tail with a stated remainder
# ---------------------------------------------------------------------------

# With x = n + z and 1/(x+i)^e = x^-e (1 + i/x)^-e, the summand times x^S, S = sum(s),
# expands in ln^d(x) / x^j.  An expansion through an order is (den, {(j, d): c}): exact
# integers c on ln^d(x) / (den x^j), and at (order + 1, d) a majorant of the rest for x >= A
# (a Taylor model).  den carries 2^wp; ln^d(x)/x^j <= A^(k-j) ln^d(x)/x^k for j >= k folds
# terms past an order into it, A = X/qa exact, by ceiling division, the only rounding.

LHS_HEAD_FLOOR = 20
_MAX_ORDER = 64


def _series_mul(a: tuple, b: tuple, order: int, A: Fraction) -> tuple:
    """Product through 1/x^order; pairs past it fold in via folds[k] (b from k on), as ceilings."""
    (den_a, a), (den_b, b), out = a, b, {}
    folds = [{d: abs(c) for (jj, d), c in b.items() if jj == j} for j in range(order + 2)]
    for k in range(order, -1, -1):
        for d, u in folds[k + 1].items():
            folds[k][d] = folds[k].get(d, 0) - (-u * A.denominator // A.numerator)
    for (j1, d1), c1 in a.items():
        for (j2, d2), c2 in b.items():
            if j1 + j2 <= order:
                key = (j1 + j2, d1 + d2)
                out[key] = out.get(key, 0) + c1 * c2
        for d2, u in folds[order + 1 - j1].items():
            out[order + 1, d1 + d2] = out.get((order + 1, d1 + d2), 0) + abs(c1) * u
    return den_a * den_b, out


def _harmonic_expansion(r: int, constant: int, order: int, A: Fraction, wp: int) -> tuple:
    """H_n^(r)(z) for large x = n + z, through 1/x^order, from _SeriesSummer.constants.

    H_n^(r)(z) = zeta(r, 1+z) - zeta(r, x+1), or psi(x+1) - psi(1+z) for r = 1 (DLMF
    5.11.2), where psi(x+1) = ln x - (the r = 1 coefficients).  The majorant folds
    _zeta_tail's rest at A, rounded up by a ceiling.
    """
    (den, nums, past), one = _zeta_tail(r, order), 1 << wp
    out = {(0, 0): constant * den, (0, 1): den * one} if r == 1 else {(0, 0): constant * den}
    out |= {(p, 0): -c * one for p, c in enumerate(nums[: order + 1]) if c}
    rest = sum(u / A**i for i, u in enumerate(past))  # exact
    return den * one, out | {(order + 1, 0): math.ceil(rest * one)}


def _summand_expansion(spec: SeriesSpec, order: int, constants, A: Fraction, wp: int) -> tuple:
    """x^S times the summand F(H..)/prod (x+i)^s_i, through 1/x^order; constants over 2^wp."""
    harmonics = [
        _harmonic_expansion(i * spec.m, c, order, A, wp) for i, c in enumerate(constants, 1)
    ]
    den, out, one = 1, {}, 1 << wp
    for exps, c in spec.F.terms.items():
        d, term = c.denominator, {(0, 0): c.numerator}
        for h, e in zip(harmonics, exps):
            for _ in range(e):
                d, term = _series_mul((d, term), h, order, A)
        lcm = math.lcm(den, d)
        out = {k: out.get(k, 0) * (lcm // den) + term.get(k, 0) * (lcm // d) for k in out | term}
        den = lcm
    for i, e in enumerate(spec.s):
        if i and e:
            binomial = {(j, 0): (-i) ** j * math.comb(e + j - 1, j) * one for j in range(order + 2)}
            binomial[order + 1, 0] = abs(binomial[order + 1, 0])  # Lagrange remainder
            den, out = _series_mul((den, out), (one, binomial), order, A)
    return den, out


@lru_cache(maxsize=None)
def _em_rule(q: int, d: int, k: int) -> tuple:
    """Step k of Euler-Maclaurin for f = ln^d(x) / x^q, in integers: (term, remainder bound, P_2k).

    f^(n)(x) = P_n(ln x) / x^(q+n), P_0 = L^d, P_(n+1) = P_n' - (q+n) P_n;
    int_A^oo w |P_2k|(ln x) / x^p dx = A^(1-p) Q(ln A), Q = (w |P_2k| + Q') / (p-1).
    Term B_2k/(2k)! P_(2k-1) and bound Q, p = q + 2k, w = 2 |B_2k|/(2k)!, for K = k, over
    A^(1-q-2k) as (den, numerators of ln^i(A)): the term over (2k)! den(B_2k), Q over one
    reduced denominator.  k = 0 has no term and the integral of f, for q = 1 the regularized
    -ln^(d+1)(A)/(d+1), so 1/x sums to -psi(A) (K >= 1).  Exact; no precision in the key.
    """
    P, prev = _em_rule(q, d, k - 1)[2] if k else (0,) * d + (1,), ()
    if q + 2 * k == 1:
        return (1, ()), (d + 1, (0,) * (d + 1) + (-1,)), P
    for p in range(q + max(2 * k - 2, 0), q + 2 * k):
        prev, P = P, tuple((i + 1) * e - p * c for i, (c, e) in enumerate(zip(P, P[1:] + (0,))))
    b, den = _bernoulli(2 * k)
    den, p1 = den * math.factorial(2 * k), q + 2 * k - 1
    w, Q = 2 * abs(b) if k else 1, [0] * (d + 2)
    # Q[t] = N[t] / (den p1^(d+1)): N[t] holds the factor p1^t, so each // is exact
    for t in range(d, -1, -1):
        Q[t] = (w * abs(P[t]) * p1 ** (d + 1) + (t + 1) * Q[t + 1]) // p1
    return (den, tuple(b * c for c in prev)), _reduced(den * p1 ** (d + 1), Q[:-1]), P


def _atanh(n: int, d: int, P: int) -> int:
    """atanh(t) 2^P, t = n/d in [0, 1/3], as floors of sum t^(2k+1)/(2k+1): under 3 (K + 1) low
    for K terms kept, as each power t^(2k+1) 2^P, a floor of the last times t^2, is under 9/8 low
    (9/8 t^2 + 1), each term so under 3, and the rest, past the first zero power, under 2."""
    total, p, k, n2, d2 = 0, (n << P) // d, 1, n * n, d * d
    while p:
        total, p, k = total + p // k, p * n2 // d2, k + 2
    return total


_ln2 = lru_cache(maxsize=None)(lambda P: 2 * _atanh(1, 3, P))  # one per width


def _logs(a: Fraction, powers: int, W: int) -> tuple:
    """round(ln^i(a) 2^W), i <= powers, half to even, for a rational a > 0: each within a unit.

    ln a = e ln 2 + 2 atanh(t), t = (r - 1)/(r + 1), r = a/2^e in [2^-1/2, 2^1/2), |t| < 0.18, and
    ln 2 = 2 atanh(1/3), both by _atanh at P = max(W, 0) + 64 + powers bitlen(B) bits, B = |e| + 2
    > |ln a| + 1, in K <= P/3 + 1 terms: their sum y is under 2 B (P + 6) off ln(a) 2^P, so
    y^i 2^(W - P i) is under 2 i (P + 6) B^i 2^(W - P) <= powers (P + 6) 2^-63 of a unit off.
    """
    e = (X := a.numerator).bit_length() - (Y := a.denominator).bit_length()
    X, Y = (X, Y << e) if e >= 0 else (X << -e, Y)  # r = X/Y in (1/2, 2)
    if X * X >= 2 * Y * Y or 2 * X * X < Y * Y:
        e, X, Y = (e + 1, X, 2 * Y) if X > Y else (e - 1, 2 * X, Y)
    P, ln = max(W, 0) + 64 + powers * (abs(e) + 2).bit_length(), 0
    if powers:  # ln^0 a = 1 needs neither series
        t = 2 * _atanh(abs(X - Y), X + Y, P)
        ln = e * _ln2(P) + (t if X >= Y else -t)
    ys = accumulate(repeat(ln, powers), mul, initial=1)
    qrs = [(divmod(y << P, 1 << s), s) for y, s in zip(ys, count(P - W, P))]  # y / 2^(s - P)
    return tuple(q + (2 * r + (q & 1) > 1 << s) for (q, r), s in qrs)  # half to even


def _row(row: tuple, L: tuple, power: int, x_power: int) -> tuple:
    """floor(row(ln a) a^-2k 2^W), a^-2k = power / x_power, and its error bound, in units.

    L[i], from _logs, is within a unit of ln^i(a) 2^W, so the error is under one unit for
    the floor plus sum |row| a^-2k.
    """
    den, nums = row
    div = den * x_power
    return sum(map(mul, nums, L)) * power // div, 1 - (-sum(map(abs, nums)) * power // div)


def _tail_order(model: tuple, a: Fraction, wp: int) -> tuple:
    """(sum over n > M of a (den, {(q, d): c}) model's terms c ln^d(x)/(den x^q); bound).

    Both in units of 2^-wp, a = M + 1 + z exact; a zero term is skipped.  Euler-Maclaurin as in
    verify_identity.  A term c ln^d(x)/x^q is c a^(1-q) times a sum of _em_rule rows at ln a
    over a^2k, each taken by _row in fixed point at W = wp + mag bits, 2^(mag-1) < |c a^(1-q)|
    < 2^(mag+1), with the _logs at W: a unit at W is under two of 2^-wp, and 2^(GUARD_BITS-1)
    of them, the target, under 2^-prec.  The rows read ln^i(a), i <= d (d + 1 for q = 1), so a
    d = 0, q >= 2 term asks for no power.  a^-2k = qa^2k / X^2k is exact (a = X/qa).  K is the
    first with R_K plus the error of the rows used, f(a)/2's included, at most the target.  The
    value is each term's sum floored; the bound is the ceiling of its stated error, plus a unit
    per floor, or None if R_K stops shrinking first.
    """
    (den, coeffs), X, qa = model, a.numerator, a.denominator
    target, value, bound, stalled = 1 << (GUARD_BITS - 1), 0, 0, False
    for (q, d), c in ((key, c) for key, c in coeffs.items() if c):
        scale = Fraction(qa ** (q - 1), X ** (q - 1) * den)
        size = abs(c) * scale
        mag = size.numerator.bit_length() - size.denominator.bit_length()
        L = _logs(a, d + 1 if d or q == 1 else 0, wp + mag)
        unit = scale / Fraction(2) ** mag  # W units to 2^-wp
        total, error = _row(_em_rule(q, d, 0)[1], L, 1, 1)
        # f(a)/2 = ln^d(a) qa / (2 X): a floor, and L[d]'s error times 1/(2a) < 1
        total, error = total + L[d] * qa // (2 * X), error + 2
        power, x_power, last = 1, 1, math.inf
        for k in count(1):
            term, rem, _ = _em_rule(q, d, k)
            power, x_power = power * qa * qa, x_power * X * X
            r, r_error = _row(rem, L, power, x_power)
            if r + r_error + error <= target or r >= last:
                break
            t, t_error = _row(term, L, power, x_power)
            total, error, last = total - t, error + t_error, r
        value += math.floor(c * total * unit)
        bound += math.ceil(abs(c) * (r + r_error + error) * unit) + 1
        stalled = stalled or r + r_error + error > target
    return value, None if stalled else bound


def _series_limit(spec: SeriesSpec, N: int, tol: float) -> tuple:
    """(estimate, terms summed) of the raw series; see verify_identity.

    The width wp is _width(tol)'s; past the head every quantity is an integer in units of
    2^-wp, and the estimate is exact.  One tail point A = M + 1 + z.  Folded to order 0,
    the orders past those kept and the majorant sum past M to at most their weights times
    tails[d] >= sum_{x >= A} ln^d(x)/x^S, as does the constants' drift (0 < H_n^(r) < |C_r| + 1
    + ln x: under e D |F|(|C|+1) (1+ln x)^D).  The bound is both, plus the kept orders' bounds
    and the head's, rounded up to a float, and nothing more.
    """
    S, D, target, (wp, _) = sum(spec.s), spec.F.degree(), Fraction(tol) / 1000, _width(tol)
    n_first, summer = max(N, 2 * (LHS_HEAD_FLOOR + len(spec.s))), _SeriesSummer(spec, wp)
    for n_head in (n_first << i for i in count()):
        head, a = summer.advance_to(n_head), n_head + 1 + spec.z
        constants, error = summer.constants(a)
        tails = [_tail_order((1, {(S, d): 1}), a, wp) for d in range(D + 1)]
        if error is None or any(r is None for _, r in tails):
            continue
        tails = [t + r for t, r in tails]  # rounded up
        size = spec.F.evaluate([Fraction(abs(c) + 1, 1 << wp) + 1 for c in constants], abs)
        spread = sum(math.comb(D, d) * t for d, t in enumerate(tails))  # (1 + ln x)^D / x^S
        drift = math.ceil(D * error * size * spread / (1 << wp))
        order, fit, X, qa = 2, 0, a.numerator, a.denominator  # order 4 first
        while fit < 1 and order < _MAX_ORDER:
            order *= 2
            den, coeffs = _summand_expansion(spec, order, constants, a, wp)
            weights, scale = [0] * (order + 2), den * X ** (order + 1) << wp
            for (j, d), c in coeffs.items():
                weights[j] += abs(c) * qa**j * X ** (order + 1 - j) * tails[d]
            pasts = list(accumulate(reversed(weights), initial=0))
            fit = sum(p <= target * scale for p in pasts) - 1
        if not fit:
            continue
        kept, majorant = order + 2 - fit, -(-(pasts[fit] << wp) // scale)
        kept_terms = {(S + j, d): c for (j, d), c in coeffs.items() if j < kept}
        tail, tail_bound = _tail_order((den, kept_terms), a, wp)
        if tail_bound is not None:
            break
    est = head + Fraction(tail, 1 << wp)
    bound = Fraction(majorant + drift + tail_bound, 1 << wp) + summer.error_bound()
    return NumericResult(est, _float_up(bound)), n_head


def verify_identity(
    spec: SeriesSpec,
    cf: ClosedForm,
    tol: float = 1e-8,
    N: int = 10000,
) -> VerificationReport:
    """Numerically certify that a closed form matches its series.

    The LHS is the raw series, never the symbolic machinery or a special function: its first N
    terms are summed directly, the rest from the summand's large-n expansion, whose constants
    come from that head, in terms c f, f = ln^d(x)/x^q, x = n + z, each summed from A = N + 1 + z
    by Euler-Maclaurin, int_A^oo f + f(A)/2 - sum_{k<K} B_2k/(2k)! f^(2k-1)(A), with K such that
    the remainder bound 2 |B_2K|/(2K)! int_A^oo |f^(2K)| is at most 2^-prec / |c| (DLMF
    2.10.1-2.10.2, as |B~_2K - B_2K| <= 2 |B_2K|).  The expansion keeps the fewest orders whose
    stated majorant past them is at most tol/1000; N is raised to 2 * (LHS_HEAD_FLOOR + len(s))
    when smaller and doubled while A is too small for either (the terms bottom out near
    e^(-2 pi A)).  ``n_used`` is the head summed.  Both values are exact, the RHS that of
    closed_form_numeric at tol/8 (at least the least positive float), and each bound, that of
    _series_limit or mhz_numeric, is the sum of its stated parts; ``passed``: |LHS - RHS| <= tol
    + both bounds.
    """
    if cf.shift != spec.z or cf.order != spec.m:
        raise ValueError("closed form metadata does not match the series spec")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    _check_terms(N)
    rhs = closed_form_numeric(cf, abs_err=max(tol / 8, math.ulp(0)))
    lhs, n_used = _series_limit(spec, N, tol)
    discrepancy = float(abs(lhs.value - rhs.value))  # exact, rounded once
    combined = tol + lhs.abs_err_bound + rhs.abs_err_bound
    passed = discrepancy <= combined
    message = "" if passed else f"discrepancy {discrepancy:.3e} exceeds budget {combined:.3e}"
    return VerificationReport(lhs, rhs, discrepancy, passed, n_used, message)
