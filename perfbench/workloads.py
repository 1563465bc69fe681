"""The benchmark's workloads: the CLI requests each one sends to zetaform.

A request is a zetaform command line.  It is served in-process the way the
CLI serves one record: ``cli.parse_request``, then ``cli.run`` (closed form,
verification when ``--verify`` is given, rendering).  Engine-ladder requests
also render the same closed form in the other two formats, and the README
flagship goes through ``cli.main`` itself.

- ``desk-verify``: the first random desk specs of acceptance criterion 9
  (same distribution, same seed), verified at tol 1e-5 with N=600.
- ``tight-verify``: criterion-8 style fixtures at tol 1e-8 with N=10000.
- ``engine-ladder``: exact closed forms only, up to weight 15.

The seed sets the order of the requests.  The specs themselves are fixed:
drawing new random specs per seed moved a desk pass's time by +-20%, and
new coefficients alone still moved the raw-series work (9,600 or 19,200
terms for some specs), which would hide changes of that size.  In
desk-verify the order decides which request pays for the zeta values later
ones find in the oracle's cache, so per-request times vary with the seed
while the pass's work does not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DESK_SPEC_SEED = 20260810  # criterion 9's seed: its first specs
DESK_COUNT = 14  # a pass takes about 14 s on a 2-vCPU VM, so two fit a 30-s run
DESK_NUMERATORS = (-2, -1, 1, 2, 3)
DESK_DENOMINATORS = (1, 2)


@dataclass(frozen=True)
class Request:
    id: str
    argv: tuple
    extra_formats: tuple = ()  # render the closed form again in these formats
    via_main: bool = False  # serve through cli.main rather than parse_request/run
    golden: bool = False  # closed form pinned by golden.json


def _desk_spec(rng: random.Random):
    """One criterion-9 draw: (m, z, numerator terms, s), or None if skipped.

    One or two monomials of weighted degree <= 3 with small rational
    coefficients, then s of weight 2..6 with m * deg F + |s| <= 9; the same
    draws as acceptance criterion 9 makes.
    """
    m = rng.choice([1, 2])
    z = rng.choice(["0", "-1/2", "-1/3"])
    terms: dict = {}
    for _ in range(rng.randint(1, 2)):
        parts: dict = {}
        remaining = rng.randint(0, 3)
        while remaining > 0:
            v = rng.randint(1, remaining)
            parts[v] = parts.get(v, 0) + 1
            remaining -= v
        key = tuple(parts.get(i, 0) for i in range(1, max(parts) + 1)) if parts else ()
        coeff = Fraction(rng.choice(DESK_NUMERATORS), rng.choice(DESK_DENOMINATORS))
        terms[key] = terms.get(key, 0) + coeff
    terms = {key: coeff for key, coeff in terms.items() if coeff}
    if not terms:
        return None
    wt = max(sum(i * e for i, e in enumerate(key, 1)) for key in terms)
    for _ in range(40):
        cand = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        if 2 <= sum(cand) <= 6 and m * wt + sum(cand) <= 9:
            return m, z, terms, cand
    return None


def desk_specs() -> list:
    rng = random.Random(DESK_SPEC_SEED)
    specs = []
    while len(specs) < DESK_COUNT:
        spec = _desk_spec(rng)
        if spec is not None:
            specs.append(spec)
    return specs


def poly_text(terms: dict) -> str:
    """CLI text of a polynomial given as {exponent tuple: Fraction}."""
    text = ""
    for key, coeff in terms.items():
        factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(key, 1) if e]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        body = "*".join(factors)
        if text:
            text += (" - " if coeff < 0 else " + ") + body
        else:
            text = ("-" if coeff < 0 else "") + body
    return text


DESK = tuple(
    Request(
        f"desk-{i:02d}",
        ("--F", poly_text(terms), "--m", str(m), "--z", z, "--s", ",".join(map(str, s)),
         "--verify", "600", "--tolerance", "1e-5"),
    )
    for i, (m, z, terms, s) in enumerate(desk_specs())
)

TIGHT = (
    # e_2 = (H^2 - H^(2))/2 over (n+2)^2: sums 640k terms and passes with a
    # self-reported LHS error far above tol
    Request(
        "tight-e2-over-(n+2)^2",
        ("--F", "1/2*x1^2 - 1/2*x2", "--z", "0", "--s", "0,0,2",
         "--verify", "10000", "--tolerance", "1e-8"),
        golden=True,
    ),
    Request(
        "tight-flagship",
        ("--F", "x1", "--z", "0", "--binomial", "4,5", "--display", "reduced",
         "--verify", "10000", "--format", "json"),
        via_main=True,
        golden=True,
    ),
)


def _rung(rid: str, *argv: str) -> Request:
    return Request(rid, argv, extra_formats=("latex", "json"), golden=True)


LADDER = tuple(
    _rung(f"ladder-x1^{k}", "--F", f"x1^{k}", "--z", "-1/2", "--s", ",".join(["3"] + ["1"] * k))
    for k in range(4, 9)
) + (
    _rung("ladder-x1^6-m2", "--F", "x1^6", "--m", "2", "--z", "-1/3", "--s", "3,1,1,1,1,1,1"),
    _rung("ladder-x1^3x2^2", "--F", "x1^3*x2^2", "--z", "-1/3", "--s", "3,1,1,1"),
    _rung("ladder-binomial", "--F", "x1^4", "--z", "0", "--binomial", "4,5", "--display", "reduced"),
)


WORKLOADS = {"desk-verify": DESK, "tight-verify": TIGHT, "engine-ladder": LADDER}


def seeded_requests(workload: str, seed: int) -> list:
    """The workload's requests in the order the seed draws."""
    out = list(WORKLOADS[workload])
    random.Random(seed).shuffle(out)
    return out
