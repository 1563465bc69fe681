"""Golden rendering corpus: byte-identical CLI output on a fixed set of series.

Each case is a CLI command line.  Its closed form is rendered through
``cli.render`` in every output format, in ``raw`` and ``reduced`` display
modes, and also in ``t_values`` mode when z = -1/2; the sha256 of each
rendered text is compared with ``tests/data/golden_render.json``.

Cases: the README flagship, the series of acceptance criteria 3-6, and the
14 desk specs of the benchmark's desk-verify workload (its generator is
copied here so that the tests do not depend on the benchmark's files).

After an intended change of output, rewrite the data file with
``python tests/test_golden.py`` and review the diff.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from zetaform import cli
from zetaform.engine import closed_form
from zetaform.qsym import Polynomial, bell_polynomial

DATA = Path(__file__).parent / "data" / "golden_render.json"
FORMATS = ("text", "latex", "json")


def poly_text(terms) -> str:
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


def elementary_text(k: int) -> str:
    args = [(-1) ** (i + 1) * Polynomial.variable(i) for i in range(1, k + 1)]
    return poly_text(bell_polynomial(k, args).terms)


def series(F, s, m=1, z="0"):
    return ("--F", F, "--m", str(m), "--z", z, "--s", ",".join(map(str, s)))


def _desk_spec(rng: random.Random):
    # one draw of acceptance criterion 9's generator: (m, z, terms, s) or None
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
        coeff = Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 2)))
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


def desk_cases():
    rng = random.Random(20260810)
    out = []
    while len(out) < 14:
        spec = _desk_spec(rng)
        if spec is not None:
            m, z, terms, s = spec
            out.append((f"desk-{len(out):02d}", series(poly_text(terms), s, m, z)))
    return out


def cases():
    out = [
        ("readme-flagship", ("--F", "x1", "--z", "0", "--binomial", "4,5")),
        ("c3-flagship-unscaled", series("x1", (4, 1, 1, 1, 1, 1))),
    ]
    for b in range(1, 13):
        for k in range(1, 7):
            out.append((f"c4-b{b}-k{k}", series(elementary_text(k), (0,) * b + (1, 1))))
    for b in range(1, 11):
        out.append((f"c5-square-b{b}", series("x1^2", (0,) * b + (1, 1))))
    out.append(("c5-order2-shifted-square", series("x1", (0, 0, 2), m=2)))
    for m in range(1, 5):
        for k in range(1, 7):
            out.append((f"c5-binomial-m{m}-k{k}", series("x1", (1,) + (1,) * k, m=m)))
    out.append(("c6-odd-harmonic", series("x1", (0, 1, 1), z="-1/2")))
    for k in range(1, 7):
        out.append((f"c6-signed-k{k}", series(elementary_text(k), (0, 1, 1), z="-1/2")))
    for m in range(1, 5):
        for b in range(1, 5):
            out.append((f"c6-single-m{m}-b{b}", series("x1", (0,) * b + (1, 1), m, "-1/2")))
    return out + desk_cases()


def render_digests(argv) -> dict:
    """sha256 of every rendering of one case, keyed 'mode/format'."""
    cf = None
    out = {}
    for mode in cli.DISPLAY_MODES:
        for fmt in FORMATS:
            req = cli.parse_request(list(argv) + ["--display", mode, "--format", fmt])
            if mode == "t_values" and req.spec.z != Fraction(-1, 2):
                continue
            if cf is None:
                cf = closed_form(req.spec).scaled(req.prefactor)
            text = cli.render(cf, mode, fmt, echo=req.echo).text
            out[f"{mode}/{fmt}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def _golden() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_corpus_covers_every_case():
    assert sorted(_golden()) == sorted(cid for cid, _ in cases())


@pytest.mark.parametrize("cid,argv", cases(), ids=[cid for cid, _ in cases()])
def test_rendering_is_unchanged(cid, argv):
    assert render_digests(argv) == _golden()[cid]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    data = {cid: render_digests(argv) for cid, argv in cases()}
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {DATA}")
