"""Golden canonical forms: `canonicalize` output pinned on a fixed corpus.

Each vector's canonical combination (keys sorted, coefficients as strings)
is hashed with sha256 and compared with ``tests/data/golden_canonical.json``.

Corpus: every exponent vector of length <= 5 with entries 0-3, weight >= 2
and a nonzero last entry, plus the binomial denominators (p, 1^k) for
p <= 5 and 1 <= k <= 11, whose long runs of ones the rendering corpus of
``tests/test_golden.py`` does not reach.

After an intended change of output, rewrite the data file with
``python tests/test_golden_canonical.py`` and review the diff.
"""

import hashlib
import itertools
import json
from pathlib import Path

from zetaform.reducer import canonicalize

DATA = Path(__file__).parent / "data" / "golden_canonical.json"


def corpus() -> list:
    out = {
        s
        for length in range(1, 6)
        for s in itertools.product(range(4), repeat=length)
        if s[-1] and sum(s) >= 2
    }
    out |= {(p,) + (1,) * k for p in range(6) for k in range(1, 12) if p + k >= 2}
    return sorted(out)


def name(s) -> str:
    return ",".join(map(str, s))


def digest(s) -> str:
    terms = [[list(key), str(coeff)] for key, coeff in sorted(canonicalize(s).items())]
    return hashlib.sha256(json.dumps(terms).encode()).hexdigest()


def test_canonical_forms_are_unchanged():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(name(s) for s in corpus())
    changed = [name(s) for s in corpus() if digest(s) != golden[name(s)]]
    assert not changed


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    data = {name(s): digest(s) for s in corpus()}
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} vectors to {DATA}")
