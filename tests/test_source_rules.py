"""The package's source rules, as regexes over its files.

CI runs the same four searches with grep; these keep them in the tier-1 run.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "zetaform").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

RULES = {
    # stdlib integers and Fractions only; mpmath is the tests' reference
    "no-mpmath": ("mpmath", PACKAGE),
    # the expansions are integer Taylor models, with no directed rounding
    "no-directed-rounding": (r"rounding=|_(add|mul|div)_up|\b_mpf\b", PACKAGE),
    # every verifier bound is the sum of its stated parts, with no decimal floor
    "no-decimal-floors": (r"10 ?\*\* ?\(?dps", PACKAGE),
    # _width is the verifier's one width rule, in the package and in its tests
    "one-width-rule": (r"\b_(digits|bits)_for\b", PACKAGE + TESTS),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_no_line_matches(rule):
    pattern, files = RULES[rule]
    assert files
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line}"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, line)
    ]
    assert not hits, "\n".join(hits)
