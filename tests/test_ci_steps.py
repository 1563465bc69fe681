"""Tier-1 twins of CI steps: the benchmark's golden digests, the traced ladder, the README example.

CI runs these checks through the benchmark scripts and the installed console
script; here the same requests run in-process, through ``perfbench/one_pass.py``
and ``cli.main``, so that a plain ``pytest`` catches what those steps would.
Nothing under ``perfbench/`` is changed.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from zetaform import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import one_pass  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import seeded_requests  # noqa: E402

GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())

# the sizes CI's traced engine-ladder step greps for
LADDER_SIZES = {
    "engine.monomials": 2120,
    "engine.max_weight": 15,
    "qsym.terms": 340,
    "reducer.keys": 61,
    "engine.apply_reductions.monomials_out": 183,
    "cli.output_bytes": 258345,
}


def failures(result) -> list:
    return [(r["id"], r["failure"]) for r in result["requests"] if r["failure"] is not None]


@pytest.mark.parametrize("workload", ["engine-ladder", "tight-verify", "desk-verify"])
def test_workload_matches_golden_digests_and_verifies(workload):
    result = one_pass.run_pass(cli, seeded_requests(workload, 0), golden=GOLDEN)
    assert result["requests"] and not failures(result)


def test_traced_ladder_sizes_are_unchanged():
    tracer = Tracer()
    tracer.install()
    try:
        result = one_pass.run_pass(cli, seeded_requests("engine-ladder", 0), tracer, GOLDEN)
    finally:
        tracer.uninstall()
    assert not failures(result)
    metrics = layer_metrics(tracer.spans, result["requests"])
    assert {name: metrics[name] for name in LADDER_SIZES} == LADDER_SIZES


def test_readme_example_prints_the_lines_readme_shows():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    at = lines.index('$ zetaform --F "x1" --z 0 --binomial 4,5 --display reduced')
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--F", "x1", "--z", "0", "--binomial", "4,5", "--display", "reduced"])
    assert code == 0
    assert out.getvalue() == "\n".join(lines[at + 1 : at + 3]) + "\n"
