"""Tier-1 twins of CI steps: the benchmark's golden digests, the traced pins, the README
example and the CLI guard requests.

CI runs these checks through the benchmark scripts and the installed console
script; here the same requests run in-process, through ``perfbench/one_pass.py``
and ``cli.main``, so that a plain ``pytest`` catches what those steps would.
Nothing under ``perfbench/`` is changed.
"""

import contextlib
import io
import json
import re
import shlex
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

# the traced verify metrics CI greps for, as perfbench/run.py prints them (:.6g)
VERIFY_PINS = {
    "tight-verify": {"verify.lhs.terms": "20000", "verify.lhs_err_over_tol_max": "1.83896e-05"},
    "desk-verify": {
        "verify.mhz_numeric.calls": "66",
        "verify.mhz_numeric.distinct": "46",
        "verify.lhs.terms": "8400",
        "verify.lhs_err_over_tol_max": "0.000716156",
        "verify.uncertified_share": "0",
    },
}

# CI's installed-console-script guard requests, and the start of the line each step greps for
GUARDS = {
    "long-head": (
        '--F "1/2*x1^2 - 1/2*x2" --z -1/3 --s 0,0,2 --verify 100000 --tolerance 1e-12',
        "verify: PASS",
    ),
    "44-digits": (
        '--F "x1^2 - x2" --z -2/3 --s 1,1,1,2 --verify 2000 --tolerance 1e-30',
        "verify: PASS",
    ),
    "112-digits": (
        '--F "x1^2 - x2" --z -2/3 --s 1,1,1,2 --verify 2000 --tolerance 1e-100',
        "verify: PASS",
    ),
    "log-powers": ('--F "x1^3" --z -1/3 --s 0,2 --verify 600 --tolerance 1e-25', "verify: PASS"),
    "head-floor": ("--F x1^2 --z -1/3 --s 0,2 --verify 1 --tolerance 1e-60", "verify: PASS (N=44,"),
    "weight-1001": ("--F 1 --s 1000,1", "value = -1 + zeta(2) - zeta(3)"),
}
NEAR_MINUS_ONE = '--F "x1*x2" --z -999999/1000000 --s 0,0,3 --verify 600 --tolerance 1e-20'


def failures(result) -> list:
    return [(r["id"], r["failure"]) for r in result["requests"] if r["failure"] is not None]


@pytest.mark.parametrize("workload", ["engine-ladder", "tight-verify", "desk-verify"])
def test_workload_matches_golden_digests_and_verifies(workload):
    result = one_pass.run_pass(cli, seeded_requests(workload, 0), golden=GOLDEN)
    assert result["requests"] and not failures(result)


def traced_metrics(workload: str) -> dict:
    """layer_metrics of one traced pass at seed 0, every request passing."""
    tracer = Tracer()
    tracer.install()
    try:
        result = one_pass.run_pass(cli, seeded_requests(workload, 0), tracer, GOLDEN)
    finally:
        tracer.uninstall()
    assert not failures(result)
    return layer_metrics(tracer.spans, result["requests"])


def test_traced_ladder_sizes_are_unchanged():
    metrics = traced_metrics("engine-ladder")
    assert {name: metrics[name] for name in LADDER_SIZES} == LADDER_SIZES


@pytest.mark.parametrize("workload", VERIFY_PINS)
def test_traced_verify_pins_are_unchanged(workload):
    metrics = traced_metrics(workload)
    assert {name: f"{metrics[name]:.6g}" for name in VERIFY_PINS[workload]} == VERIFY_PINS[workload]


def test_readme_example_prints_the_lines_readme_shows():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    at = lines.index('$ zetaform --F "x1" --z 0 --binomial 4,5 --display reduced')
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--F", "x1", "--z", "0", "--binomial", "4,5", "--display", "reduced"])
    assert code == 0
    assert out.getvalue() == "\n".join(lines[at + 1 : at + 3]) + "\n"


def main_lines(command: str) -> list:
    """The stdout lines of a console-script command line, run through cli.main; exit code 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(shlex.split(command))
    assert code == 0, out.getvalue()
    return out.getvalue().splitlines()


@pytest.mark.parametrize("command, start", GUARDS.values(), ids=GUARDS)
def test_guard_request_passes(command, start):
    assert any(line.startswith(start) for line in main_lines(command))


def test_near_minus_one_prints_a_bound_sum_below_1e_19():
    line = main_lines(NEAR_MINUS_ONE)[-1]
    bounds = re.fullmatch(r"verify: PASS \(N=\d+, discrepancy < (\S+)\)", line)
    assert bounds and float(bounds[1]) < 1e-19, line
