"""Tests of the benchmark itself: inputs, output checks, metrics and spans.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import one_pass  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import DESK, LADDER, Request, poly_text, seeded_requests  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# cheap stand-ins that take every path a workload request takes
SMALL = (
    Request("verify", ("--F", "x1 - 1/2*x2", "--z", "-1/2", "--s", "2,1", "--verify", "600",
                       "--tolerance", "1e-5")),
    Request("main-json", ("--F", "x1", "--z", "0", "--s", "3", "--verify", "600", "--tolerance",
                          "1e-5", "--format", "json"), via_main=True),
    next(r for r in LADDER if r.id == "ladder-x1^4"),
    next(r for r in LADDER if r.id == "ladder-binomial"),
)


@pytest.fixture(scope="module")
def cli():
    return one_pass.import_cli()


@pytest.fixture(scope="module")
def golden():
    return json.loads(one_pass.GOLDEN.read_text())


@pytest.fixture(scope="module")
def passes(cli, golden):
    untraced = one_pass.run_pass(cli, SMALL, golden=golden, sample_speed=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass.run_pass(cli, SMALL, tracer, golden)
    finally:
        tracer.uninstall()
    traced["spans"] = tracer.spans
    untraced["traced"], traced["traced"] = False, True
    return untraced, traced


def test_desk_generator_is_deterministic_per_seed():
    assert seeded_requests("desk-verify", 7) == seeded_requests("desk-verify", 7)
    assert seeded_requests("desk-verify", 7) != seeded_requests("desk-verify", 8)
    # the seed orders a fixed set of specs
    assert sorted(seeded_requests("desk-verify", 8), key=repr) == sorted(DESK, key=repr)


def test_poly_text_round_trips(cli):
    from zetaform.qsym import Polynomial

    terms = {(2,): Fraction(-3, 2), (0, 1): Fraction(1), (): Fraction(2), (1, 0, 1): Fraction(-1)}
    assert cli.parse_polynomial(poly_text(terms)) == Polynomial(terms)


def test_small_pass_passes_every_check(passes):
    for p in passes:
        assert [r["failure"] for r in p["requests"]] == [None] * len(SMALL)


def test_tampered_closed_form_fails_golden_check(cli, golden, monkeypatch):
    closed_form = cli.closed_form

    def tampered(spec):
        cf = closed_form(spec)
        cf.constant += 1
        return cf

    monkeypatch.setattr(cli, "closed_form", tampered)
    result = one_pass.run_pass(cli, SMALL[2:3], golden=golden)
    assert result["requests"][0]["failure"] == "closed form or rendering differs from golden.json"


def test_every_metric_is_reported(passes):
    untraced, traced = passes
    setup = [{"seconds": 0.1, "ref_seconds": 0.08}]
    e2e = run.end_to_end([untraced], setup)
    raw = run.raw_times([untraced], setup)
    layers = run.per_layer([traced], [untraced])
    assert sorted(m["name"] for m in BENCHMARK["end_to_end"]) == sorted(e2e)
    assert sorted(m["name"] for m in BENCHMARK["per_layer"]) == sorted(layers)
    lines = "\n".join(run.report_lines("small", 0, [untraced, traced], e2e, raw, layers, {}))
    for name in ("wall_s", "spec_p50_s", "spec_tail_s", "failed_share", "uncertified_share",
                 "budget verify: n_used="):
        assert name in lines


def test_span_self_times_add_up_to_request_time(passes):
    spans = passes[1]["spans"]
    own = self_times(spans)
    requests = [s for s in spans if s["name"] == "request"]
    assert [s["request"] for s in requests] == [r.id for r in SMALL]
    for req in requests:
        total = sum(own[s["id"]] for s in spans if s["request"] == req["request"])
        assert total == pytest.approx(req["end"] - req["start"], rel=1e-9, abs=1e-12)
    assert {s["name"] for s in spans} >= {
        "cli.parse_request", "expr.parse_polynomial", "engine.closed_form", "qsym.poly_to_qsym",
        "reducer.canonicalize", "engine.apply_reductions", "cli.render",
        "verify.verify_identity", "verify.closed_form_numeric", "verify.mhz_numeric",
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_sampler_splits_pass_time_into_work_and_rounds():
    import refspeed

    with refspeed.Sampler() as sampler:
        deadline = sampler.start + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
    rounds = sum(end - start for start, end, _ in sampler.samples)
    work, ref = sampler.rescale(sampler.start, sampler.end)
    assert len(sampler.samples) >= 5
    assert work + rounds == pytest.approx(sampler.end - sampler.start, rel=1e-9)
    middle = (sampler.start + sampler.end) / 2
    halves = [sampler.rescale(sampler.start, middle), sampler.rescale(middle, sampler.end)]
    assert sum(w for w, _ in halves) == pytest.approx(work, rel=1e-9)
    assert sum(r for _, r in halves) == pytest.approx(ref, rel=1e-9)
