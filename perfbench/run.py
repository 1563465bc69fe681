"""zetaform benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload desk-verify --seed 1 --seconds 20 --trace 0

Every pass over the workload runs in a fresh interpreter (one_pass.py), so
the oracle's process-wide caches start cold, as in each CLI invocation.
Passes repeat while another one is expected to end within --seconds, and
each metric is the median over passes.  ``--trace 0`` reports the
end-to-end metrics named in BENCHMARK.json; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
spans, with the tracing overhead.  Set-up time is the median over fresh
interpreters importing zetaform, started before each pass and at the end.

The gated times, ``wall_ref_s`` and ``setup_s``, are rescaled to a
reference machine speed that is sampled while they run (refspeed.py), so
that a shared host's slow phases do not show as changes; the times as
measured are printed beside them.

Detail lines (budget split of each verified request, tail latency, machine
notes) come first; the last line of stdout is one JSON object.  The full
record, spans included, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refspeed import REF_ROUND_S
from tracer import layer_metrics, uncertified_share
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170  # children are killed so that a run ends within 180 s
SETUP_PROBES = 4  # fresh interpreters timed before each pass and at the end
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "t = time.perf_counter()\n"
    "import zetaform\n"
    "zetaform.default_reduction_table()\n"
    "t = time.perf_counter() - t\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "import refspeed\n"  # after the timed import: it imports mpmath too
    "print(t, refspeed.round_time())\n"
)
# str hashes seeded alike in every child, so dict layouts do not vary by run
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def child(argv: list, deadline: float) -> str:
    """Run a child interpreter in the repository root; returns its stdout."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[:2]} did not finish before the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"{argv[:2]} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_sample(deadline: float) -> dict:
    """Set-up time of a fresh interpreter, raw and at the reference speed."""
    seconds, round_s = map(float, child(["-c", SETUP_CODE], deadline).split())
    return {"seconds": seconds, "ref_seconds": seconds * REF_ROUND_S / round_s}


def run_passes(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Passes (untraced, alternating with traced ones under --trace 1) and
    set-up samples, taken before each pass and after the last one so that
    they spread over the run."""
    kinds = [False, True] if trace else [False]
    setup_sample(deadline)  # untimed: compiles the bytecode once
    passes, setup, start = [], [], time.monotonic()
    while True:
        setup += [setup_sample(deadline) for _ in range(SETUP_PROBES)]
        traced = kinds[len(passes) % len(kinds)]
        argv = [str(HERE / "one_pass.py"), "--workload", workload, "--seed", str(seed)]
        t0 = time.monotonic()
        result = json.loads(child(argv + (["--trace"] if traced else []), deadline).splitlines()[-1])
        result["traced"] = traced
        result["process_s"] = time.monotonic() - t0
        passes.append(result)
        mean = statistics.fmean(p["process_s"] for p in passes)
        if len(passes) >= len(kinds) and time.monotonic() - start + mean > seconds:
            setup += [setup_sample(deadline) for _ in range(SETUP_PROBES)]
            return passes, setup


def tail(samples: list):
    """Highest percentile with at least ten samples beyond it, if above p50."""
    n = len(samples)
    if n < 20:
        return None
    return {"value": sorted(samples)[n - 11], "percentile": 100 * (n - 10) / n, "samples": n}


def end_to_end(passes: list, setup: list) -> dict:
    """The gated metrics: times at the reference speed (refspeed.py)."""
    return {
        "setup_s": statistics.median(s["ref_seconds"] for s in setup),
        "wall_ref_s": statistics.median(p["wall_ref_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def raw_times(passes: list, setup: list) -> dict:
    """The same times as measured, machine slowdowns included."""
    return {
        "setup_raw_s": statistics.median(s["seconds"] for s in setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "calibration_round_s": statistics.median(p["speed"]["round_median_s"] for p in passes),
    }


def per_layer(traced: list, untraced: list) -> dict:
    runs = [layer_metrics(p["spans"], p["requests"]) for p in traced]
    metrics = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    return metrics


def machine_notes() -> dict:
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "machine": platform.machine(),
    }


def report_lines(workload, seed, passes, e2e, raw, layers, machine) -> list:
    untraced = [p for p in passes if not p["traced"]]
    requests = [r for p in untraced for r in p["requests"]]
    failed = [r for p in passes for r in p["requests"] if r["failure"]]
    lines = [
        f"workload {workload} seed {seed}: {len(untraced)} untraced and "
        f"{len(passes) - len(untraced)} traced passes of {len(untraced[0]['requests'])} requests",
        "machine: " + " ".join(f"{k}={v}" for k, v in machine.items()),
    ]
    lines += [f"{k} = {v:.6g}" for k, v in e2e.items()]
    lines += [f"{k} = {v:.6g} (as measured)" for k, v in raw.items()]
    p50 = statistics.median(statistics.median(r["seconds"] for r in p["requests"]) for p in untraced)
    lines.append(f"spec_p50_s = {p50:.6g} (median request of a pass, median over passes)")
    t = tail([r["seconds"] for r in requests])
    lines.append(
        f"spec_tail_s = {t['value']:.6g} (p{t['percentile']:.1f} of {t['samples']} requests)"
        if t
        else f"spec_tail_s omitted: {len(requests)} requests leave no percentile above p50 "
        "with ten beyond it"
    )
    lines.append(f"failed_share = {len(failed)}/{sum(len(p['requests']) for p in passes)}")
    lines.append(f"uncertified_share = {uncertified_share(untraced[0]['requests']):.6g}")
    for r in untraced[0]["requests"]:
        b = r["budget"]
        if b is not None:
            lines.append(
                f"budget {r['id']}: n_used={b['n_used']} lhs_err={b['lhs_err']:.3e} "
                f"rhs_bound={b['rhs_bound']:.3e} discrepancy={b['discrepancy']:.3e} "
                f"tol={b['tol']:g} passed={b['passed']} certified={b['certified']}"
            )
    lines += [f"failed {r['id']}: {r['failure']}" for r in failed]
    lines += [f"{k} = {v:.6g}" for k, v in (layers or {}).items()]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="zetaform benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "zetaform" / "__init__.py").is_file():
        print("error: run from a zetaform checkout (src/zetaform not found)", file=sys.stderr)
        return 2
    try:
        passes, setup = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    e2e = end_to_end(untraced, setup)
    layers = per_layer(traced, untraced) if traced else None
    machine = machine_notes()
    raw = raw_times(untraced, setup)
    for line in report_lines(args.workload, args.seed, passes, e2e, raw, layers, machine):
        print(line)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "setup_samples": setup,
        "end_to_end": e2e,
        "raw_times": raw,
        "per_layer": layers,
        "passes": passes,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted = sum(len(p["requests"]) for p in passes)
    failed = sum(1 for p in passes for r in p["requests"] if r["failure"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
