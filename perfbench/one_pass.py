"""One pass of a benchmark workload, in the fresh interpreter run.py starts.

A new process per pass starts the oracle's process-wide caches empty, as
each CLI invocation does.  Run from the repository root:

    python3 perfbench/one_pass.py --workload desk-verify --seed 1 [--trace]
    python3 perfbench/one_pass.py --write-golden

A pass prints one JSON object: the pass wall time, peak RSS, one record per
request (time, outcome, verification budget split) and, with ``--trace``,
the spans.  Untraced passes also give each time rescaled to the reference
speed (refspeed.py).  ``--write-golden`` records the closed-form digests of every
pinned request in golden.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path

from refspeed import Sampler
from tracer import Tracer
from workloads import LADDER, TIGHT, WORKLOADS, seeded_requests

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"


def import_cli():
    """zetaform.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "zetaform" / "__init__.py").is_file():
        raise SystemExit(f"zetaform sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import zetaform.cli

    if Path(zetaform.__file__).resolve().parent != (SRC / "zetaform").resolve():
        raise SystemExit(f"imported zetaform from {zetaform.__file__}, not {SRC}")
    return zetaform.cli


@contextlib.contextmanager
def capture(cli, seen: dict):
    """Keep the closed form and report that cli computes for each request."""
    closed_form, verify_identity = cli.closed_form, cli.verify_identity
    signature = inspect.signature(verify_identity)

    def keep_closed_form(spec):
        seen["cf"] = closed_form(spec)
        return seen["cf"]

    def keep_report(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen["tol"] = bound.arguments["tol"]
        seen["report"] = verify_identity(*args, **kwargs)
        return seen["report"]

    cli.closed_form, cli.verify_identity = keep_closed_form, keep_report
    try:
        yield
    finally:
        cli.closed_form, cli.verify_identity = closed_form, verify_identity


def serve(cli, req, seen: dict) -> tuple[int, list]:
    """Serve one request as the CLI would; returns (exit code, rendered texts)."""
    if req.via_main:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(req.argv))
        return code, [out.getvalue()]
    creq = cli.parse_request(list(req.argv))
    code, text = cli.run(creq)
    cf = seen["cf"].scaled(creq.prefactor)
    extra = [cli.render(cf, creq.display_mode, fmt, echo=creq.echo).text for fmt in req.extra_formats]
    return code, [text] + extra


def digests(cli, cf, texts, verified: bool) -> dict:
    """Closed-form digest, plus the rendered output's when it is exact."""
    closed = json.dumps(cli.closed_form_to_json(cf), sort_keys=True)
    rendered = None if verified else hashlib.sha256("\0".join(texts).encode()).hexdigest()
    return {"closed_form": hashlib.sha256(closed.encode()).hexdigest(), "rendered": rendered}


def budget(report, tol) -> dict:
    lhs_err = report.lhs_estimate.abs_err_bound
    rhs_bound = report.rhs_value.abs_err_bound
    return {
        "n_used": report.n_used,
        "lhs_err": lhs_err,
        "rhs_bound": rhs_bound,
        "discrepancy": report.discrepancy,
        "tol": tol,
        "passed": report.passed,
        "certified": lhs_err + rhs_bound <= tol,
    }


def check(req, outcome: dict, golden):
    """Why the request failed, or None.  golden=None skips the digest check."""
    if outcome["error"]:
        return outcome["error"]
    if outcome["code"] != 0:
        return f"exit code {outcome['code']}"
    if outcome["budget"] is not None and not outcome["budget"]["passed"]:
        return "verification failed"
    if req.golden and golden is not None and golden.get(req.id) != outcome["digests"]:
        return "closed form or rendering differs from golden.json"
    return None


def run_pass(cli, requests, tracer=None, golden=None, sample_speed=False) -> dict:
    """Serve every request once; time each and check its outputs.

    With ``sample_speed`` the machine's speed is sampled during the pass
    (refspeed.Sampler): times then exclude the calibration rounds, and each
    also comes rescaled to the reference speed.
    """
    seen: dict = {}
    outcomes = []
    sampler = Sampler() if sample_speed else contextlib.nullcontext()
    with capture(cli, seen), sampler:
        start = time.perf_counter()
        for req in requests:
            seen.clear()
            span = None
            if tracer is not None:
                tracer.request_id = req.id
                span = tracer.begin("request")
            t0 = time.perf_counter()
            try:
                code, texts = serve(cli, req, seen)
                error = None
            except Exception as exc:  # a request that raises is a failed spec
                code, texts, error = None, [], f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if span is not None:
                tracer.end(span)
            outcomes.append((req, dict(seen), code, texts, error, (t0, t1)))
        end = time.perf_counter()

    def seconds(a, b):
        """(seconds, seconds at reference speed) between a and b."""
        return sampler.rescale(a, b) if sample_speed else (b - a, None)

    records = []
    for req, got, code, texts, error, (t0, t1) in outcomes:
        report = got.get("report")
        work, ref = seconds(t0, t1)
        outcome = {
            "id": req.id,
            "seconds": work,
            "ref_seconds": ref,
            "code": code,
            "error": error,
            "budget": budget(report, got["tol"]) if report is not None else None,
            "digests": digests(cli, got["cf"], texts, report is not None) if "cf" in got else None,
        }
        outcome["failure"] = check(req, outcome, golden)
        records.append(outcome)
    wall, wall_ref = seconds(start, end)
    return {
        "wall_s": wall,
        "wall_ref_s": wall_ref,
        "speed": sampler.summary() if sample_speed else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "requests": records,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args(argv)
    cli = import_cli()
    if args.write_golden:
        result = run_pass(cli, TIGHT + LADDER)
        failed = [(r["id"], r["failure"]) for r in result["requests"] if r["failure"]]
        if failed:
            raise SystemExit(f"not writing golden digests, requests failed: {failed}")
        GOLDEN.write_text(
            json.dumps({r["id"]: r["digests"] for r in result["requests"]}, indent=1, sort_keys=True)
            + "\n"
        )
        return 0
    if args.workload is None:
        p.error("--workload is required")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    golden = json.loads(GOLDEN.read_text())
    result = run_pass(
        cli, seeded_requests(args.workload, args.seed), tracer, golden, sample_speed=not args.trace
    )
    result["spans"] = tracer.spans if tracer is not None else None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
