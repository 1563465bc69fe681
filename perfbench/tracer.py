"""Spans around zetaform's public functions, recorded from outside the package.

The tracer replaces each traced function in every ``zetaform`` module that
binds it, so calls are caught where the callers look the name up (for
example ``engine.closed_form`` calls ``poly_to_qsym`` through the
``zetaform.engine`` namespace).  Each span keeps its name, start, end, parent
span and the id of the request it belongs to, plus a few sizes read off the
arguments and the result.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time


def _mhz_counts(args, result):
    # the budget is keyed by whole decimal digits, as the oracle rounds it
    vec = tuple(args["v"])
    digits = round(-math.log10(args["abs_err"]))
    return {"depth": len(vec), "key": f"{vec}|{args['z']}|{digits}"}


# (span name, module, attribute, sizes taken from (bound arguments, result))
LAYERS = (
    ("expr.parse_polynomial", "zetaform.expr", "parse_polynomial", None),
    ("cli.parse_request", "zetaform.cli", "parse_request", None),
    (
        "engine.closed_form",
        "zetaform.engine",
        "closed_form",
        lambda a, r: {"monomials": len(r.terms), "max_weight": r.max_weight()},
    ),
    ("qsym.poly_to_qsym", "zetaform.qsym", "poly_to_qsym", lambda a, r: {"terms": len(r.terms)}),
    ("reducer.canonicalize", "zetaform.reducer", "canonicalize", lambda a, r: {"keys": len(r)}),
    (
        "engine.apply_reductions",
        "zetaform.engine",
        "apply_reductions",
        lambda a, r: {"monomials_in": len(a["cf"].terms), "monomials_out": len(r.terms)},
    ),
    ("cli.render", "zetaform.cli", "render", lambda a, r: {"bytes": len(r.text.encode())}),
    ("verify.verify_identity", "zetaform.verify", "verify_identity", lambda a, r: {"terms": r.n_used}),
    ("verify.closed_form_numeric", "zetaform.verify", "closed_form_numeric", None),
    ("verify.mhz_numeric", "zetaform.verify", "mhz_numeric", _mhz_counts),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.request_id = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, sizes):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if sizes is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(sizes(bound.arguments, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a zetaform module binds it."""
        modules = [m for k, m in sys.modules.items() if k == "zetaform" or k.startswith("zetaform.")]
        for name, module, attr, sizes in LAYERS:
            original = getattr(sys.modules[module], attr)
            traced = self._wrap(name, original, sizes)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], requests: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, from its spans and request records."""
    own = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def busy(name):
        return sum((s["end"] - s["start"] for s in by_name.get(name, ())), 0.0)

    def self_s(name):
        return sum((own[s["id"]] for s in by_name.get(name, ())), 0.0)

    def sizes(name, key):
        return [s[key] for s in by_name.get(name, ())]

    mhz = by_name.get("verify.mhz_numeric", [])
    distinct = len({s["key"] for s in mhz})
    lhs_s = self_s("verify.verify_identity")
    lhs_terms = sum(sizes("verify.verify_identity", "terms"))
    budgets = [r["budget"] for r in requests if r["budget"] is not None]

    def over_tol(key):
        return max((b[key] / b["tol"] for b in budgets), default=0.0)

    metrics = {
        "verify.mhz_numeric.s": busy("verify.mhz_numeric"),
        "verify.mhz_numeric.calls": len(mhz),
        "verify.mhz_numeric.distinct": distinct,
        "verify.mhz_numeric.reuse_ratio": 1 - distinct / len(mhz) if mhz else 0.0,
    }
    for depth in range(1, 6):
        metrics[f"verify.mhz_numeric.s_depth{depth}"] = sum(
            (s["end"] - s["start"] for s in mhz if s["depth"] == depth), 0.0
        )
    metrics.update({
        "verify.closed_form_numeric.self_s": self_s("verify.closed_form_numeric"),
        "verify.lhs.s": lhs_s,
        "verify.lhs.terms": lhs_terms,
        "verify.lhs.terms_per_s": lhs_terms / lhs_s if lhs_s else 0.0,
        "verify.lhs_err_over_tol_max": over_tol("lhs_err"),
        "verify.rhs_bound_over_tol_max": over_tol("rhs_bound"),
        "verify.discrepancy_over_tol_max": over_tol("discrepancy"),
        "verify.uncertified_share": uncertified_share(requests),
        "engine.closed_form.self_s": self_s("engine.closed_form"),
        "engine.monomials": sum(sizes("engine.closed_form", "monomials")),
        "engine.max_weight": max(sizes("engine.closed_form", "max_weight"), default=0),
        "qsym.poly_to_qsym.s": busy("qsym.poly_to_qsym"),
        "qsym.terms": sum(sizes("qsym.poly_to_qsym", "terms")),
        "reducer.canonicalize.s": busy("reducer.canonicalize"),
        "reducer.keys": sum(sizes("reducer.canonicalize", "keys")),
        "engine.apply_reductions.s": busy("engine.apply_reductions"),
        "engine.apply_reductions.monomials_in": sum(sizes("engine.apply_reductions", "monomials_in")),
        "engine.apply_reductions.monomials_out": sum(sizes("engine.apply_reductions", "monomials_out")),
        "cli.render.s": busy("cli.render"),
        "cli.output_bytes": sum(sizes("cli.render", "bytes")),
        "cli.parse_request.s": busy("cli.parse_request"),
        "expr.parse_polynomial.s": busy("expr.parse_polynomial"),
    })
    return metrics


def uncertified_share(requests: list[dict]) -> float:
    """Verified requests that passed although LHS error + RHS bound > tol."""
    budgets = [r["budget"] for r in requests if r["budget"] is not None]
    if not budgets:
        return 0.0
    return sum(b["passed"] and not b["certified"] for b in budgets) / len(budgets)
