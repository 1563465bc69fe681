"""Command-line front end: parse a series request, run the pipeline, render.

Accepts either flags (``--F "x1^2 - x2" --m 1 --z -1/2 --s 0,1,1``) or a JSON
input file holding one flat record (or a list of them).  The reciprocal
binomial-coefficient shorthand ``--binomial p,k`` stands for the denominator
``n^p * C(n+k, k)``: it expands to the exponent vector ``(p, 1^k)`` with a
``k!`` prefactor.  Output formats are plain text, LaTeX and a JSON object
that round-trips through ``closed_form_from_json``.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from typing import Optional

from .engine import (
    ClosedForm,
    ReductionTable,
    SeriesSpec,
    _is_json,
    _need,
    _terms,
    apply_reductions,
    closed_form,
    default_reduction_table,
    load_reduction_table,
)
from .expr import ParseError, parse_polynomial
from .qsym import _Record, as_shift
from .verify import VerificationReport, verify_identity

DISPLAY_MODES = ("raw", "t_values", "reduced")
OUTPUT_FORMATS = ("text", "latex", "json")


class CliError(ValueError):
    pass


class CliRequest(_Record):
    """spec is a SeriesSpec, verify_n an int or None, tolerance a float, prefactor a Fraction, echo
    a dict, and output_format, display_mode and reduction_table_path strs (the last, or None)."""

    __slots__ = _fields = ("spec", "output_format", "display_mode", "verify_n", "tolerance",
                           "reduction_table_path", "prefactor", "echo")


class RenderedIdentity(_Record):
    """text is the rendered str."""

    __slots__ = _fields = ("text",)


_HELP = """usage: zetaform [-h] --F F (--s S | --binomial P,K) [--m M] [--z Z] [options]
       zetaform [-h] --input INPUT

Rewrite series of harmonic numbers over shifted-integer denominators as exact
combinations of multiple Hurwitz zeta values, optionally verifying the
identity numerically.  A flag is --name value or --name=value, and a value may
start with '-'.

options:
  -h, --help            show this help message and exit
  --F F                 numerator polynomial in x1..x9, e.g. 'x1^2 - x2'
  --m M                 harmonic order (default 1)
  --z Z                 rational shift in (-1, 0], e.g. -1/2
  --s S                 comma-separated denominator exponents, e.g. 0,1,1
  --binomial P,K        denominator n^p * C(n+k,k); implies a k! prefactor
  --format {text,latex,json}
  --display {raw,t_values,reduced}
  --verify N            verify numerically: sum N terms directly, then the
                        tail by Euler-Maclaurin with a stated remainder
  --tolerance TOL       the verification tolerance (default 1e-8)
  --table TABLE         path to a reduction table JSON file
  --input INPUT         JSON file of one request record or a list; no other flag"""
_FLAGS = ("F", "m", "z", "s", "binomial", "format", "display", "verify", "tolerance", "table", "input")


def _field(record: dict, name: str, what: str, *types, default=None):
    """record[name], or `default` when absent or null; CliError on a wrong JSON type.

    The lists a record holds (s, binomial) are lists of JSON integers.
    """
    value = record.get(name)
    if value is None:
        return default
    items = value if isinstance(value, list) else ()
    if not _is_json(value, *types) or not all(_is_json(v, int) for v in items):
        raise CliError(f"'{name}' must be {what}, got {json.dumps(value)}")
    return value


def _rational(value, name: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse {name}={value!r} as a rational")


def _request_from_record(record: dict) -> CliRequest:
    if not isinstance(record, dict):
        raise CliError("a request record must be a JSON object")
    f_text = _field(record, "F", "a string", str)
    if f_text is None:
        raise CliError("record is missing the numerator expression 'F'")
    try:
        poly = parse_polynomial(f_text)
    except ParseError as exc:
        raise CliError(f"cannot parse F={f_text!r}: {exc}")
    m = _field(record, "m", "an integer", int, default=1)
    z_text = str(_field(record, "z", "a string or an integer", str, int, default="0"))
    z = _rational(z_text, "z")
    binomial = _field(record, "binomial", "a list of integers", list)
    s = _field(record, "s", "a list of integers", list)
    if (binomial is None) == (s is None):
        raise CliError("exactly one of 's' and 'binomial' is required")
    prefactor = Fraction(1)
    if binomial is not None:
        if len(binomial) != 2:
            raise CliError("'binomial' needs exactly p,k")
        p_exp, k = binomial
        if p_exp < 0 or k < 1:
            raise CliError("binomial shorthand needs p >= 0, k >= 1")
        s_vec = (p_exp,) + (1,) * k
        prefactor = Fraction(math.factorial(k))
    else:
        s_vec = tuple(s)
    try:
        spec = SeriesSpec(poly, m, z, s_vec)
    except ValueError as exc:  # DivergentSeriesError included
        raise CliError(str(exc))
    fmt = _field(record, "format", "a string", str, default="text")
    display = _field(record, "display", "a string", str, default="raw")
    if fmt not in OUTPUT_FORMATS:
        raise CliError(f"unknown format {fmt!r}")
    if display not in DISPLAY_MODES:
        raise CliError(f"unknown display mode {display!r}")
    verify_n = _field(record, "verify", "an integer", int)
    if verify_n is not None and verify_n < 1:
        raise CliError(f"--verify N needs N >= 1, got {verify_n}")
    tol_value = _field(record, "tolerance", "a number", int, float, str, default=1e-8)
    try:
        tolerance = float(tol_value)
    except (OverflowError, ValueError):
        raise CliError(f"cannot parse tolerance={tol_value!r} as a number")
    if not 0 < tolerance < math.inf:
        raise CliError(f"--tolerance must be positive and finite, got {tolerance}")
    echo = {
        "F": f_text,
        "m": m,
        "z": z_text,
        "s": list(s_vec),
        "binomial": list(binomial) if binomial else None,
        "display": display,
        "format": fmt,
    }
    return CliRequest(
        spec=spec,
        output_format=fmt,
        display_mode=display,
        verify_n=verify_n,
        tolerance=tolerance,
        reduction_table_path=_field(record, "table", "a string", str),
        prefactor=prefactor,
        echo=echo,
    )


def _records(argv) -> tuple[list, bool]:
    """The request records that argv names, and whether they came from --input.

    A flag is --name value or --name=value, the value taken as it stands.  m and verify become
    integers and s and binomial integer lists, as in a record, so one validator serves both."""
    record, tokens = {}, iter(argv)
    for tok in tokens:
        if tok in ("-h", "--help"):
            print(_HELP)
            raise SystemExit(0)
        name, eq, value = tok[2:].partition("=")
        if tok[:2] != "--" or name not in _FLAGS:
            raise CliError(f"unrecognized arguments: {tok}")
        value = value if eq else next(tokens, None)
        if value is None:
            raise CliError(f"argument --{name}: expected one argument")
        if name in ("m", "verify", "s", "binomial"):
            try:
                ints = [int(v) for v in value.split(",")]
            except ValueError:
                raise CliError(f"cannot parse --{name} {value!r}")
            value = ints[0] if len(ints) == 1 and name in ("m", "verify") else ints
        record[name] = value
    path = record.pop("input", None)
    if path is not None:
        if record:
            raise CliError(f"--input cannot be combined with {', '.join('--' + n for n in record)}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read --input {path!r}: {exc.strerror or exc}")
        except ValueError as exc:  # not UTF-8, or not JSON
            raise CliError(f"cannot parse --input {path!r} as JSON: {exc}")
        return (data if isinstance(data, list) else [data]), True
    if "F" not in record:
        raise CliError("--F is required (or use --input)")
    return [record], False


def parse_request(argv):
    """Parse CLI arguments into one CliRequest or a list of them."""
    records, batch = _records(argv)
    requests = [_request_from_record(r) for r in records]
    return requests if batch else requests[0]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _value(cf: ClosedForm, t_mode: bool, latex: bool) -> str:
    """The constant, then each term in sort_key order, joined by their signs."""
    name, times = (r"\zeta", "") if latex else ("zeta", "*")
    shift = "" if cf.shift == 0 else f"; {cf.shift}"
    terms = cf.sorted_terms()
    if cf.constant or not terms:
        terms.insert(0, ((), cf.constant))
    chunks = []
    for mono, coeff in terms:
        if t_mode:  # zeta(v; -1/2) = 2^|v| t(v); the constant has weight 0
            coeff *= 2 ** sum(sum(v) for v in mono)
        num, den = coeff.numerator, coeff.denominator
        size = abs(num)
        args = [",".join(map(str, v)) for v in mono]
        body = times.join([f"t({a})" if t_mode else f"{name}({a}{shift})" for a in args])
        if size != 1 or den != 1 or not mono:
            text = str(size) if den == 1 else f"{size}/{den}"
            if latex and den != 1:
                text = rf"\frac{{{size}}}{{{den}}}"
            body = f"{text}{times}{body}" if mono else text
        if not chunks:
            chunks.append(f"-{body}" if num < 0 else body)
        else:
            chunks.append(f"- {body}" if num < 0 else f"+ {body}")
    return " ".join(chunks)


def closed_form_to_json(cf: ClosedForm) -> dict:
    return {
        "constant": str(cf.constant),
        "terms": [
            {"factors": [list(v) for v in mono], "coeff": str(coeff)}
            for mono, coeff in cf.sorted_terms()
        ],
        "z": str(cf.shift),
        "m": cf.order,
    }


def closed_form_from_json(data: dict) -> ClosedForm:
    """Inverse of closed_form_to_json; any malformed payload is a CliError.

    The terms and constant are read as in a reduction table, so vector
    entries and m must be JSON integers, the rationals strings or integers.
    As for a series, m >= 1 and z lies in (-1, 0].
    """
    try:
        terms, constant = _terms(data["terms"]), _need(data["constant"], str, int)
        m, z = _need(data["m"], int), as_shift(_need(data["z"], str, int))
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        return ClosedForm(constant, terms, z, m)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliError(f"malformed closed form JSON ({type(exc).__name__}: {exc})") from None


def _digits(value: Fraction) -> str:
    """25 significant digits of an exact value, rounded half up, trailing zeros dropped: fixed
    point while the leading digit's exponent E is in -7..24, else d.ddd...e+E; 0 is 0.0."""
    x = abs(value)
    E = len(str(x.numerator)) - len(str(x.denominator))
    E -= x < Fraction(10) ** E  # 10^E <= x < 10^(E + 1)
    n = math.floor(x / Fraction(10) ** (E - 24) + Fraction(1, 2))
    d, E = (str(n), E) if n < 10**25 else (str(n // 10), E + 1)
    d, split, tail = ("0" * -E + d, max(E, 0) + 1, "") if -8 < E < 25 else (d, 1, f"e{E:+d}")
    d = (d[:split] + "." + d[split:]).rstrip("0")
    return "-" * (value < 0) + d + "0" * d.endswith(".") + tail


def render(
    cf: ClosedForm,
    mode: str = "raw",
    output_format: str = "text",
    *,
    table: Optional[ReductionTable] = None,
    report: Optional[VerificationReport] = None,
    echo: Optional[dict] = None,
) -> RenderedIdentity:
    """Render a closed form in the requested display mode and format."""
    if mode not in DISPLAY_MODES:
        raise CliError(f"unknown display mode {mode!r}")
    if output_format not in OUTPUT_FORMATS:
        raise CliError(f"unknown output format {output_format!r}")
    t_mode = mode == "t_values"
    if t_mode and cf.shift != Fraction(-1, 2):
        raise CliError("t_values display requires shift z = -1/2")
    if mode == "reduced":
        cf = apply_reductions(cf, table if table is not None else default_reduction_table())
    echo = dict(echo or {})
    if output_format == "json":
        payload = closed_form_to_json(cf)
        payload["input"] = echo
        if report is not None:
            payload["verification"] = {
                "passed": report.passed,
                "discrepancy": report.discrepancy,
                "n_used": report.n_used,
                "lhs": _digits(report.lhs_estimate.value),
                "rhs": _digits(report.rhs_value.value),
                "message": report.message,
            }
        text = json.dumps(payload, sort_keys=True)
        return RenderedIdentity(text)
    lines = []
    if echo:
        s_note = f"s={tuple(echo.get('s', ()))}"
        if echo.get("binomial"):
            pk = echo["binomial"]
            s_note += f" (binomial p={pk[0]}, k={pk[1]})"
        lines.append(
            f"series: F = {echo.get('F')}, m = {echo.get('m')}, "
            f"z = {echo.get('z')}, {s_note}"
        )
    lines.append(f"value = {_value(cf, t_mode, output_format == 'latex')}")
    if report is not None:
        status = "PASS" if report.passed else "FAIL"
        bounds = f"{report.lhs_estimate.abs_err_bound + report.rhs_value.abs_err_bound:.1e}"
        d = report.discrepancy  # below the printed bounds, its digits are the estimates' truncation
        shown = f"discrepancy < {bounds}" if d < float(bounds) else f"discrepancy={d:.3e}"
        message = f" {report.message}" if report.message else ""
        lines.append(f"verify: {status} (N={report.n_used}, {shown}){message}")
    return RenderedIdentity("\n".join(lines))


def run(request: CliRequest) -> tuple[int, str]:
    """Execute one request: pipeline, optional verification, rendering."""
    if request.display_mode == "t_values" and request.spec.z != Fraction(-1, 2):
        raise CliError("t_values display requires shift z = -1/2")  # before any work
    table = None
    if request.display_mode == "reduced":  # read before any work too
        path = request.reduction_table_path
        try:
            table = load_reduction_table(path) if path else default_reduction_table()
        except OSError as exc:
            raise CliError(f"cannot read --table {path!r}: {exc.strerror or exc}")
    cf = closed_form(request.spec)
    report = None
    if request.verify_n is not None:
        report = verify_identity(
            request.spec,
            apply_reductions(cf, table),
            tol=request.tolerance,
            N=request.verify_n,
        )
    rendered = render(
        cf.scaled(request.prefactor),
        request.display_mode,
        request.output_format,
        table=table,
        report=report,
        echo=request.echo,
    )
    code = 0
    if report is not None and not report.passed:
        code = 1
    return code, rendered.text


def main(argv=None) -> int:
    """Run every request; the exit code is the worst of the records' codes.

    A record that is malformed or fails to run is reported on stderr (with
    its index in an --input batch) and counts as exit code 2; the records
    after it still run, and each record's output is printed in order.
    """
    try:
        records, batch = _records(argv if argv is not None else sys.argv[1:])
    except ValueError as exc:  # CliError, ParseError, DivergentSeriesError, DeskLimitError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:  # --help
        return 0
    worst = 0
    for i, record in enumerate(records):
        try:
            code, text = run(_request_from_record(record))
        except ValueError as exc:
            where = f"record {i}: " if batch else ""
            print(f"error: {where}{exc}", file=sys.stderr)
            code = 2
        else:
            print(text)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
