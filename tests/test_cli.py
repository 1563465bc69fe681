import argparse
import json
import math
import random
import re
from fractions import Fraction as F

import pytest
from mpmath import mp, nstr

from zetaform import cli
from zetaform.cli import (
    CliError,
    CliRequest,
    closed_form_from_json,
    closed_form_to_json,
    main,
    parse_request,
    render,
    run,
)
from zetaform.engine import ClosedForm, SeriesSpec, closed_form
from zetaform.qsym import Polynomial, sort_key

X1 = Polynomial.variable(1)


class TestParseRequest:
    def test_flags(self):
        req = parse_request(["--F", "x1", "--m", "2", "--z", "0", "--s", "1,1"])
        assert req.spec == SeriesSpec(X1, 2, 0, (1, 1))
        assert req.prefactor == 1

    def test_binomial_sugar(self):
        req = parse_request(["--F", "x1", "--m", "1", "--z", "0", "--binomial", "4,5"])
        assert req.spec.s == (4, 1, 1, 1, 1, 1)
        assert req.prefactor == math.factorial(5)

    def test_negative_shift(self):
        req = parse_request(
            ["--F", "x1^2 - x2", "--m", "1", "--z", "-1/2", "--s", "0,1,1"]
        )
        assert req.spec.z == F(-1, 2)

    def test_divergent_rejected(self):
        with pytest.raises(CliError, match="diverges"):
            parse_request(["--F", "x1", "--m", "1", "--z", "0", "--s", "1"])

    def test_shift_out_of_range(self):
        with pytest.raises(CliError):
            parse_request(["--F", "x1", "--m", "1", "--z", "1/2", "--s", "0,2"])

    def test_requires_exactly_one_denominator(self):
        with pytest.raises(CliError):
            parse_request(["--F", "x1", "--m", "1", "--z", "0"])
        with pytest.raises(CliError):
            parse_request(
                ["--F", "x1", "--s", "0,2", "--binomial", "1,1", "--z", "0"]
            )

    def test_input_file(self, tmp_path):
        path = tmp_path / "req.json"
        path.write_text(
            json.dumps({"F": "x1", "m": 2, "z": "0", "s": [1, 1], "format": "json"})
        )
        reqs = parse_request(["--input", str(path)])
        assert isinstance(reqs, list) and len(reqs) == 1
        assert reqs[0].spec == SeriesSpec(X1, 2, 0, (1, 1))

    def test_input_batch(self, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(
            json.dumps(
                [
                    {"F": "x1", "m": 1, "z": "0", "s": [0, 2]},
                    {"F": "x1", "m": 1, "z": "0", "binomial": [0, 2]},
                ]
            )
        )
        reqs = parse_request(["--input", str(path)])
        assert len(reqs) == 2
        assert reqs[1].spec.s == (0, 1, 1)

    @pytest.mark.parametrize("denominator", [("s", [0, 1, 1]), ("binomial", [2, 3])])
    def test_flags_and_record_share_defaults(self, tmp_path, denominator):
        # every setting left out takes the same default on both paths
        name, values = denominator
        path = tmp_path / "req.json"
        path.write_text(json.dumps({"F": "x1^2 - x2", name: values}))
        flags = ["--F", "x1^2 - x2", f"--{name}", ",".join(map(str, values))]
        assert parse_request(["--input", str(path)]) == [parse_request(flags)]


class TestRender:
    def test_text_plain(self):
        cf = ClosedForm(F(1, 2), {((3,),): 1, ((2,),): F(-2, 3)}, F(0), 1)
        out = render(cf, "raw", "text")
        assert out.text.endswith("value = 1/2 - 2/3*zeta(2) + zeta(3)")

    def test_text_with_shift(self):
        cf = ClosedForm(F(0), {((3,),): 1}, F(-1, 3), 1)
        out = render(cf, "raw", "text")
        assert "zeta(3; -1/3)" in out.text

    def test_t_values_scaling(self):
        cf = ClosedForm(F(0), {((3,),): 1}, F(-1, 2), 1)
        out = render(cf, "t_values", "text")
        assert "8*t(3)" in out.text

    def test_t_values_requires_half_shift(self):
        cf = ClosedForm(F(0), {((3,),): 1}, F(0), 1)
        with pytest.raises(CliError):
            render(cf, "t_values", "text")

    def test_latex(self):
        cf = ClosedForm(F(1, 4), {((2,), (3,)): -1}, F(0), 1)
        out = render(cf, "raw", "latex")
        assert r"\frac{1}{4}" in out.text and r"\zeta(2)\zeta(3)" in out.text

    @pytest.mark.parametrize(
        "cf,mode,fmt,value",
        [
            pytest.param(ClosedForm(0, {}, 0, 1), "raw", "text", "0", id="zero-text"),
            pytest.param(ClosedForm(0, {}, 0, 1), "raw", "latex", "0", id="zero-latex"),
            pytest.param(ClosedForm(0, {((1, 2),): -1}, 0, 1), "raw", "text", "-zeta(1,2)",
                         id="leading-negative-term"),
            pytest.param(ClosedForm(0, {((2,),): F(-2, 3), ((3,),): F(5, 2)}, 0, 1), "raw",
                         "latex", r"-\frac{2}{3}\zeta(2) + \frac{5}{2}\zeta(3)",
                         id="leading-negative-fraction-latex"),
            pytest.param(ClosedForm(0, {((2,), (3,)): 1}, 0, 1), "raw", "latex",
                         r"\zeta(2)\zeta(3)", id="unit-product-latex"),
            pytest.param(ClosedForm(F(-1, 2), {((2,),): -1}, F(-1, 2), 1), "t_values", "text",
                         "-1/2 - 4*t(2)", id="t-values-constant-unscaled"),
            pytest.param(ClosedForm(0, {((2,),): 1}, F(-1, 2), 1), "raw", "latex",
                         r"\zeta(2; -1/2)", id="shifted-latex"),
        ],
    )
    def test_exact_value_line(self, cf, mode, fmt, value):
        assert render(cf, mode, fmt).text == f"value = {value}"

    def test_reduced_mode(self):
        cf = ClosedForm(F(0), {((1, 2),): 1}, F(0), 1)
        out = render(cf, "reduced", "text")
        assert out.text.endswith("value = zeta(3)")

    def test_json_roundtrip(self):
        cf = ClosedForm(
            F(131891, 172800),
            {((5,),): 3, ((2,), (3,)): -1, ((2,),): F(-874853, 216000)},
            F(0),
            1,
        )
        data = json.loads(render(cf, "raw", "json").text)
        assert closed_form_from_json(data) == cf

    def test_json_schema(self):
        cf = ClosedForm(F(1, 2), {((2,),): 1}, F(-1, 2), 3)
        data = closed_form_to_json(cf)
        assert data == {
            "constant": "1/2",
            "terms": [{"factors": [[2]], "coeff": "1"}],
            "z": "-1/2",
            "m": 3,
        }


def fraction_value(cf, t_mode, latex):
    """The value line built with Fraction comparison, negation and str, as a reference.

    It sorts the terms itself, so that it does not take their order from the closed form.
    """
    name, times = (r"\zeta", "") if latex else ("zeta", "*")
    shift = "" if cf.shift == 0 else f"; {cf.shift}"
    terms = [(mono, cf.terms[mono]) for mono in sorted(cf.terms, key=sort_key)]
    if cf.constant or not terms:
        terms.insert(0, ((), cf.constant))
    chunks = []
    for mono, coeff in terms:
        if t_mode:
            coeff *= 2 ** sum(sum(v) for v in mono)
        negative = coeff < 0
        size = -coeff if negative else coeff
        args = (",".join(map(str, v)) for v in mono)
        body = times.join(f"t({a})" if t_mode else f"{name}({a}{shift})" for a in args)
        if size != 1 or not mono:
            num = str(size)
            if latex and size.denominator != 1:
                num = rf"\frac{{{size.numerator}}}{{{size.denominator}}}"
            body = f"{num}{times}{body}" if mono else num
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


class TestRenderMatchesFractionReference:
    """The value line is rendered from numerators and denominators, byte for byte as before."""

    # -1/4, 3/8 and 5/16 become integers or halves under t_values' 2^|v| scaling
    COEFFS = (1, -1, 3, -7, F(1, 2), F(-2, 3), F(-1, 4), F(3, 8), F(5, 16), F(-9, 32), F(22, 7))

    def random_form(self, rng, shift):
        vectors = [(2,), (3,), (1, 2), (2, 1, 3), (1, 1, 4), (5,)]
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = [rng.choice(vectors) for _ in range(rng.randint(1, 2))]
            terms[tuple(mono)] = rng.choice(self.COEFFS)
        constant = rng.choice((0, 0) + self.COEFFS)
        return ClosedForm(constant, terms, shift, rng.choice((1, 2)))

    def forms(self):
        rng = random.Random(20261019)
        fixed = [
            ClosedForm(0, {}, F(-1, 2), 1),
            ClosedForm(5, {}, F(-1, 2), 1),
            ClosedForm(F(-3, 8), {}, F(-1, 2), 1),
            ClosedForm(0, {((2,),): F(1, 4), ((3,),): F(-1, 8)}, F(-1, 2), 1),
        ]
        return fixed + [self.random_form(rng, rng.choice((F(-1, 2), 0, F(-1, 3)))) for _ in range(300)]

    def test_text_and_latex_match_byte_for_byte(self):
        seen_t = 0
        for cf in self.forms():
            modes = ("raw", "t_values") if cf.shift == F(-1, 2) else ("raw",)
            for mode in modes:
                seen_t += mode == "t_values"
                for fmt, latex in (("text", False), ("latex", True)):
                    want = f"value = {fraction_value(cf, mode == 't_values', latex)}"
                    assert render(cf, mode, fmt).text == want, (cf, mode, fmt)
        assert seen_t > 50


class TestRun:
    def test_flagship_reduced(self):
        req = parse_request(
            [
                "--F",
                "x1",
                "--z",
                "0",
                "--binomial",
                "4,5",
                "--display",
                "reduced",
                "--format",
                "json",
            ]
        )
        code, text = run(req)
        assert code == 0
        cf = closed_form_from_json(json.loads(text))
        assert cf.constant == F(131891, 172800)
        assert cf.terms[((5,),)] == 3
        assert cf.terms[((2,), (3,))] == -1

    def test_binomial_equals_prefactored_plain(self):
        for p, k in [(0, 2), (1, 1), (2, 3), (1, 4)]:
            sugar = parse_request(
                ["--F", "x1", "--z", "0", "--binomial", f"{p},{k}"]
            )
            _, sugar_text = run(sugar)
            spec = SeriesSpec(X1, 1, 0, (p,) + (1,) * k)
            direct = closed_form(spec).scaled(math.factorial(k))
            plain = render(direct, "raw", "text").text
            assert sugar_text.splitlines()[-1] == plain.splitlines()[-1]

    def test_deterministic_output(self):
        argv = ["--F", "x1^2 - x2", "--m", "1", "--z", "-1/2", "--s", "0,1,1"]
        out1 = run(parse_request(argv))
        out2 = run(parse_request(argv))
        assert out1 == out2

    def test_verification_path(self):
        req = parse_request(
            ["--F", "x1", "--m", "2", "--z", "0", "--s", "1,1", "--verify", "500",
             "--tolerance", "1e-6"]
        )
        code, text = run(req)
        assert code == 0
        assert "verify: PASS" in text

    def test_verification_failure_sets_exit_code(self, tmp_path):
        # a wrong reduction table makes the displayed form fail verification
        path = tmp_path / "bad.json"
        path.write_text(
            '{"shift": "0", "rules": [{"source": [3], "constant": "1",'
            ' "terms": [{"factors": [[4]], "coeff": "1"}]}]}'
        )
        req = parse_request(
            ["--F", "x1", "--m", "2", "--z", "0", "--s", "1,1",
             "--display", "reduced", "--table", str(path),
             "--verify", "500", "--tolerance", "1e-6"]
        )
        code, text = run(req)
        assert code == 1
        assert "verify: FAIL" in text

    def test_discrepancy_below_the_bounds_is_not_printed_as_digits(self, monkeypatch):
        # sum 1/n^2 against zeta(2) agrees below the stated LHS + RHS bounds, where
        # its digits are the estimates' truncation: the text names the bounds' sum,
        # never below the discrepancy; JSON keeps the float
        reports, verify_identity = [], cli.verify_identity

        def keep_report(*args, **kwargs):
            reports.append(verify_identity(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "verify_identity", keep_report)
        argv = ["--F", "1", "--m", "2", "--z", "0", "--s", "2", "--verify", "600",
                "--tolerance", "1e-5"]
        code, text = run(parse_request(argv))
        assert code == 0
        (report,) = reports
        bounds = report.lhs_estimate.abs_err_bound + report.rhs_value.abs_err_bound
        assert bounds < 1e-31  # the stated parts only, no working-precision floor
        assert text.splitlines()[-1] == f"verify: PASS (N=600, discrepancy < {bounds:.1e})"
        assert report.discrepancy < float(f"{bounds:.1e}")
        _, text = run(parse_request(argv + ["--format", "json"]))
        verification = json.loads(text)["verification"]
        assert sorted(verification) == ["discrepancy", "lhs", "message", "n_used", "passed", "rhs"]
        assert isinstance(verification["discrepancy"], float)
        assert verification["discrepancy"] < 9.9e-25
        # above the bounds, the digits are shown as before: a closed form off by tol/2
        def off_by_half_tol(spec):
            cf = closed_form(spec)
            return ClosedForm(cf.constant + F(1, 2 * 10**6), dict(cf.terms), cf.shift, cf.order)

        monkeypatch.setattr(cli, "closed_form", off_by_half_tol)
        argv = ["--F", "x1", "--m", "2", "--z", "0", "--s", "1,1", "--verify", "500",
                "--tolerance", "1e-6"]
        _, text = run(parse_request(argv))
        line = text.splitlines()[-1]
        assert re.fullmatch(r"verify: PASS \(N=500, discrepancy=\d\.\d{3}e-\d\d\)", line)


class TestMain:
    def test_exit_zero(self, capsys):
        assert main(["--F", "x1", "--m", "1", "--z", "0", "--s", "0,2"]) == 0
        out = capsys.readouterr().out
        assert "zeta(1,2)" in out

    @pytest.mark.parametrize("text", ["0", "x1 - x1"])
    def test_zero_numerator_verifies(self, capsys, text):
        # F = 0 has no monomials: the raw-series head sums zeros and the identity is 0 = 0
        assert main(["--F", text, "--s", "0,2", "--verify", "600"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "value = 0"
        assert re.fullmatch(r"verify: PASS \(N=600, discrepancy < \S+\)", lines[-1])

    def test_least_positive_tolerance_verifies(self, capsys):
        # tol / 8 underflows to 0.0, and the oracle never sees an abs_err of 0
        assert main(["--F", "x1", "--s", "0,2", "--verify", "600", "--tolerance", "5e-324"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1].startswith("verify: PASS") and not captured.err

    def test_long_run_of_ones_exits_zero(self, capsys):
        # a run takes its closed form, not the pivot recursion: 1/(1199 * 1199!), no error
        assert main(["--F", "1", "--s", ",".join(["1"] * 1200)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == f"value = 1/{1199 * math.factorial(1199)}"
        assert not captured.err

    def test_heavy_two_entry_vector_exits_zero(self, capsys):
        # weight 1001 is pushed down one level at a time: -1 + zeta(2) - ... + zeta(1000)
        assert main(["--F", "1", "--s", "1000,1"]) == 0
        captured = capsys.readouterr()
        value = captured.out.splitlines()[1]
        assert value.startswith("value = -1 + zeta(2) - zeta(3)") and value.endswith(" + zeta(1000)")
        assert not captured.err

    def test_exit_two_on_parse_error(self, capsys):
        assert main(["--F", "x1 +", "--m", "1", "--z", "0", "--s", "0,2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_exit_two_on_divergence(self, capsys):
        assert main(["--F", "x1", "--m", "1", "--z", "0", "--s", "0,1"]) == 2
        err = capsys.readouterr().err
        assert "diverges" in err

    def test_parser_is_built_once(self, monkeypatch, capsys):
        # requests share the parser built at import; --help, a bad flag and a
        # value that starts with '-' behave as before
        def refuse(*args, **kwargs):
            raise AssertionError("a request built a new parser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert parse_request(["--F", "x1", "--z", "-1/2", "--s", "0,2"]).spec.z == F(-1, 2)
        assert main(["--help"]) == 0
        assert "usage: zetaform" in capsys.readouterr().out
        assert main(["--F", "x1", "--s", "0,2", "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


class TestExitCodes:
    """Bad input exits 2 with one 'error:' line on stderr, never a traceback."""

    ARGS = ["--F", "x1", "--m", "1", "--z", "0", "--s", "0,2"]

    def assert_input_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert captured.out == "" and "Traceback" not in captured.err
        return lines[0]

    def test_missing_input_file(self, capsys, tmp_path):
        line = self.assert_input_error(capsys, ["--input", str(tmp_path / "none.json")])
        assert "none.json" in line

    def test_unreadable_input_file(self, capsys, tmp_path):
        self.assert_input_error(capsys, ["--input", str(tmp_path)])

    def test_missing_table_file(self, capsys, tmp_path):
        argv = self.ARGS + ["--display", "reduced", "--table", str(tmp_path / "none.json")]
        line = self.assert_input_error(capsys, argv)
        assert "none.json" in line

    @staticmethod
    def rule(source, factors, constant="0"):
        terms = [{"factors": [list(factors)], "coeff": "1"}] if factors else []
        return {"source": list(source), "constant": constant, "terms": terms}

    @pytest.mark.parametrize(
        "table",
        [
            pytest.param([], id="list"),
            pytest.param({"shift": "0"}, id="missing-rules"),
            pytest.param({"shift": "0", "rules": 5}, id="rules-not-a-list"),
            pytest.param({"shift": "0", "rules": {}}, id="rules-an-object"),
            pytest.param({"shift": "0", "rules": [5]}, id="rule-not-an-object"),
            pytest.param({"rules": [{"constant": "1"}]}, id="missing-source"),
            pytest.param({"rules": [{"source": [1, 2], "terms": {}}]}, id="terms-an-object"),
            pytest.param({"rules": [{"source": [1, 2], "terms": [{"coeff": "1"}]}]},
                         id="missing-factors"),
            pytest.param({"rules": [{"source": [1, 2], "terms": [{"factors": [], "coeff": "1"}]}]},
                         id="empty-factors"),
            pytest.param({"rules": [{"source": [True, 2]}]}, id="bool-entry"),
            pytest.param({"rules": [{"source": [1.0, 2]}]}, id="float-entry"),
            pytest.param({"rules": [{"source": [0, 2]}]}, id="zero-entry"),
            pytest.param({"rules": [rule((1, 2), (3,), "1/0")]}, id="constant-1/0"),
            pytest.param({"rules": [rule((1, 2), (3,), 0.5)]}, id="float-constant"),
            pytest.param({"rules": [rule((1, 2), (3,), "abc")]}, id="constant-not-rational"),
            pytest.param({"shift": 0.0, "rules": []}, id="float-shift"),
            pytest.param({"shift": "1/2", "rules": []}, id="shift-out-of-range"),
            pytest.param({"rules": [rule((1, 2), (1, 2))]}, id="self-cycle"),
            pytest.param({"rules": [rule((1, 2), (1, 3)), rule((1, 3), (1, 2))]}, id="two-cycle"),
            pytest.param({"rules": [rule((2, 2), (1, 2)), rule((1, 2), (1, 2)), rule((1, 3), (4,))]},
                         id="cycle-behind-a-rule"),
        ],
    )
    def test_malformed_table_file(self, capsys, tmp_path, table):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        line = self.assert_input_error(capsys, self.ARGS + ["--display", "reduced", "--table", str(path)])
        assert "reduction table" in line

    NOT_JSON = [pytest.param(b"{not json", id="not-json"),
                pytest.param(b'{"F": "x1\xff"}', id="not-utf-8")]

    @pytest.mark.parametrize("raw", NOT_JSON)
    def test_table_file_not_json(self, capsys, tmp_path, raw):
        path = tmp_path / "table.json"
        path.write_bytes(raw)
        line = self.assert_input_error(capsys, self.ARGS + ["--display", "reduced", "--table", str(path)])
        assert line.startswith("error: malformed reduction table (")

    @pytest.mark.parametrize("raw", NOT_JSON)
    def test_input_file_not_json(self, capsys, tmp_path, raw):
        path = tmp_path / "req.json"
        path.write_bytes(raw)
        line = self.assert_input_error(capsys, ["--input", str(path)])
        assert line.startswith(f"error: cannot parse --input {str(path)!r} as JSON: ")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_verify_n(self, capsys, n):
        line = self.assert_input_error(capsys, self.ARGS + ["--verify", n])
        assert f"got {n}" in line

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-3"])
    def test_bad_tolerance(self, capsys, tol):
        line = self.assert_input_error(
            capsys, self.ARGS + ["--verify", "100", "--tolerance", tol]
        )
        assert "tolerance" in line

    def test_t_values_at_a_bad_shift_does_no_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ran before the t_values shift check")

        monkeypatch.setattr(cli, "closed_form", refuse)
        monkeypatch.setattr(cli, "verify_identity", refuse)
        argv = ["--F", "x1^2-x2", "--s", "1,1,1,2", "--display", "t_values",
                "--verify", "100000", "--tolerance", "1e-12"]
        line = self.assert_input_error(capsys, argv)
        assert line == "error: t_values display requires shift z = -1/2"

    @pytest.mark.parametrize("flag", ["--s", "--binomial"])
    @pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
    def test_dash_leading_list_value(self, capsys, flag, joined):
        # a value that starts with '-' reaches zetaform's own check, as --flag=value does
        value = ["--F", "x1", f"{flag}=-1,2"] if joined else ["--F", "x1", flag, "-1,2"]
        line = self.assert_input_error(capsys, value)
        assert "usage" not in line and "expected one argument" not in line

    @pytest.mark.parametrize(
        "argv,record,message",
        [
            (None, {"s": [0, 2]}, "record 0: record is missing the numerator expression 'F'"),
            (["--F", "x1", "--binomial", "4,0"], None, "binomial shorthand needs p >= 0, k >= 1"),
            (None, {"F": "x1", "s": [0, 2], "format": "pdf"}, "record 0: unknown format 'pdf'"),
            (None, {"F": "x1", "s": [0, 2], "display": "tex"},
             "record 0: unknown display mode 'tex'"),
            (None, {"F": "x1", "s": [0, 2], "tolerance": "abc"},
             "record 0: cannot parse tolerance='abc' as a number"),
            (["--F", "x1"], {"F": "x1", "s": [0, 2]},
             "--input cannot be combined with --F/--s/--binomial"),
            (["--s", "0,2"], None, "--F is required (or use --input)"),
            (["--F", "x1", "--s", "0,x"], None, "cannot parse --s '0,x'"),
        ],
        ids=["no-F", "binomial-k0", "format-pdf", "display-tex", "tolerance-abc",
             "input-and-F", "no-F-flag", "s-not-int"],
    )
    def test_each_input_error(self, capsys, tmp_path, argv, record, message):
        argv = list(argv or [])
        if record is not None:
            path = tmp_path / "req.json"
            path.write_text(json.dumps(record))
            argv += ["--input", str(path)]
        assert self.assert_input_error(capsys, argv) == f"error: {message}"

    @pytest.mark.parametrize(
        "argument,field,value,message",
        [("mode", "display_mode", "tex", "unknown display mode 'tex'"),
         ("output_format", "output_format", "pdf", "unknown output format 'pdf'")],
    )
    def test_render_rejects_unknown_mode_or_format(
        self, capsys, monkeypatch, argument, field, value, message
    ):
        with pytest.raises(CliError, match=message):
            render(closed_form(SeriesSpec(X1, 1, 0, (0, 2))), **{argument: value})
        # through main: a request that reaches render with either is one error line
        real = cli._request_from_record

        def patched(record):
            req = real(record)
            return CliRequest(**{**{f: getattr(req, f) for f in req._fields}, field: value})

        monkeypatch.setattr(cli, "_request_from_record", patched)
        assert self.assert_input_error(capsys, self.ARGS) == f"error: {message}"

    def test_bad_record_values_in_input_file(self, capsys, tmp_path):
        path = tmp_path / "req.json"
        path.write_text(json.dumps({"F": "x1", "z": "0", "s": [0, 2], "verify": 0}))
        line = self.assert_input_error(capsys, ["--input", str(path)])
        assert line.startswith("error: record 0:")


class TestBatch:
    def test_bad_middle_record(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(
            json.dumps(
                [
                    {"F": "x1", "z": "0", "s": [0, 2]},
                    # weight-11 zeta values exceed the desk caps of the verifier
                    {"F": "x1^9", "z": "0", "s": [0, 2], "verify": 100},
                    {"F": "x1 +", "z": "0", "s": [0, 2]},
                    "x1",
                    {"F": "x1", "m": 2, "z": "0", "s": [1, 1], "verify": 100},
                ]
            )
        )
        assert main(["--input", str(path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 3
        assert err[0].startswith("error: record 1:") and "exceeds" in err[0]
        assert err[1].startswith("error: record 2:")
        assert err[2].startswith("error: record 3:")
        values = [l for l in captured.out.splitlines() if l.startswith("value = ")]
        assert values == ["value = zeta(1,2)", "value = zeta(3)"]
        assert "verify: PASS" in captured.out

    def test_worst_code_wins(self, capsys, tmp_path):
        bad_table = tmp_path / "bad.json"
        bad_table.write_text(
            '{"shift": "0", "rules": [{"source": [3], "constant": "1",'
            ' "terms": [{"factors": [[4]], "coeff": "1"}]}]}'
        )
        record = {"F": "x1", "m": 2, "z": "0", "s": [1, 1], "verify": 100}
        path = tmp_path / "batch.json"
        path.write_text(
            json.dumps(
                [dict(record, display="reduced", table=str(bad_table)), record]
            )
        )
        assert main(["--input", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.index("verify: FAIL") < out.index("verify: PASS")


class TestDeepInput:
    DEEP = "(" * 1000 + "x1" + ")" * 1000

    def test_flag_is_input_error(self, capsys):
        assert main(["--F", self.DEEP, "--s", "0,2"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "nested too deeply" in err[0]

    def test_batch_runs_past_deep_record(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text(
            json.dumps(
                [{"F": self.DEEP, "z": "0", "s": [0, 2]}, {"F": "x1", "z": "0", "s": [0, 2]}]
            )
        )
        assert main(["--input", str(path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: record 0:")
        assert "value = zeta(1,2)" in captured.out.splitlines()


class TestRecordTypes:
    GOOD = {"F": "x1", "z": "0", "s": [0, 2]}

    @pytest.mark.parametrize(
        "field,value",
        [
            ("F", 5),
            ("m", 1.7),
            ("m", True),
            ("z", -0.5),
            ("z", [0]),
            ("s", 5),
            ("s", [2.9]),
            ("s", [0, True]),
            ("binomial", [4, 5.0]),
            ("binomial", "4,5"),
            ("verify", [1]),
            ("verify", 100.0),
            ("tolerance", [1e-8]),
            ("tolerance", True),
            ("table", 7),
        ],
    )
    def test_wrong_json_type_is_one_error_line(self, capsys, tmp_path, field, value):
        record = dict(self.GOOD, **{field: value})
        if field == "binomial":
            del record["s"]
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(record))
        assert main(["--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: record 0: ") and f"'{field}'" in err[0]

    def test_wrong_arity_binomial(self, capsys, tmp_path):
        path = tmp_path / "rec.json"
        path.write_text(json.dumps({"F": "x1", "z": "0", "binomial": [1, 2, 3]}))
        assert main(["--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: record 0: 'binomial'")

    def test_accepted_json_types(self, capsys, tmp_path):
        path = tmp_path / "rec.json"
        path.write_text(
            json.dumps(
                {"F": "x1", "m": 2, "z": 0, "s": [1, 1], "verify": 100, "tolerance": "1e-6"}
            )
        )
        assert main(["--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "value = zeta(3)" in out and "verify: PASS" in out


class TestClosedFormFromJsonTypes:
    GOOD = {"constant": "0", "terms": [{"factors": [[2]], "coeff": "1"}], "z": "0", "m": 1}

    @pytest.mark.parametrize(
        "change",
        [
            {"terms": [{"factors": [[2.7]], "coeff": "1"}], "m": 1.9},
            {"terms": [{"factors": [[2.0]], "coeff": "1"}]},
            {"terms": [{"factors": [[1, True]], "coeff": "1"}]},
            {"terms": [{"factors": [[True, 2]], "coeff": "1"}]},
            {"m": 1.0},
            {"m": True},
            {"constant": 0.1},
            {"terms": [{"factors": [[2]], "coeff": 0.5}]},
            {"terms": [{"factors": [[2]], "coeff": False}]},
            {"z": -0.5},
        ],
    )
    def test_float_or_boolean_is_rejected(self, change):
        with pytest.raises(CliError):
            closed_form_from_json({**self.GOOD, **change})

    def test_integers_and_strings_load(self):
        data = {**self.GOOD, "constant": 2, "z": "-1/2", "m": 2}
        cf = closed_form_from_json(data)
        assert cf == ClosedForm(F(2), {((2,),): 1}, F(-1, 2), 2)


class TestClosedFormFromJsonShape:
    GOOD = TestClosedFormFromJsonTypes.GOOD
    NO_TERMS = {k: v for k, v in GOOD.items() if k != "terms"}

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param([GOOD], id="list-payload"),
            pytest.param(NO_TERMS, id="missing-terms"),
            pytest.param({**GOOD, "terms": 5}, id="terms-not-a-list"),
            pytest.param({**GOOD, "terms": ["x"]}, id="term-not-an-object"),
            pytest.param({**GOOD, "terms": [{"factors": [2], "coeff": "1"}]}, id="flat-factors"),
            pytest.param({**GOOD, "terms": [{"factors": [[2]]}]}, id="missing-coeff"),
            pytest.param({**GOOD, "terms": [{"factors": [[1]], "coeff": "1"}]}, id="last-entry-1"),
            pytest.param({**GOOD, "terms": [{"factors": [[]], "coeff": "1"}]}, id="empty-vector"),
            pytest.param({**GOOD, "terms": [{"factors": [], "coeff": "2"}]}, id="empty-factors"),
            pytest.param({**GOOD, "terms": [{"factors": [[2]], "coeff": "1/0"}]}, id="coeff-1/0"),
            pytest.param({**GOOD, "constant": "abc"}, id="constant-not-rational"),
            pytest.param({**GOOD, "z": "1/0"}, id="z-1/0"),
            pytest.param({**GOOD, "z": "-1"}, id="z-minus-1"),
            pytest.param({**GOOD, "z": "1/2"}, id="z-positive"),
            pytest.param({**GOOD, "m": 0}, id="m-0"),
            pytest.param({**GOOD, "m": -2}, id="m-negative"),
        ],
    )
    def test_malformed_payload_is_rejected(self, data):
        with pytest.raises(CliError):
            closed_form_from_json(data)

    def test_zero_denominator_shift_is_an_input_error(self, capsys):
        assert main(["--F", "x1", "--z", "1/0", "--s", "0,2"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot parse z='1/0'")


class TestDigits:
    """The JSON digit strings against mpmath's nstr of the value rounded to 128 bits."""

    @staticmethod
    def reference(value):
        return nstr(mp.fdiv(value.numerator, value.denominator, prec=128), 25)

    def test_random_values(self):
        rng = random.Random(28)
        for _ in range(10000):
            value = F(rng.randint(-(10**30), 10**30), rng.randint(1, 10**30))
            value *= F(10) ** rng.randint(-12, 30)
            assert cli._digits(value) == self.reference(value), value

    def test_zero_signs_carries_and_the_layout_switch(self):
        # the leading digit's exponent E: fixed point for -7 <= E <= 24, e notation outside
        values = [F(0), F(1), F(-1, 3), F(10**26 - 1, 10**25), F(-(10**26 - 1), 10**26)]
        for E in (-9, -8, -7, -6, 23, 24, 25, 26):
            values += [F(10) ** E, F(20, 3) * F(10) ** E, -F(1, 7) * F(10) ** (E + 1)]
            values += [F(10**26 - 1, 10**25) * F(10) ** E]  # 9.99...: carries into E + 1
        for value in values:
            assert cli._digits(value) == self.reference(value), value
