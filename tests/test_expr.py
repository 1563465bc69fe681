from fractions import Fraction as F

import pytest

from zetaform.expr import ParseError, parse_polynomial
from zetaform.qsym import Polynomial

X1 = Polynomial.variable(1)
X2 = Polynomial.variable(2)


class TestGrammar:
    def test_single_variable(self):
        assert parse_polynomial("x1") == X1

    def test_square_minus_second(self):
        assert parse_polynomial("x1^2 - x2") == X1 * X1 - X2

    def test_rational_coefficients(self):
        assert parse_polynomial("1/2 * x1") == F(1, 2) * X1
        assert parse_polynomial("x1 / 3") == F(1, 3) * X1

    def test_parentheses(self):
        got = parse_polynomial("(x1 - 1) * (x1 + 1)")
        assert got == X1 * X1 - Polynomial.constant(1)

    def test_power_of_group(self):
        assert parse_polynomial("(x1 + x2)^2") == (X1 + X2) ** 2

    def test_unary_signs(self):
        assert parse_polynomial("-x1 + +x2") == -X1 + X2
        assert parse_polynomial("--x1") == X1

    def test_constant_expression(self):
        assert parse_polynomial("3 - 5/2") == Polynomial.constant(F(1, 2))

    def test_whitespace_insensitive(self):
        assert parse_polynomial(" x1^2-x2 ") == parse_polynomial("x1^2 - x2")


class TestErrors:
    def test_empty(self):
        with pytest.raises(ParseError):
            parse_polynomial("   ")

    def test_position_reported(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("x1 + @")
        assert info.value.position == 5

    def test_trailing_operator(self):
        with pytest.raises(ParseError) as info:
            parse_polynomial("x1 *")
        assert info.value.position == 4

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_polynomial("(x1 + 1")

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            parse_polynomial("x1^x2")

    def test_division_by_variable(self):
        with pytest.raises(ParseError):
            parse_polynomial("1 / x1")

    def test_division_by_zero(self):
        with pytest.raises(ParseError):
            parse_polynomial("x1 / 0")

    def test_variable_range(self):
        with pytest.raises(ParseError):
            parse_polynomial("x10 + 1")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_polynomial("2 x1")

    @pytest.mark.parametrize(
        "text", ["(" * 1000 + "x1" + ")" * 1000, "-" * 1000 + "x1"], ids=["parens", "minus"]
    )
    def test_deep_nesting(self, text):
        # deeper than the recursion limit: an input error, not a RecursionError
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_polynomial(text)
