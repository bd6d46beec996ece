"""Grammar: golden formats, parse errors, and the round-trip law."""

import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona3 import (
    ArityMismatch,
    DimensionMismatch,
    DomainError,
    ParseError,
    Polynomial,
    UnknownVariable,
    format_map,
    format_polynomial,
    format_rational,
    parse_map,
    parse_polynomial,
    variables,
)
from cremona3 import KERNEL_VARIABLE_NAMES, exactpoly, grammar
from cremona3._termops import MAX_EXPONENT
from cremona3.grammar import MAX_NESTING, MAX_POWER_TERMS, MAX_PRODUCT_PAIRS
from cremona3.verify import random_polynomial
from test_exactpoly import polynomials

X, Y, Z = variables(3)
HALF = Fraction(1, 2)
P = X * Z - HALF * Y ** 2


# -- formatting ------------------------------------------------------------


def test_format_p():
    assert format_polynomial(P) == "x*z - 1/2*y^2"


def test_format_second_nagata_component():
    # y + z*p, sorted by ascending degree then x-major within a degree.
    assert format_polynomial(Y + Z * P) == "y + x*z^2 - 1/2*y^2*z"


def test_format_zero_and_constants():
    assert format_polynomial(Polynomial.zero(3)) == "0"
    assert format_polynomial(Polynomial.constant(3, 5)) == "5"
    assert format_polynomial(Polynomial.constant(3, Fraction(-3, 2))) == "-3/2"


def test_format_leading_negative_and_unit_coefficients():
    assert format_polynomial(-X + Y) == "-x + y"
    assert format_polynomial(X * Y) == "x*y"
    assert format_polynomial(-(Y ** 2)) == "-y^2"
    assert format_polynomial(X - Polynomial.one(3)) == "-1 + x"


def test_format_uses_given_names():
    c = Polynomial(2, {(2, 1): 1, (1, 0): 3})
    assert format_polynomial(c, ("Z", "P")) == "3*Z + Z^2*P"


def test_format_other_dimensions_default_names():
    q = Polynomial.variable(3, 4)
    assert format_polynomial(q) == "x4"


def test_format_is_deterministic():
    text = format_polynomial(P * P + X)
    assert all(format_polynomial(P * P + X) == text for _ in range(3))


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 8)) == "-1/8"


def test_format_map():
    assert format_map((X + 1, Y, Z)) == "(1 + x, y, z)"


def _reference_order_key(exps):
    return (sum(exps),) + tuple(-e for e in exps)


def _reference_format(p, names=None):
    """The formatter as it read on exponent tuples, kept as the oracle of the packed one."""
    if names is None:
        names = exactpoly.default_variable_names(p.dimension)
    if p.is_zero():
        return "0"
    den, numerators = p.integer_terms()
    pieces = []
    for exps in sorted(numerators, key=_reference_order_key):
        coeff = numerators[exps]
        sign = "-" if coeff < 0 else "+"
        factors = []
        magnitude = -coeff if coeff < 0 else coeff
        monomial = [(names[i], e) for i, e in enumerate(exps) if e]
        if magnitude != den or not monomial:
            factors.append(str(Fraction(magnitude, den)))
        for name, e in monomial:
            factors.append(name if e == 1 else f"{name}^{e}")
        pieces.append((sign, "*".join(factors)))
    first_sign, first_body = pieces[0]
    out = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def _outcome(formatter, p, names):
    try:
        return formatter(p, names)
    except IndexError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: polynomials(dimension=n, max_degree=5, max_terms=8)))
def test_format_matches_the_reference_formatter(p):
    assert format_polynomial(p) == _reference_format(p)
    if p.dimension == 2:
        assert format_polynomial(p, KERNEL_VARIABLE_NAMES) == _reference_format(p, KERNEL_VARIABLE_NAMES)
    # A names tuple shorter than the dimension fails only on a term that needs a missing name.
    for names in (("a",), ["a", "b"], ()):
        assert _outcome(format_polynomial, p, names) == _outcome(_reference_format, p, names)


# -- parsing ----------------------------------------------------------------


def test_parse_p():
    assert parse_polynomial("x*z - 1/2*y^2") == P


def test_parse_zero_and_whitespace():
    assert parse_polynomial("0") == Polynomial.zero(3)
    assert parse_polynomial("  ( x + y ) ^ 2  ") == (X + Y) ** 2


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_polynomial("2x")


def test_parse_rejects_division_by_variables():
    with pytest.raises(ParseError):
        parse_polynomial("x/2")


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_polynomial("1/0")


def test_parse_rejects_negative_exponent():
    with pytest.raises(ParseError):
        parse_polynomial("x^-1")


def test_unary_minus_binds_after_power():
    assert parse_polynomial("-y^2") == -(Y ** 2)
    assert parse_polynomial("-y^2 + y^2") == Polynomial.zero(3)


def test_rational_base_with_exponent():
    assert parse_polynomial("3/2^2") == Polynomial.constant(3, Fraction(9, 4))


def test_power_past_the_term_budget_raises_before_computing(monkeypatch):
    def refuse(terms, exponent):
        raise AssertionError("a power past the budget was computed")

    monkeypatch.setattr(grammar, "pow_terms", refuse)
    for text in (
        "(x+y+z)^100000",
        "(x + y)^1000",  # C(1001, 1000) = 1001 terms
        "(x + y + z)^44",  # C(46, 44) = 1035 terms
        "(1 + x)^" + "9" * 40,
        "x * (y - z*x)^123456789",
    ):
        with pytest.raises(DomainError, match="term budget"):
            parse_polynomial(text)
    with pytest.raises(DomainError, match="term budget"):
        parse_polynomial("(x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8)^9", dimension=8)


def test_powers_within_the_term_budget_are_computed():
    assert MAX_POWER_TERMS == 1000
    assert len(parse_polynomial("(x + y + z)^43").exponents()) == 990  # C(45, 43)
    assert parse_polynomial("(x - x)^100000") == Polynomial.zero(3)
    assert parse_polynomial("(2*x*y)^3") == 8 * X ** 3 * Y ** 3
    assert parse_polynomial("(x + 1)^0") == 1


def test_integer_literals_past_the_digit_limit_raise_domain_error():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no limit on integer string conversion")
    long = "9" * (limit + 1)
    for text in (f"{long}*x", f"x^{long}", f"1/{long}*y", f"(x + y)^{long}", "0" * (limit + 1)):
        with pytest.raises(DomainError, match=f"{limit + 1} digits exceeds the limit of {limit} digits"):
            parse_polynomial(text)
    assert parse_polynomial("9" * limit + "*x") == int("9" * limit) * X


def test_coefficients_past_the_digit_limit_raise_domain_error_when_printed():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no limit on integer string conversion")
    huge = 10 ** limit  # limit + 1 digits
    for p in (huge * X, X / huge, Polynomial.constant(3, huge), huge * X + Y):
        with pytest.raises(DomainError, match=f"limit of {limit} digits"):
            format_polynomial(p)
        with pytest.raises(DomainError):
            str(p)
    with pytest.raises(DomainError, match=f"limit of {limit} digits"):
        format_rational(Fraction(huge, 7))
    assert format_polynomial((huge - 1) * X) == "9" * limit + "*x"


def test_unknown_variable_reports_position():
    with pytest.raises(UnknownVariable) as info:
        parse_polynomial("x + w")
    assert info.value.line == 1
    assert info.value.column == 5


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as info:
        parse_polynomial("x +\n 2y")
    assert (info.value.line, info.value.column) == (2, 3)
    assert parse_polynomial("x +\ny") == X + Y


def test_only_errors_writes_a_position_into_a_message():
    # A position is data on the error, (line, column), and errors.py alone puts it
    # into the message text: no other module holds a string (or an f-string part)
    # with "(line ", so no caller has to read a position back out of a message.
    writers = set()
    for path in Path(exactpoly.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and "(line " in str(node.value):
                writers.add(path.stem)
    assert writers == {"errors"}


@pytest.mark.parametrize("text", ["²", "1²", "x^²", "²x"])
def test_superscript_digits_are_unexpected_characters(text):
    with pytest.raises(ParseError, match="unexpected character '²'"):
        parse_polynomial(text)


def test_decimal_digits_of_other_scripts_are_integers():
    assert parse_polynomial("٣*x") == 3 * X


@pytest.mark.parametrize(
    "parse, text, error, message",
    [
        (parse_map, "(x,\n y,\n w)", UnknownVariable, "unknown variable 'w' (line 3, column 2)"),
        (
            parse_map,
            "(x,\n y +,\n z)",
            ParseError,
            "expected a rational, a variable or '(', found ',' (line 2, column 5)",
        ),
        (parse_map, "(x, y, z)\n\n  extra", ParseError, "unexpected 'extra' after map literal (line 3, column 3)"),
        (parse_map, "(x,\n y,\n z", ParseError, "expected ')', found 'end of input' (line 3, column 3)"),
        (parse_map, "(x,\r\n\ty,\u2028w)", UnknownVariable, "unknown variable 'w' (line 2, column 5)"),
        # The end of input stands after the trailing whitespace.
        (
            parse_polynomial,
            "x +   ",
            ParseError,
            "expected a rational, a variable or '(', found 'end of input' (line 1, column 7)",
        ),
        (
            parse_polynomial,
            "x +\n\n  ",
            ParseError,
            "expected a rational, a variable or '(', found 'end of input' (line 3, column 3)",
        ),
        (
            parse_polynomial,
            "x + \r\n",
            ParseError,
            "expected a rational, a variable or '(', found 'end of input' (line 2, column 1)",
        ),
        # Only "\n" starts a line: "\r", a tab, U+00A0 and U+2028 are one column each.
        (parse_polynomial, "x\r\n+ w", UnknownVariable, "unknown variable 'w' (line 2, column 3)"),
        (parse_polynomial, "\tw", UnknownVariable, "unknown variable 'w' (line 1, column 2)"),
        (parse_polynomial, "\u00a0w", UnknownVariable, "unknown variable 'w' (line 1, column 2)"),
        (parse_polynomial, "x\u2028w", ParseError, "unexpected 'w' after expression (line 1, column 3)"),
        (parse_polynomial, "x\u2028\u2028+ w", UnknownVariable, "unknown variable 'w' (line 1, column 6)"),
        # A name starts with a letter or "_" and goes on with letters, digits and "_".
        (parse_polynomial, "x_1", UnknownVariable, "unknown variable 'x_1' (line 1, column 1)"),
        (parse_polynomial, "_x", UnknownVariable, "unknown variable '_x' (line 1, column 1)"),
        (parse_polynomial, "α + x", UnknownVariable, "unknown variable 'α' (line 1, column 1)"),
        (parse_polynomial, "x + βγ", UnknownVariable, "unknown variable 'βγ' (line 1, column 5)"),
        (parse_polynomial, "x²", UnknownVariable, "unknown variable 'x²' (line 1, column 1)"),
        (parse_polynomial, "y\n + x٣", UnknownVariable, "unknown variable 'x٣' (line 2, column 4)"),
        (parse_polynomial, "x½", UnknownVariable, "unknown variable 'x½' (line 1, column 1)"),
        (parse_polynomial, "½", ParseError, "unexpected character '½' (line 1, column 1)"),
        (parse_polynomial, "x + ½", ParseError, "unexpected character '½' (line 1, column 5)"),
    ],
)
def test_scanner_errors_name_their_line_and_column(parse, text, error, message):
    with pytest.raises(error) as info:
        parse(text)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["x\r\n+\ty", "x\t\u00a0+\u2028y", "\u00a0x +\ny\r\n", " \n x+y \n "])
def test_scanner_whitespace_separates_tokens(text):
    assert parse_polynomial(text) == X + Y


def test_dimension_is_checked_before_variable_names():
    with pytest.raises(DimensionMismatch, match="got 0"):
        parse_polynomial("x", 0)
    with pytest.raises(DimensionMismatch, match="got 0"):
        parse_map("(x)", 0)


def test_parse_custom_dimension_names():
    q = parse_polynomial("x1*x4 - x2", 4)
    x1, x2, x3, x4 = variables(4)
    assert q == x1 * x4 - x2


def test_parse_map_literal():
    assert parse_map("(x+1, y, z)") == (X + 1, Y, Z)
    assert parse_map("(x, y, z)") == (X, Y, Z)


def test_parse_map_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse_map("(x, y)", 3)


def test_parse_map_infers_dimension():
    comps = parse_map("(x1, x2, x3, x4)")
    assert len(comps) == 4
    assert comps[0].dimension == 4


def test_parse_map_nested_parens():
    assert parse_map("((x + 1)*(x - 1), y, z)") == (X ** 2 - 1, Y, Z)


def test_parse_map_trailing_garbage():
    with pytest.raises(ParseError):
        parse_map("(x, y, z) extra")


# -- round trip ---------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(polynomials(max_degree=6, max_terms=7))
def test_round_trip_hypothesis(p):
    assert parse_polynomial(format_polynomial(p)) == p


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="xyz123+-*/() \n\tw", max_size=40))
def test_parser_never_crashes(text):
    # Arbitrary input either parses or raises the grammar's own error.
    # "^" is exercised by the deterministic tests; fuzzing it can build
    # legitimately huge powers.
    try:
        parse_polynomial(text)
    except ParseError:
        pass


def test_round_trip_seeded_samples():
    rng = random.Random(20240817)
    for _ in range(200):
        p = random_polynomial(rng, dimension=3, max_degree=6)
        assert parse_polynomial(format_polynomial(p)) == p


def test_round_trip_other_dimension():
    rng = random.Random(7)
    for _ in range(50):
        p = random_polynomial(rng, dimension=4, max_degree=4)
        assert parse_polynomial(format_polynomial(p), 4) == p


def _long_sum():
    """The 1,771-term (x + 2*y + z/3 + 1)^20 and its formatted text."""
    p = (X + 2 * Y + Z / 3 + 1) ** 20
    return p, format_polynomial(p)


def test_round_trip_long_sum():
    p, text = _long_sum()
    assert len(p.exponents()) == 1771
    assert parse_polynomial(text) == p


def test_one_sum_adds_each_term_once(monkeypatch):
    # The terms of one +/- chain go into one accumulator: no "+" copies
    # the running total, so the work is linear in the number of terms.
    p, text = _long_sum()
    added = []
    original = exactpoly.iadd_scaled_terms

    def counted(acc, src, c):
        added.append(len(src))
        original(acc, src, c)

    def refuse(terms, c):
        raise AssertionError("a sum copied a term map")

    monkeypatch.setattr(exactpoly, "iadd_scaled_terms", counted)
    monkeypatch.setattr(exactpoly, "scale_terms", refuse)
    assert parse_polynomial(text) == p
    assert added == [1] * len(p.exponents())


def test_parsing_builds_one_polynomial_per_value(monkeypatch):
    # Parser values are integer pairs: one Polynomial per parsed
    # polynomial, and one per map component.
    p, text = _long_sum()
    made = []
    original = Polynomial._make.__func__

    def counted(cls, dimension, den, terms):
        made.append(dimension)
        return original(cls, dimension, den, terms)

    monkeypatch.setattr(Polynomial, "_make", classmethod(counted))
    got = parse_polynomial(text)
    assert len(made) == 1
    made.clear()
    parse_polynomial("-(1/2*x + y)^3*(x - 2/3) + 6/4*z*(y - -x)^2 - 3/3")
    assert len(made) == 1
    made.clear()
    components = parse_map("(x*z - 1/2*y^2, -(y + 1)^2, 2/4*z)")
    assert len(made) == 3
    monkeypatch.undo()
    assert got == p
    assert components == (P, -(Y + 1) ** 2, Z / 2)


def test_parsed_values_are_canonical():
    # Intermediate pairs need not be reduced; the parsed polynomial is, and
    # Polynomial equality compares the canonical pairs exactly.
    for text, want in (
        ("2/4*x + 2/4*y", (X + Y) / 2),
        ("(2/2*x)^5", X ** 5),
        ("6/4 - 1/2", Polynomial.one(3)),
        ("3/6*(2*x - 2*x)", Polynomial.zero(3)),
        ("(4/6)^3*y", Fraction(8, 27) * Y),
    ):
        assert parse_polynomial(text) == want


def test_a_power_base_is_reduced_first(monkeypatch):
    # Unreduced, (2/2)^k would carry 2^k over 2^k, and (1/2*x - 1/2*x)^k a denominator 2^k.
    bases = []
    original = grammar.pow_terms

    def recorded(terms, k):
        bases.append(terms)
        return original(terms, k)

    monkeypatch.setattr(grammar, "pow_terms", recorded)
    assert parse_polynomial("(2/2)^100000 + (1/2*x - 1/2*x)^100000 - (4/6*y)^2") == 1 - Fraction(4, 9) * Y ** 2
    assert bases == [{0: 1}, {}, {1 << 21: 2}]


def test_power_past_the_print_limit_raises_before_computing(monkeypatch):
    # The k-th powers of the coefficients of the smallest and largest monomials
    # are coefficients of the result; when one cannot be printed the power is
    # refused, even if a later term cancels it.
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no limit on integer string conversion")

    def refuse(terms, exponent):
        raise AssertionError("a power past the print limit was computed")

    monkeypatch.setattr(grammar, "pow_terms", refuse)
    k = 4 * limit
    for text in (
        "(12345678901*x + 98765432101/7*y)^999",
        "(12345678901*x + y)^999",
        f"(1/12345678901*y)^{k}",
        f"2^{k}",
        f"(2*x)^{k} - (2*x)^{k}",
        "x*(3*z)^99999",
    ):
        with pytest.raises(DomainError, match=f"exceeds the limit of {limit} digits for printing"):
            parse_polynomial(text)


def test_print_checks_refuse_exactly_at_their_bit_bound(monkeypatch):
    # With a 10-digit limit the bound is 34 bits (2^34 has 11 digits): a power or
    # product whose coefficient is at least 2^34 by the bit count is refused at
    # parse time; one bit less parses, as does a product whose factors cancel.
    monkeypatch.setattr(grammar, "_digit_limit", lambda: 10)
    assert grammar._print_bits() == 34
    for text in ("(131072*x)^2", "131072*x*131072", "1/131072*x*(1/131072)"):
        with pytest.raises(DomainError, match="exceeds the limit of 10 digits for printing"):
            parse_polynomial(text)
    assert parse_polynomial("(65536*x)^2") == 2 ** 32 * X ** 2
    assert parse_polynomial("131072*x*65536") == 2 ** 33 * X
    assert parse_polynomial("1/131072*x*(1/65536)") == X / 2 ** 33
    assert parse_polynomial("1099511627776*x*(1/1099511627776)") == X
    # The bound is sound for every limit up to 5,000 digits: 2^bound has more digits.
    for limit in range(1, 5001):
        monkeypatch.setattr(grammar, "_digit_limit", lambda: limit)
        assert 2 ** grammar._print_bits() >= 10 ** limit


def test_powers_within_the_print_limit_are_computed():
    assert parse_polynomial("(2*x)^100") == 2 ** 100 * X ** 100
    assert parse_polynomial(f"x^{MAX_EXPONENT}") == X ** MAX_EXPONENT
    assert parse_polynomial("(2/2)^1000000000 * (1/2*x - 1/2*x)^1000000000") == 0
    assert parse_polynomial("(12345678901*x + y)^50") == (12345678901 * X + Y) ** 50


# -- budgets on nesting and products -------------------------------------------


def test_nesting_past_the_budget_raises_domain_error():
    assert MAX_NESTING < sys.getrecursionlimit() // 8
    for text in ("(" * 400 + "x" + ")" * 400, "-" * 1000 + "x", "(-" * 60 + "x" + ")" * 60):
        with pytest.raises(DomainError, match=f"nested deeper than {MAX_NESTING}"):
            parse_polynomial(text)
    with pytest.raises(DomainError, match="nested deeper"):
        parse_map("(x, " + "(" * 400 + "y" + ")" * 400 + ", z)")
    # Closing a nest gives back exactly one level: 100 sibling nests leave no credit.
    for opener, closer in (("(", ")"), ("-", "")):
        siblings = " + ".join([opener + "x" + closer] * 100) + " + "
        with pytest.raises(DomainError, match=f"nested deeper than {MAX_NESTING} "):
            parse_polynomial(siblings + opener * (MAX_NESTING + 1) + "y" + closer * (MAX_NESTING + 1))


def test_nesting_at_the_budget_parses():
    assert parse_polynomial("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == X
    assert parse_polynomial("-" * MAX_NESTING + "x") == X
    assert parse_polynomial("-" * (MAX_NESTING - 1) + "x") == -X
    half = MAX_NESTING // 2
    assert parse_polynomial("(-" * half + "y" + ")" * half) == Y
    # Depth is nesting, not a count: siblings do not add up.
    assert parse_polynomial(" + ".join(["(" * MAX_NESTING + "z" + ")" * MAX_NESTING] * 3)) == 3 * Z
    for opener, closer, sign in (("(", ")", 1), ("-", "", -1)):
        siblings = " + ".join([opener + "x" + closer] * 100) + " + "
        deep = siblings + opener * MAX_NESTING + "y" + closer * MAX_NESTING
        assert parse_polynomial(deep) == sign * 100 * X + sign ** MAX_NESTING * Y


def test_parser_budgets_admit_exactly_the_budget(monkeypatch):
    # Each budget lowered to the size of one product or one power: equal parses, one less raises.
    monkeypatch.setattr(grammar, "MAX_PRODUCT_PAIRS", 6)
    assert parse_polynomial("(x + y)*(x + y + z)") == (X + Y) * (X + Y + Z)
    monkeypatch.setattr(grammar, "MAX_PRODUCT_PAIRS", 5)
    with pytest.raises(DomainError, match="a product of 2 and 3 terms exceeds the pair budget 5$"):
        parse_polynomial("(x + y)*(x + y + z)")
    monkeypatch.setattr(grammar, "MAX_POWER_TERMS", 6)  # C(4, 2) = 6 terms
    assert parse_polynomial("(x + y + z)^2") == (X + Y + Z) ** 2
    monkeypatch.setattr(grammar, "MAX_POWER_TERMS", 5)
    with pytest.raises(DomainError, match="3-term base to the power 2 exceeds the term budget 5$"):
        parse_polynomial("(x + y + z)^2")


def test_product_past_the_pair_budget_raises_before_multiplying(monkeypatch):
    def refuse(a, b):
        raise AssertionError("a product past the budget was multiplied")

    # The powers are computed by pow_terms; only the product is refused.
    monkeypatch.setattr(grammar, "mul_terms", refuse)
    assert 990 * 990 > MAX_PRODUCT_PAIRS
    with pytest.raises(DomainError, match=f"990 and 990 terms exceeds the pair budget {MAX_PRODUCT_PAIRS}"):
        parse_polynomial("(x+y+z)^43*(x+y+z)^43")


def test_product_past_the_print_limit_raises_before_multiplying(monkeypatch):
    # The coefficients of a product's smallest and largest monomials are
    # products of the factors' coefficients there; when one cannot be
    # printed the product is refused, so mul_terms never sees an operand
    # past the limit, even if a later factor or term would cancel it.
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no limit on integer string conversion")
    bits = []  # the longest operand coefficient of each mul_terms call
    original = grammar.mul_terms

    def recorded(a, b):
        bits.append(max(abs(c).bit_length() for c in (*a.values(), *b.values())))
        return original(a, b)

    monkeypatch.setattr(grammar, "mul_terms", recorded)
    k = limit // 2 + 1  # 10^k is printable, 10^(2k) is not
    m = limit // 10 + 1  # nor is 99999^(2m)
    for text in (
        "*".join(["(9999999999*x)^400"] * 1000),
        f"(x + 99999*y)^{m}*(99999*y)^{m}",  # refused at the largest monomial
        f"(99999*x + y)^{m}*(99999*x)^{m}",  # refused at the smallest monomial
        f"(1/10*x)^{k}*(1/10*y)^{k}",
        f"(10*x)^{k}*(10*x)^{k} - (10*x)^{k}*(10*x)^{k}",
    ):
        with pytest.raises(DomainError, match=f"exceeds the limit of {limit} digits for printing"):
            parse_polynomial(text)
    assert bits and max(bits) * 3010299 // 10**7 < limit
    if limit == 4300:
        # 99999^200 has 1000 digits: four factors multiply, the fifth is refused.
        bits.clear()
        with pytest.raises(DomainError, match="for printing"):
            parse_polynomial("*".join(["(99999*x)^200"] * 10))
        assert [b // 3322 for b in bits if b > 17] == [1, 2, 3]


def test_products_by_a_bare_monomial_are_not_judged(monkeypatch):
    # x, -y^2 or z on the right changes no coefficient; any other factor is judged.
    calls = []
    original = grammar._check_printable_product

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(grammar, "_check_printable_product", counted)
    for text in ("3/5*x^2*y*z", "(x + 1/3*y)*-y^2", "-7*z^3*x*1", "(1/2*x)^3*y^2"):
        assert parse_polynomial(text) == parse_polynomial(text.replace("*", "*(1)*"))
    calls.clear()
    parse_polynomial("3/5*x^2*y*z + (x + 1/3*y)*-y^2 - 7*z^3*x*1")
    assert calls == []
    for text in ("x*2", "x*(1/2)", "x*(y + z)", "2*(x*y + 1)", "x*-3*y"):
        calls.clear()
        parse_polynomial(text)
        assert len(calls) == 1, text


def test_a_bare_monomial_times_an_unprintable_sum_raises_when_printed():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no limit on integer string conversion")
    a = 10 ** (limit // 2 + 100) + 1
    b = a + 2  # coprime odd neighbours: 1/a + 1/b has a denominator of about limit + 200 digits
    p = parse_polynomial(f"(1/{a} + 1/{b})*x")
    assert p == (Fraction(1, a) + Fraction(1, b)) * X
    with pytest.raises(DomainError, match=f"exceeds the limit of {limit} digits for printing"):
        format_polynomial(p)
    with pytest.raises(DomainError, match=f"exceeds the limit of {limit} digits for printing"):
        parse_polynomial(f"(1/{a} + 1/{b})*2*x")


def test_products_within_the_print_limit_are_computed():
    assert parse_polynomial("(9999999999*x)^400*(1/9999999999*y)^400") == X ** 400 * Y ** 400
    assert parse_polynomial("(9999999999*x)^400*(1/9999999999*x)^400") == X ** 800
    assert parse_polynomial("(9999999999*x)^400*(9999999999*x)^1") == 9999999999 ** 401 * X ** 401
    assert parse_polynomial("(2*x)^1000*(3*y + 1)^100") == (2 * X) ** 1000 * (3 * Y + 1) ** 100
    limit = sys.get_int_max_str_digits()
    if limit:
        # Reduced before it is judged: the denominators cancel across factors.
        k = limit // 2
        text = f"(10*x)^{k}*(1/10*y)^{k}*(10*z)^{k}*(1/10)^{k}"
        assert parse_polynomial(text) == X ** k * Y ** k * Z ** k


def test_products_within_the_pair_budget_are_computed():
    s = X + Y + Z
    assert parse_polynomial("(x+y+z)^10*(x+y+z)^10") == s ** 20
    assert parse_polynomial("2*(x+y+z)^43") == 2 * s ** 43
    m = parse_map(format_map((s ** 10, P * s ** 3, Z)))
    assert m == (s ** 10, P * s ** 3, Z)
