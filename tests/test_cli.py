"""Command-line surface: golden outputs and the exit-code contract."""

import sys
import time

import pytest

import cremona3._termops
import cremona3.cli
import cremona3.exactpoly
from cremona3 import derivation, grammar
from cremona3._termops import MAX_EXPONENT
from cremona3.cli import main

NAGATA_TRIPLE = (
    "(x + x*y*z - 1/2*y^3 + 1/2*x^2*z^3 - 1/2*x*y^2*z^2 + 1/8*y^4*z, "
    "y + x*z^2 - 1/2*y^2*z, z)"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parse ---------------------------------------------------------------


def test_parse_prints_canonical_form(capsys):
    code, out, _ = run(capsys, "parse", "--dim", "3", "x*z - 1/2*y^2")
    assert code == 0
    assert out == "x*z - 1/2*y^2\n"


def test_parse_reorders_terms(capsys):
    code, out, _ = run(capsys, "parse", "-1/2*y^2 + x*z")
    assert code == 0
    assert out == "x*z - 1/2*y^2\n"


def test_parse_exponent_past_the_limit_exits_3(capsys, monkeypatch):
    code, out, err = run(capsys, "parse", f"x^{MAX_EXPONENT + 1}")
    assert code == 3
    assert out == ""
    assert "exponent" in err
    code, out, _ = run(capsys, "parse", f"x^{MAX_EXPONENT}")
    assert (code, out) == (0, f"x^{MAX_EXPONENT}\n")

    # A power past the limit is refused before any product: squaring
    # 9999999999*x up to the overflow would take seconds.
    def refuse(a, b):
        raise AssertionError("a power past the exponent limit was multiplied")

    monkeypatch.setattr(cremona3._termops, "mul_terms", refuse)
    code, out, err = run(capsys, "parse", f"(9999999999*x)^{2 * MAX_EXPONENT}")
    assert (code, out) == (3, "")
    assert err == f"error: a product has an exponent above the limit {MAX_EXPONENT}\n"


@pytest.mark.parametrize("dim, text", [("0", "2/3"), ("-4", "1+1"), ("0", "0")])
def test_parse_constant_in_a_nonpositive_dimension_exits_3(capsys, dim, text):
    code, out, err = run(capsys, "parse", "--dim", dim, text)
    assert (code, out) == (3, "")
    assert err == f"error: dimension must be a positive integer, got {dim}\n"


def test_parse_variable_in_dimension_0_exits_3(capsys):
    code, out, err = run(capsys, "parse", "--dim", "0", "x")
    assert (code, out) == (3, "")
    assert err == "error: dimension must be a positive integer, got 0\n"


@pytest.mark.parametrize("text, column", [("²", 1), ("1²", 2), ("x^²", 3)])
def test_parse_superscript_digit_exits_2(capsys, text, column):
    code, out, err = run(capsys, "parse", text)
    assert (code, out) == (2, "")
    assert err == f"parse error: unexpected character '²' (line 1, column {column})\n"


def test_parse_decimal_digit_of_another_script(capsys):
    assert run(capsys, "parse", "٣*x") == (0, "3*x\n", "")


def test_parse_power_past_the_term_budget_exits_3(capsys, monkeypatch):
    def refuse(terms, exponent):
        raise AssertionError("a power past the budget was computed")

    monkeypatch.setattr(grammar, "pow_terms", refuse)
    code, out, err = run(capsys, "parse", "(x+y+z)^100000")
    assert (code, out) == (3, "")
    assert err == "error: 3-term base to the power 100000 exceeds the term budget 1000\n"


@pytest.mark.parametrize("text", ["(" * 400 + "x" + ")" * 400, "-" * 1000 + "x"])
def test_parse_nesting_past_the_budget_exits_3(capsys, text):
    code, out, err = run(capsys, "parse", "--", text)
    assert (code, out) == (3, "")
    assert err.startswith("error: parentheses and unary minus nested deeper than 100 (line 1, column ")


def test_parse_product_past_the_pair_budget_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "parse", "(x+y+z)^43*(x+y+z)^43")
    assert (code, out) == (3, "")
    assert err == "error: a product of 990 and 990 terms exceeds the pair budget 100000\n"
    assert time.perf_counter() - start < 0.5


def test_parse_power_past_the_print_limit_exits_3_at_once(capsys):
    # The power would take a minute to compute before the formatter refused it.
    if sys.get_int_max_str_digits() != 4300:
        pytest.skip("pins the default limit of 4300 digits")
    start = time.perf_counter()
    code, out, err = run(capsys, "parse", "(12345678901*x+98765432101/7*y)^999")
    assert (code, out) == (3, "")
    assert err == "error: a coefficient exceeds the limit of 4300 digits for printing\n"
    assert time.perf_counter() - start < 0.5
    assert run(capsys, "parse", "(2*x)^100") == (0, f"{2 ** 100}*x^100\n", "")


def test_parse_product_past_the_print_limit_exits_3_at_once(capsys):
    # Each factor is printable; multiplying the chain out took about a minute
    # before the formatter refused the result.
    if sys.get_int_max_str_digits() != 4300:
        pytest.skip("pins the default limit of 4300 digits")
    start = time.perf_counter()
    code, out, err = run(capsys, "parse", "*".join(["(9999999999*x)^400"] * 1000))
    assert (code, out) == (3, "")
    assert err == "error: a coefficient exceeds the limit of 4300 digits for printing\n"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", ["{n}*x", "x^{n}", "1/{n}", "(9999999999*x)^500"])
def test_parse_integers_past_the_digit_limit_exit_3(capsys, text):
    # A literal of 5000 digits on input; a coefficient of 5000 digits on output.
    if not 0 < sys.get_int_max_str_digits() < 5000:
        pytest.skip("needs a limit on integer string conversion below 5000 digits")
    code, out, err = run(capsys, "parse", text.format(n="9" * 5000))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "digits" in err and "Traceback" not in err


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "parse", "2x")
    assert code == 2
    assert out == ""
    assert "parse error" in err


def test_unknown_variable_exits_2(capsys):
    code, _, err = run(capsys, "parse", "x + w")
    assert code == 2
    assert "unknown variable" in err


# -- compose / commutes -----------------------------------------------------


def test_compose_translations(capsys):
    code, out, _ = run(capsys, "compose", "(x+1, y, z)", "(x-1, y, z)")
    assert code == 0
    assert out == "(x, y, z)\n"


def test_compose_dimension_mismatch_exits_3(capsys):
    code, _, err = run(capsys, "compose", "(x1, x2)", "(x, y, z)")
    assert code == 3
    assert "error" in err


def test_commutes_false(capsys):
    code, out, _ = run(capsys, "commutes", "(x+y,y,z)", "(x+y+1/2*z, y+z, z)")
    assert code == 0
    assert out == "false\n"


def test_commutes_true(capsys):
    code, out, _ = run(capsys, "commutes", "(2*x, 2*y, 2*z)", "(x+y+1/2*z, y+z, z)")
    assert code == 0
    assert out == "true\n"


# -- exp ---------------------------------------------------------------------


def test_exp_prints_the_nagata_triple(capsys):
    code, out, _ = run(capsys, "exp", "--q", "x*z - 1/2*y^2")
    assert code == 0
    assert out == NAGATA_TRIPLE + "\n"


def test_exp_with_derivation_override(capsys):
    code, out, _ = run(capsys, "exp", "--q", "y", "--derivation", "(1, 0, 0)")
    assert code == 0
    assert out == "(x + y, y, z)\n"
    # q = 0 is the identity, though the series of x d/dx never ends.
    assert run(capsys, "exp", "--q", "0", "--derivation", "(x, 0, 0)") == (0, "(x, y, z)\n", "")


def test_exp_divergent_series_exits_3(capsys):
    # x is not in the kernel of x d/dx, so x * x d/dx is not locally nilpotent.
    code, out, err = run(capsys, "exp", "--q", "x", "--derivation", "(x, 0, 0)")
    assert (code, out) == (3, "")
    assert err == "error: exponent must lie in the kernel of the derivation\n"


def test_exp_series_past_the_pair_budget_exits_3(capsys):
    # D^k(x) = c * (x+y+z)^(7k-6): the iterate outgrows the pair budget at step 11,
    # long before the 64-step bound.
    code, out, err = run(capsys, "exp", "--q", "1", "--derivation", "((x+y+z)^8, 0, 0)")
    assert (code, out) == (3, "")
    assert err == (
        f"error: exponential series for variable 0 exceeds the pair budget "
        f"{derivation.MAX_SERIES_PAIRS} at step 11\n"
    )


# -- kernel-coords -------------------------------------------------------------


def test_kernel_coords_golden(capsys):
    code, out, _ = run(capsys, "kernel-coords", "x*z^3 - 1/2*y^2*z^2 + 3*z")
    assert code == 0
    assert out == "3*Z + Z^2*P\n"


def test_kernel_coords_rejects_non_kernel_input(capsys):
    for expression, message in [
        ("y", "the x^0 coefficient involves y, so the input is not in the kernel ring"),
        ("x", "the x^1 coefficient is not divisible by z^1"),
        ("x^2*z + z", "the x^2 coefficient is not divisible by z^2"),
    ]:
        assert run(capsys, "kernel-coords", expression) == (3, "", f"error: {message}\n")


# -- decompose -------------------------------------------------------------------


def test_decompose_golden(capsys):
    code, out, _ = run(capsys, "decompose", "(2*x + 2*z^3, 2*y, 2*z)")
    assert code == 0
    assert out == "alpha = 2\nw = z^3\nq = 0\n"


def test_decompose_nagata(capsys):
    code, out, _ = run(capsys, "decompose", NAGATA_TRIPLE)
    assert code == 0
    assert out == "alpha = 1\nw = 0\nq = P\n"


def test_decompose_rejects_noncommuting_map(capsys):
    code, _, err = run(capsys, "decompose", "(x+y, y, z)")
    assert code == 3
    assert "error" in err


# -- character ---------------------------------------------------------------------


def test_character_golden(capsys):
    code, out, _ = run(capsys, "character", "--k", "1", "--beta", "2", "--gamma", "3")
    assert code == 0
    assert out == "216\n"


def test_character_fractional_parameters(capsys):
    code, out, _ = run(capsys, "character", "--k", "0", "--beta", "1/2", "--gamma", "3")
    assert code == 0
    assert out == "3/2\n"


def test_character_negative_index_exits_3(capsys):
    code, _, err = run(capsys, "character", "--k", "-1", "--beta", "2", "--gamma", "3")
    assert code == 3
    assert "error" in err


def test_character_past_the_print_limit_exits_3_without_the_power(capsys, monkeypatch):
    # 3^9011 has 4300 digits and 3^9013 has 4301; a huge k is refused from bit lengths.
    if sys.get_int_max_str_digits() != 4300:
        pytest.skip("pins the default limit of 4300 digits")
    code, out, err = run(capsys, "character", "--k", "4505", "--beta", "3", "--gamma", "1")
    assert (code, out, err) == (0, f"{3 ** 9011}\n", "")
    refused = (3, "", "error: a coefficient exceeds the limit of 4300 digits for printing\n")
    assert run(capsys, "character", "--k", "4506", "--beta", "3", "--gamma", "1") == refused

    def refuse(k, t):
        raise AssertionError("a power past the print limit was computed")

    monkeypatch.setattr(cremona3.cli, "character_lambda", refuse)
    for beta, gamma in [("3", "1"), ("1", "1/3"), ("-2/3", "5")]:
        start = time.perf_counter()
        argv = ("character", "--k", "10000000", f"--beta={beta}", f"--gamma={gamma}")
        assert run(capsys, *argv) == refused
        assert time.perf_counter() - start < 1.0


def test_character_without_a_digit_limit_function(capsys, monkeypatch):
    # Python 3.10.0-3.10.6 has no sys.get_int_max_str_digits (and no limit).
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert run(capsys, "character", "--k", "1", "--beta", "2", "--gamma", "3") == (0, "216\n", "")
    assert run(capsys, "character", "--k", "0", "--beta", "1e2", "--gamma", "1") == (0, "100\n", "")


def _long_literals_are_limited():
    if not 0 < sys.get_int_max_str_digits() < 5000:
        pytest.skip("needs a limit on integer string conversion below 5000 digits")


@pytest.mark.parametrize("beta, gamma", [("{n}", "1"), ("2", "1/{n}")])
def test_character_rationals_past_the_digit_limit_exit_3(capsys, beta, gamma):
    _long_literals_are_limited()
    n = "9" * 5000
    code, out, err = run(
        capsys, "character", "--k", "1", "--beta", beta.format(n=n), "--gamma", gamma.format(n=n)
    )
    assert (code, out) == (3, "")
    assert err == "error: integer literal of 5000 digits exceeds the limit of " \
        f"{sys.get_int_max_str_digits()} digits in a rational argument\n"


def test_character_malformed_rationals_still_exit_2(capsys):
    for beta in ("1/0", "abc", "1/2/3", "9" * 4300 + "x"):
        code, out, err = run(capsys, "character", "--k", "1", "--beta", beta, "--gamma", "1")
        assert (code, out) == (2, "")
        assert err.startswith("parse error: not a rational number")



def test_character_just_inside_the_print_bound_is_computed(capsys):
    # A power of a b-bit base is refused from bit lengths when (b - 1)(2k + 1)
    # reaches the bound; at k = 1 a base with 3(b - 1) inside it is computed.
    _long_literals_are_limited()
    e = -(-grammar._print_bits() // 4)  # 3e is inside the bound, 4e is not
    code, out, err = run(capsys, "character", "--k", "1", "--beta", str(2 ** e), "--gamma", "1")
    assert (code, out, err) == (0, f"{2 ** (3 * e)}\n", "")


def test_character_decimal_exponent_at_the_digit_limit(capsys):
    # An exponent of exactly the limit is read (the product here is 1); one more is refused.
    _long_literals_are_limited()
    limit = sys.get_int_max_str_digits()
    argv = ("character", "--k", "1", f"--beta=1e{limit}", f"--gamma=1e-{limit}")
    assert run(capsys, *argv) == (0, "1\n", "")
    _exits_3_quickly(capsys, "character", "--k", "1", f"--beta=1e{limit + 1}", "--gamma", "1")


def test_character_exponent_notation_matches_plain_digits(capsys):
    plain = run(capsys, "character", "--k", "1", "--beta", "100", "--gamma", "1")
    assert plain == (0, "1000000\n", "")
    for beta in ("1e2", "1E2", "1.0e+2", "10e1", "1_0e1", "1000e-1"):
        assert run(capsys, "character", "--k", "1", "--beta", beta, "--gamma", "1") == plain


def _exits_3_quickly(capsys, *argv, place=""):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "error: decimal exponent exceeds the limit of " \
        f"{sys.get_int_max_str_digits()} digits in a rational argument{place}\n"


@pytest.mark.parametrize("beta", ["1e4000000", "1.5E-4_000_000", " 2e99999999 ", "1e" + "9" * 5000])
def test_character_huge_decimal_exponent_exits_3_at_once(capsys, beta):
    _long_literals_are_limited()
    _exits_3_quickly(capsys, "character", "--k", "1", "--beta=" + beta, "--gamma", "1")


def test_character_malformed_exponent_tokens_still_exit_2(capsys):
    for beta in ("3/4e99999", "e99999", "1e", "1e4000000x"):
        code, out, err = run(capsys, "character", "--k", "1", "--beta", beta, "--gamma", "1")
        assert (code, out) == (2, "")
        assert err == f"parse error: not a rational number: {beta!r}\n"


# -- invert -------------------------------------------------------------------------


def test_invert_scalar_word(tmp_path, capsys):
    word = tmp_path / "word.txt"
    word.write_text("scalar 2\n")
    code, out, _ = run(capsys, "invert", "--word", str(word))
    assert code == 0
    assert out == "(1/2*x, 1/2*y, 1/2*z)\n"


def test_invert_mixed_word_gives_a_true_inverse(tmp_path, capsys):
    from cremona3 import compose, parse_poly_map

    word = tmp_path / "word.txt"
    word.write_text(
        "# a three-factor word\n"
        "affine 1 0 0 0 1 0 0 0 1 -1 0 0\n"
        "exp 1 x*z - 1/2*y^2\n"
        "triangular (x + y^2, y + 1, z)\n"
    )
    code, out, _ = run(capsys, "invert", "--word", str(word))
    assert code == 0
    inverse = parse_poly_map(out.strip())

    code, out_again, _ = run(capsys, "invert", "--word", str(word))
    assert (code, out_again) == (0, out)

    # Recompute the forward map in-process and check both compositions.
    from cremona3 import AffineGenerator, AutWord, ExponentialGenerator, TriangularGenerator
    from cremona3 import nagata_derivation, nagata_invariant, variables

    x, y, z = variables(3)
    forward = AutWord(
        3,
        [
            AffineGenerator(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (-1, 0, 0)),
            ExponentialGenerator(nagata_invariant(), nagata_derivation(), 1),
            TriangularGenerator((x + y ** 2, y + 1, z)),
        ],
    ).evaluate()
    assert compose(forward, inverse).is_identity()
    assert compose(inverse, forward).is_identity()


def test_invert_triangular_word_golden(tmp_path, capsys):
    word = tmp_path / "word.txt"
    word.write_text("triangular (x + y^2, y + 1, z)\n")
    code, out, _ = run(capsys, "invert", "--word", str(word))
    assert code == 0
    assert out == "(-1 + x + 2*y - y^2, -1 + y, z)\n"


def test_invert_exp_word_with_a_long_kernel_exponent(tmp_path, capsys, monkeypatch):
    # A 231-term kernel exponent whose series ends after two steps: iterating qD met
    # the series pair budget at step 2, the fold of D's own series in q does not,
    # in a word file and in the exp command alike.
    word = tmp_path / "word.txt"
    word.write_text("exp 1 (z + x*z - 1/2*y^2)^20\n")
    code, out, err = run(capsys, "invert", "--word", str(word))
    assert (code, err) == (0, "")
    code, out_exp, err = run(capsys, "exp", "--q", "(z + x*z - 1/2*y^2)^20")
    assert (code, err) == (0, "")
    q = grammar.parse_polynomial("(z + x*z - 1/2*y^2)^20")
    monkeypatch.setattr(derivation, "MAX_SERIES_PAIRS", 10 ** 9)
    assert out == grammar.format_map(derivation.nagata_derivation().scaled_by(-q).exp_map()) + "\n"
    assert out_exp == grammar.format_map(derivation.nagata_derivation().scaled_by(q).exp_map()) + "\n"


def test_invert_exp_word_past_the_pair_budget_exits_3(tmp_path, capsys):
    # 990 terms: the second product of the fold would take 991 * 990 pairs.
    word = tmp_path / "word.txt"
    word.write_text("exp 1 (z + x*z - 1/2*y^2)^43\n")
    message = (
        f"error: exponential series for variable 0 exceeds the pair budget "
        f"{derivation.MAX_SERIES_PAIRS} at step 2\n"
    )
    assert run(capsys, "invert", "--word", str(word)) == (3, "", message)
    assert run(capsys, "exp", "--q", "(z + x*z - 1/2*y^2)^43") == (3, "", message)


@pytest.mark.parametrize("line", ["triangular (x)", "scalar 2"], ids=["triangular", "scalar"])
def test_invert_triangular_word_in_dimension_0_exits_3(tmp_path, capsys, line):
    word = tmp_path / "word.txt"
    word.write_text(line + "\n")
    code, out, err = run(capsys, "invert", "--word", str(word), "--dim", "0")
    assert (code, out) == (3, "")
    assert err == "error: dimension must be a positive integer, got 0 (line 1, column 1)\n"
    # A dimension below 1 is not checked up front: an empty word keeps its own error.
    word.write_text("")
    for dim in ("0", "-1"):
        expected = (3, "", "error: a map needs at least one component\n")
        assert run(capsys, "invert", "--word", str(word), "--dim", dim) == expected


def test_invert_exp_word_outside_dimension_3_exits_3(tmp_path, capsys):
    word = tmp_path / "word.txt"
    word.write_text("exp 1 x1\n")
    message = "exp generators use the fixed shear derivation in dimension 3 (line 1, column 1)"
    assert run(capsys, "invert", "--word", str(word), "--dim", "2") == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "scalar 2\n\nscalar 3\ntriangular (x + , y, z)\n",
            "expected a rational, a variable or '(', found ',' (line 4, column 17)",
        ),
        ("  triangular  (x, q, z)\n", "unknown variable 'q' (line 1, column 19)"),
        ("triangular\n", "expected '(', found 'end of input' (line 1, column 11)"),
        pytest.param(
            "scalar 2\n\ntriangular (" + "-" * 150 + "x, y, z)\n",
            "parentheses and unary minus nested deeper than 100 (line 3, column 113)",
            id="nesting",
        ),
        # An error with no column of its own, on any kind of line, names column 1.
        pytest.param(
            "scalar 2\ntriangular (x, y + x, z)\n",
            "component 1 must depend on x_2 linearly and otherwise only on later variables "
            "(line 2, column 1)",
            id="shape",
        ),
        pytest.param(
            "triangular (x, y, z)\naffine q 0 0 0 1 0 0 0 1 0 0 0\n",
            "not a rational number: 'q' (line 2, column 1)",
            id="affine-rational",
        ),
        pytest.param(
            "triangular (x, y, z)\n\n  affine 1 1 0 1 1 0 0 0 1 0 0 0\n",
            "affine matrix is singular (line 3, column 1)",
            id="affine-singular",
        ),
        pytest.param(
            "triangular (x, y, z)\nscalar 0\n",
            "scalar generator needs a nonzero ratio (line 2, column 1)",
            id="scalar-zero",
        ),
    ],
)
def test_invert_triangular_parse_error_names_its_place_in_the_file(tmp_path, capsys, text, message):
    _assert_word_file_error(tmp_path, capsys, text, message)


#: main prints a ParseError (exit 2) and a DomainError (exit 3) with these prefixes.
ERROR_PREFIX = {2: "parse error: ", 3: "error: "}


def _assert_word_file_error(tmp_path, capsys, text, message):
    if "{limit}" in message:
        _long_literals_are_limited()
        message = message.format(limit=sys.get_int_max_str_digits())
    word = tmp_path / "word.txt"
    word.write_text(text)
    code, out, err = run(capsys, "invert", "--word", str(word))
    assert (out, err) == ("", f"{ERROR_PREFIX[code]}{message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "scalar 2\nexp 1 x*z - \n",
            "expected a rational, a variable or '(', found 'end of input' (line 2, column 12)",
        ),
        ("\n\texp 1  x*z $\n", "unexpected character '$' (line 2, column 13)"),
        pytest.param("exp\t1\tx*z $\n", "unexpected character '$' (line 1, column 11)", id="tabs"),
        pytest.param(
            "scalar 2\nexp 1 " + "9" * 5000 + "*z\n",
            "integer literal of 5000 digits exceeds the limit of {limit} digits (line 2, column 7)",
            id="digit-limit",
        ),
        pytest.param("exp 1/0 x*z\n", "not a rational number: '1/0' (line 1, column 1)", id="scale"),
        pytest.param(
            "scalar 2\n  exp 1 y\n",
            "exponent must lie in the kernel of the derivation (line 2, column 1)",
            id="not-kernel",
        ),
    ],
)
def test_invert_exp_parse_error_names_its_place_in_the_file(tmp_path, capsys, text, message):
    _assert_word_file_error(tmp_path, capsys, text, message)


@pytest.mark.parametrize(
    "line",
    ["exp\t1 x*z - 1/2*y^2", "scalar\t2", "exp 1\tx*z - 1/2*y^2", "triangular\t(x + y^2, y + 1, z)"],
    ids=["exp-kind", "scalar-kind", "exp-scale", "triangular-kind"],
)
def test_invert_word_fields_are_separated_by_any_whitespace(tmp_path, capsys, line):
    word = tmp_path / "word.txt"
    word.write_text(line + "\n")
    with_tab = run(capsys, "invert", "--word", str(word))
    word.write_text(line.replace("\t", " ") + "\n")
    assert with_tab == run(capsys, "invert", "--word", str(word))
    assert with_tab[0] == 0


def test_invert_unknown_generator_kind_exits_2(tmp_path, capsys):
    word = tmp_path / "word.txt"
    word.write_text("rotation 1 2 3\n")
    code, _, err = run(capsys, "invert", "--word", str(word))
    assert code == 2
    assert err == "parse error: unknown generator kind 'rotation' (line 1, column 1)\n"


def test_invert_affine_wrong_count_exits_2(tmp_path, capsys):
    word = tmp_path / "word.txt"
    word.write_text("affine 1 0 0 1\n")
    code, _, err = run(capsys, "invert", "--word", str(word))
    assert code == 2
    assert err == "parse error: affine generator needs 12 rationals, got 4 (line 1, column 1)\n"


@pytest.mark.parametrize(
    "line",
    ["scalar {n}", "scalar 1/{n}", "affine 1 0 0 0 1 0 0 0 {n} 0 0 0", "exp -{n} x*z - 1/2*y^2"],
)
def test_invert_rationals_past_the_digit_limit_exit_3(tmp_path, capsys, line):
    # The error names the digit count and never echoes the 5000-digit token.
    _long_literals_are_limited()
    word = tmp_path / "word.txt"
    word.write_text(line.format(n="9" * 5000) + "\n")
    code, out, err = run(capsys, "invert", "--word", str(word))
    assert (code, out) == (3, "")
    assert err.startswith("error: integer literal of 5000 digits exceeds the limit")
    assert err.count("\n") == 1 and len(err) < 200



@pytest.mark.parametrize("line", ["scalar 1e4000000", "affine 1 0 0 0 1 0 0 0 1e-4000000 0 0 0"])
def test_invert_huge_decimal_exponent_exits_3_at_once(tmp_path, capsys, line):
    _long_literals_are_limited()
    word = tmp_path / "word.txt"
    word.write_text(line + "\n")
    _exits_3_quickly(capsys, "invert", "--word", str(word), place=" (line 1, column 1)")


@pytest.mark.parametrize(
    "data, line, column",
    [(b"scalar 2\n\xff\n", 2, 1), (b"# caf\xc3\xa9\r\nscalar 2\r\nscalar \xc3(\r\n", 3, 8)],
)
def test_invert_word_file_not_utf8_exits_2(tmp_path, capsys, data, line, column):
    word = tmp_path / "word.txt"
    word.write_bytes(data)
    code, out, err = run(capsys, "invert", "--word", str(word))
    assert (code, out) == (2, "")
    assert err == f"parse error: word file is not valid UTF-8 (line {line}, column {column})\n"


def test_dimension_past_the_budget_exits_3_at_once(tmp_path, capsys):
    # Both commands cost about n^3 in the dimension alone; 10^9 would exhaust memory.
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    limit = cremona3.exactpoly.MAX_DIMENSION
    for dim in (str(limit + 1), "1000000000"):
        for argv in (
            ("parse", "--dim", dim, "x1"),
            ("invert", "--word", str(empty), "--dim", dim),
            ("invert", "--word", str(tmp_path / "missing.txt"), "--dim", dim),  # before the file is read
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0
            assert (code, out, err) == (3, "", f"error: dimension {dim} exceeds the limit {limit}\n")
    assert run(capsys, "parse", "--dim", str(limit), f"x{limit}") == (0, f"x{limit}\n", "")


def test_invert_missing_file_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "invert", "--word", str(tmp_path / "nope.txt"))
    assert code == 3
    assert "error" in err


def test_invert_singular_affine_exits_3(tmp_path, capsys):
    word = tmp_path / "word.txt"
    word.write_text("affine 1 1 0 1 1 0 0 0 1 0 0 0\n")
    code, _, err = run(capsys, "invert", "--word", str(word))
    assert code == 3
    assert "singular" in err


# -- verify-paper ----------------------------------------------------------------------


def test_verify_paper_output_is_deterministic_per_seed(capsys):
    assert cremona3.cli.build_parser().parse_args(["verify-paper"]).seed == 0
    code_a, out_a, _ = run(capsys, "verify-paper", "--seed", "7")
    code_b, out_b, _ = run(capsys, "verify-paper", "--seed", "7")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert [line.split()[1] for line in out_a.strip().splitlines()] == [
        "nagata-formula",
        "kernel-ring",
        "centralizer-decomposition",
        "semidirect-normality",
        "torus-characters",
        "conjugation-chain",
        "flow-commutation",
        "group-laws",
        "parser-roundtrip",
        "negative-controls",
    ]


# -- verify-paper exit codes ----------------------------------------------------------


def test_verify_paper_failure_exits_1(capsys, monkeypatch):
    from cremona3 import verify
    from cremona3.verify import CheckResult

    # The command imports the suite when it runs, so the stub goes on its module.
    monkeypatch.setattr(
        verify,
        "run_suite",
        lambda seed, profile: [CheckResult("broken-identity", False, "component 1 differs")],
    )
    code, out, _ = run(capsys, "verify-paper")
    assert code == 1
    assert out == "FAIL broken-identity: component 1 differs\n"


@pytest.mark.parametrize(
    "statement, unloaded",
    [
        pytest.param(
            "import cremona3; cremona3.standard_objects()",
            ("dataclasses", "inspect", "cremona3.verify", "cremona3.cli"),
            id="core",
        ),
        pytest.param("import cremona3.cli", ("dataclasses", "inspect", "cremona3.verify"), id="cli"),
    ],
)
def test_a_cold_import_leaves_the_unused_modules_unimported(statement, unloaded):
    # Each module a cold process loads is paid for by every answer it gives;
    # dataclasses alone pulls in inspect, ast, dis and tokenize.
    import subprocess
    from pathlib import Path

    import cremona3

    probe = f"import sys; {statement}; print(sorted(set({unloaded!r}) & set(sys.modules)))"
    src = str(Path(cremona3.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": src}, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == (0, "[]\n")


# -- argparse usage errors ------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_a_value_that_starts_with_minus_is_a_value(capsys):
    # Each subparser's private _negative_number_matcher takes such tokens as values:
    # if argparse stops reading it, these calls exit 2 again.
    assert run(capsys, "parse", "-x") == (0, "-x\n", "")
    assert run(capsys, "parse", "--dim", "2", "-x1") == (0, "-x1\n", "")
    assert run(capsys, "parse", "--", "-x") == (0, "-x\n", "")
    assert run(capsys, "kernel-coords", "-z") == (0, "-Z\n", "")
    assert run(capsys, "character", "--k", "1", "--beta", "-1/2", "--gamma", "1") == (0, "-1/8\n", "")
    with_equals = run(capsys, "exp", "--q=-z")
    assert with_equals[0] == 0 and run(capsys, "exp", "--q", "-z") == with_equals
    # An unknown option and -h stay options.
    with pytest.raises(SystemExit) as excinfo:
        main(["parse", "--bogus", "x"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["parse", "-h"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cremona3 parse")
