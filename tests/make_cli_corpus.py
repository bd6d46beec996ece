"""Write ``tests/cli_corpus.json``: what ``cremona3`` prints, and the exit code
it returns, on a fixed set of command lines.

Run it from the root of a checkout, only when the command line's bytes change
on purpose::

    PYTHONPATH=src python tests/make_cli_corpus.py

``tests/test_cli_corpus.py`` replays every call in process through
``cremona3.cli.main`` and compares the bytes.  Each call is one argv, with
``{word}`` standing for the path of a word file whose text is stored beside
it.  An output longer than ``LONG_OUTPUT`` bytes is stored as its SHA-256.
The calls are seeded and deterministic, so running this twice writes the
same file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from cremona3 import (
    format_map,
    format_polynomial,
    format_word,
    from_kernel_coordinates,
    reconstruct,
    variables,
)
from cremona3._termops import MAX_EXPONENT
from cremona3.cli import main as cli_main
from cremona3.verify import (
    random_decomposition,
    random_kernel_polynomial,
    random_polynomial,
    random_tame_word,
    random_triangular_generator,
)

CORPUS = Path(__file__).with_name("cli_corpus.json")

#: An output longer than this many UTF-8 bytes is stored as its SHA-256.
LONG_OUTPUT = 1024

#: The environment the corpus is written and replayed in: the help text wraps at
#: the terminal width, and the digit limit decides which literals can be read.
COLUMNS = "80"
DIGIT_LIMIT = 4300


def call(argv, word, directory):
    """Run ``cremona3.cli.main(argv)`` in process; return ``(code, out, err)``.

    ``word`` is the text of the word file that ``{word}`` in argv names; it is
    written, with its undecodable bytes as surrogate escapes, into
    ``directory``, and with ``word=None`` no such file exists.  The file's path
    is written back as ``{word}`` in the output.
    """
    path = os.path.join(directory, "word.txt")
    if word is not None:
        with open(path, "wb") as handle:
            handle.write(word.encode("utf-8", "surrogateescape"))
    elif os.path.exists(path):
        os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main([arg.replace("{word}", path) for arg in argv])
        except SystemExit as exc:  # argparse's usage errors and -h
            code = exc.code
    return code, out.getvalue().replace(path, "{word}"), err.getvalue().replace(path, "{word}")


def stored(text: str):
    """``text`` itself, or its SHA-256 and length when it is long."""
    data = text.encode("utf-8", "surrogateescape")
    if len(data) <= LONG_OUTPUT:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


# -- the call set ------------------------------------------------------------


def _parse_calls(rng):
    long = "9" * (DIGIT_LIMIT + 1)
    texts = [
        "x*z - 1/2*y^2", "-1/2*y^2 + x*z", "0", "  ( x + y ) ^ 2  ", "3/2^2", "-y^2",
        "-y^2 + y^2", "(x + 1)^0", "(x - x)^100000", "(2*x*y)^3", "(x + y + z)^3",
        "٣*x", "x٣", "x²", "²", "1²", "x^²", "½", "½*x", "x + ½", "α", "x_1", "_", "x + y_",
        "x\r\ny", "x\t+\ty", "x\u00a0+\u00a0y", "x\u2028+ y", "x \u2028 + w",
        "x\r\n+ w", "\tw", "\u00a0\u00a0w", "x +\n 2y", "x\n\n  + w", "x +\n\n\n  + y",
        "2x", "x/2", "1/0", "x^-1", "x + w", "x^y", "1/x", "(x", "x)", "x^", "", "   ",
        "x +  ", "x + \n  \n ", "x $", "$", "x, y", "(x + y) (x - y)", "x ^ 2 ^ 3",
        "1/2/3", "--x", "- -x", "((x))", "x*", "*x", "x + + y", "0x1",
        f"x^{MAX_EXPONENT}", f"x^{MAX_EXPONENT + 1}", f"(9999999999*x)^{2 * MAX_EXPONENT}",
        f"x^{MAX_EXPONENT}*x", "(x+y+z)^100000", "(x + y)^1000", "(x + y + z)^44",
        "(1 + x)^" + "9" * 40, "(x+y+z)^43*(x+y+z)^43",
        "(" * 400 + "x" + ")" * 400, "(" * 100 + "x" + ")" * 100, "(" * 101 + "x" + ")" * 101,
        "(-" * 60 + "x" + ")" * 60, "-" * 100 + "x", "-" * 101 + "x", "-" * 1000 + "x",
        "x + (" + "(" * 100 + "y" + ")" * 100 + ")",
        long + "*x", "x^" + long, "1/" + long + "*y", "(x + y)^" + long, "0" * (DIGIT_LIMIT + 1),
        "9" * DIGIT_LIMIT + "*x", "x +\n " + long,
        "(12345678901*x+98765432101/7*y)^999", "(12345678901*x + y)^999", "2^17200",
        "(2*x)^17200 - (2*x)^17200", "x*(3*z)^99999", "(9999999999*x)^500", "(2*x)^100",
        "(99999*x)^200*(99999*x)^200*(99999*x)^200*(99999*x)^200*(99999*x)^200",
        "(1/10*x)^2200*(1/10*y)^2200", "(9999999999*x)^400*(1/9999999999*y)^400",
        "-x", "-1/2", "2/4*x + 2/4*y", "(2/2*x)^5", "6/4 - 1/2", "(4/6)^3*y",
    ]
    calls = [["parse", "--", text] for text in texts]
    calls += [
        ["parse", "--dim", "4", "x1*x4 - x2"], ["parse", "--dim", "2", "-x1"],
        ["parse", "--dim", "1", "x1 + x"], ["parse", "--dim", "3", "x1"],
        ["parse", "--dim", "12", "x12 - x1 + x10*x2"], ["parse", "--dim", "0", "x"],
        ["parse", "--dim", "0", "2/3"], ["parse", "--dim", "-4", "1+1"],
        ["parse", "--dim", "1001", "x1"], ["parse", "--dim", "1000000000", "x1"],
        ["parse", "--dim", "1000", "x1000 - x1"], ["parse", "--dim", "2", "x1\n+ x3"],
        ["parse", "-x"], ["parse", "--", "-x"], ["parse", "-1/2*y^2 + x*z"],
    ]
    # Canonical forms of seeded polynomials, products and powers of them, in dimensions 1-5.
    for dimension in (1, 2, 3, 3, 4, 5):
        for _ in range(8):
            p = random_polynomial(rng, dimension, 4, 5)
            q = random_polynomial(rng, dimension, 2, 3)
            calls.append(["parse", "--dim", str(dimension), f"({format_polynomial(p)})*({format_polynomial(q)})"])
            calls.append(["parse", "--dim", str(dimension), f"({format_polynomial(q)})^3 - {format_polynomial(p)}"])
    return calls


def _map_calls(rng):
    calls = [
        ["compose", "(x+1, y, z)", "(x-1, y, z)"], ["compose", "(x1, x2)", "(x, y, z)"],
        ["compose", "(x1, x2)", "(x1 + x2^2, x2)"], ["compose", "(x, y", "(x, y, z)"],
        ["compose", "(x, y, z) z", "(x, y, z)"], ["compose", "(x + y^2, y, z)", "(x, y + z^3, z)"],
        ["compose", "(x, y, w)", "(x, y, z)"], ["compose", "(x, y, z)", "(x, y, 1/0)"],
        ["compose", "(2*x, y, z)", "-x"], ["compose", "(x)", "(x^2)"],
        ["commutes", "(x+y,y,z)", "(x+y+1/2*z, y+z, z)"],
        ["commutes", "(2*x, 2*y, 2*z)", "(x+y+1/2*z, y+z, z)"],
        ["commutes", "(x, y)", "(x, y, z)"], ["commutes", "(x +, y, z)", "(x, y, z)"],
        ["commutes", "(x1 + x2^2, x2)", "(x1, 2*x2)"],
    ]
    for dimension in (2, 3, 3, 4):
        for _ in range(3):
            f = random_triangular_generator(rng, dimension, 2).components
            g = random_triangular_generator(rng, dimension, 2).components
            calls.append(["compose", format_map(f), format_map(g)])
            calls.append(["commutes", format_map(f), format_map(g)])
    return calls


def _kernel_calls(rng):
    calls = [
        ["exp", "--q", "x*z - 1/2*y^2"], ["exp", "--q", "y", "--derivation", "(1, 0, 0)"],
        ["exp", "--q", "0", "--derivation", "(x, 0, 0)"],
        ["exp", "--q", "x", "--derivation", "(x, 0, 0)"], ["exp", "--q", "y"], ["exp", "--q", "z^3"],
        ["exp", "--q", "(z + x*z - 1/2*y^2)^6"], ["exp", "--q=-z"], ["exp", "--q", "-z"],
        ["exp", "--q", "x +"], ["exp", "--q", "1", "--derivation", "(y, z)"],
        ["exp", "--q", "1", "--derivation", "(x2, 0)"], ["exp", "--q", "1", "--derivation", "(y, 0, 0"],
        ["exp", "--q", "1/2*z^2", "--derivation", "(y, z, 0)"],
        ["exp", "--q", "(z + x*z - 1/2*y^2)^43"],
        ["kernel-coords", "x*z^3 - 1/2*y^2*z^2 + 3*z"], ["kernel-coords", "y"], ["kernel-coords", "x"],
        ["kernel-coords", "x^2*z + z"], ["kernel-coords", "-z"], ["kernel-coords", "0"],
        ["kernel-coords", "w"], ["kernel-coords", "x*z - 1/2*y^2"],
        ["decompose", "(2*x + 2*z^3, 2*y, 2*z)"], ["decompose", "(x+y, y, z)"],
        ["decompose", "(x, y)"], ["decompose", "(x, y, z"], ["decompose", "(x, y, z)"],
        ["decompose", "(-x, -y, -z)"], ["decompose", "(x + 1, y, z)"],
        ["decompose", "(x + x*y*z - 1/2*y^3 + 1/2*x^2*z^3 - 1/2*x*y^2*z^2 + 1/8*y^4*z, "
                      "y + x*z^2 - 1/2*y^2*z, z)"],
    ]
    x, y, z = variables(3)
    for _ in range(12):
        f = from_kernel_coordinates(random_kernel_polynomial(rng))
        calls.append(["kernel-coords", format_polynomial(f)])
        calls.append(["kernel-coords", format_polynomial(f + x * z ** 2)])
        calls.append(["exp", "--q", format_polynomial(f)])
    for _ in range(10):
        member = reconstruct(random_decomposition(rng)).components
        calls.append(["decompose", format_map(member)])
        calls.append(["decompose", format_map((member[0], member[1] + z ** 2, member[2]))])
    return calls


def _character_calls():
    long = "9" * 5000
    calls = [
        ["1", "2", "3"], ["0", "1/2", "3"], ["-1", "2", "3"], ["4505", "3", "1"], ["4506", "3", "1"],
        ["10000000", "3", "1"], ["10000000", "1", "1/3"], ["10000000", "-2/3", "5"],
        ["1", "1e4300", "1e-4300"], ["1", "1e4301", "1"], ["1", "1e4000000", "1"],
        ["1", "1.5E-4_000_000", "1"], ["1", " 2e99999999 ", "1"], ["1", "1e" + long, "1"],
        ["1", "1/0", "1"], ["1", "abc", "1"], ["1", "1/2/3", "1"], ["1", "9" * 4300 + "x", "1"],
        ["1", "3/4e99999", "1"], ["1", "e99999", "1"], ["1", "1e", "1"], ["1", "1e4000000x", "1"],
        ["1", long, "1"], ["1", "2", "1/" + long], ["1", "-1/2", "1"], ["1", "0", "1"],
        ["1", "100", "1"], ["1", "1e2", "1"], ["1", "1E2", "1"], ["1", "1.0e+2", "1"],
        ["1", "10e1", "1"], ["1", "1_0e1", "1"], ["1", "1000e-1", "1"], ["2", "-3/7", "7/5"],
        ["3", "0.5", "-4"], ["1", " 2 ", "3"], ["1", "2", "\u2028"],
    ]
    argvs = [["character", "--k", k, f"--beta={beta}", f"--gamma={gamma}"] for k, beta, gamma in calls]
    argvs += [
        ["character", "--k", "1", "--beta", "-1/2", "--gamma", "1"],
        ["character", "--k", "x", "--beta", "2", "--gamma", "3"],
        ["character", "--beta", "2", "--gamma", "3"],
    ]
    return argvs


#: Word files: the text of each, and the extra options of its ``invert`` call.
WORD_FILES = [
    ("scalar 2\n", []),
    ("# a three-factor word\naffine 1 0 0 0 1 0 0 0 1 -1 0 0\nexp 1 x*z - 1/2*y^2\n"
     "triangular (x + y^2, y + 1, z)\n", []),
    ("triangular (x + y^2, y + 1, z)\n", []),
    ("exp 1 (z + x*z - 1/2*y^2)^6\n", []),
    ("exp 1 (z + x*z - 1/2*y^2)^43\n", []),
    ("triangular (x)\n", ["--dim", "0"]),
    ("scalar 2\n", ["--dim", "0"]),
    ("", ["--dim", "0"]),
    ("", ["--dim", "-1"]),
    ("", ["--dim", "1001"]),
    ("", []),
    ("exp 1 x1\n", ["--dim", "2"]),
    ("scalar 2\n\nscalar 3\ntriangular (x + , y, z)\n", []),
    ("  triangular  (x, q, z)\n", []),
    ("triangular\n", []),
    ("scalar 2\n\ntriangular (" + "-" * 150 + "x, y, z)\n", []),
    ("scalar 2\ntriangular (x, y + x, z)\n", []),
    ("triangular (x, y, z)\naffine q 0 0 0 1 0 0 0 1 0 0 0\n", []),
    ("triangular (x, y, z)\n\n  affine 1 1 0 1 1 0 0 0 1 0 0 0\n", []),
    ("triangular (x, y, z)\nscalar 0\n", []),
    ("scalar 2\nexp 1 x*z - \n", []),
    ("\n\texp 1  x*z $\n", []),
    ("exp\t1\tx*z $\n", []),
    ("exp\t1\tx*z\t+\tw\n", []),
    ("\ttriangular\t(x,\ty,\tw)\n", []),
    ("triangular (x,\u00a0y,\u2028w)\n", []),
    ("triangular (x, y, z) # comment\n", []),
    ("triangular (x, y, z)\r\ntriangular (x, y, w)\r\n", []),
    # Only \n, \r\n and \r end a line; these characters are whitespace inside one.
    ("scalar 2\rscalar 0\n", []),
    ("triangular (x,\x0by, w)\n", []),
    ("triangular (x,\x0cy, w)\n", []),
    ("triangular (x,\x1cy, w)\n", []),
    ("triangular (x,\x85y, w)\n", []),
    ("triangular (x,\u2029y, w)\n", []),
    ("triangular (x,\ty, z\n", []),
    ("triangular (x, y, z), (x, y, z)\n", []),
    ("triangular (x1 + x2^2, x2)\n", ["--dim", "2"]),
    ("triangular (x1 + x2^2, x3)\n", ["--dim", "2"]),
    ("scalar 2\nexp 1 " + "9" * 5000 + "*z\n", []),
    ("exp 1/0 x*z\n", []),
    ("scalar 2\n  exp 1 y\n", []),
    ("exp\t1 x*z - 1/2*y^2\n", []),
    ("scalar\t2\n", []),
    ("exp 1\tx*z - 1/2*y^2\n", []),
    ("triangular\t(x + y^2, y + 1, z)\n", []),
    ("rotation 1 2 3\n", []),
    ("affine 1 0 0 1\n", []),
    ("scalar " + "9" * 5000 + "\n", []),
    ("scalar 1/" + "9" * 5000 + "\n", []),
    ("affine 1 0 0 0 1 0 0 0 " + "9" * 5000 + " 0 0 0\n", []),
    ("exp -" + "9" * 5000 + " x*z - 1/2*y^2\n", []),
    ("scalar 1e4000000\n", []),
    ("affine 1 0 0 0 1 0 0 0 1e-4000000 0 0 0\n", []),
    ("scalar 2\n\udcff\n", []),
    ("# caf\u00e9\r\nscalar 2\r\nscalar \udcc3(\r\n", []),
    ("affine 1 1 0 1 1 0 0 0 1 0 0 0\n", []),
    ("affine 2 0 1 0\nscalar -1/3\ntriangular (x1 + x2^3, -x2 + 1)\n", ["--dim", "2"]),
    ("scalar 1/2\nexp -1/3 z^2 + x*z^3 - 1/2*y^2*z^2\nscalar -1\n", []),
    ("exp 2 x*z - 1/2*y^2\nexp -2 x*z - 1/2*y^2\n", []),
]


def _invert_calls(rng):
    calls = [(["invert", "--word", "{word}", *options], text) for text, options in WORD_FILES]
    calls.append((["invert", "--word", "{word}"], None))  # no such file
    calls.append((["invert", "--word", "{word}", "--dim", "1001"], None))
    calls.append((["invert"], None))
    for dimension in (2, 3, 3):
        for _ in range(6):
            word = random_tame_word(rng, dimension, max_length=4, cost_budget=40)
            calls.append((["invert", "--word", "{word}", "--dim", str(dimension)], format_word(word)))
    return calls


def _other_calls():
    return [
        [], ["frobnicate"], ["parse"], ["parse", "--bogus", "x"], ["parse", "-h"], ["-h"],
        ["compose", "(x, y, z)"], ["parse", "--dim", "two", "x"], ["exp"], ["decompose", "-h"],
        ["verify-paper", "--seed", "0"], ["verify-paper", "--seed", "1"], ["verify-paper", "--seed", "2"],
        ["verify-paper", "--seed", "x"],
    ]


def calls():
    """Every call of the corpus as ``(argv, word text or None)``, in order."""
    rng = random.Random(35)
    plain = _parse_calls(rng) + _map_calls(rng) + _kernel_calls(rng) + _character_calls()
    return [(argv, None) for argv in plain] + _invert_calls(rng) + [(argv, None) for argv in _other_calls()]


@contextlib.contextmanager
def pinned_environment():
    """The terminal width and digit limit the corpus is written and replayed with."""
    columns, limit = os.environ.get("COLUMNS"), sys.get_int_max_str_digits()
    os.environ["COLUMNS"] = COLUMNS
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def main() -> None:
    entries = []
    with pinned_environment(), tempfile.TemporaryDirectory() as directory:
        for argv, word in calls():
            code, out, err = call(argv, word, directory)
            entries.append(
                {"argv": argv, "word": word, "code": code, "stdout": stored(out), "stderr": stored(err)}
            )
    # One call a line, so that a diff of the corpus names the calls that changed.
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(entry, ensure_ascii=True) for entry in entries) + "\n]\n")
    print(f"wrote {len(entries)} calls to {CORPUS}")


if __name__ == "__main__":
    main()
