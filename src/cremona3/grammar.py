"""Text grammar for polynomials and maps, plus the deterministic formatter.

Grammar (whitespace insignificant, explicit ``*`` required between
factors, ``^`` binds tighter than unary minus)::

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := "-" factor | base ("^" uint)?
    base     := rational | variable | "(" expr ")"
    rational := int ("/" uint)?

``parse_polynomial(format_polynomial(p)) == p`` for every polynomial, and
formatting the same value twice is byte-identical.  Terms print in
ascending total degree; within one degree the lexicographically larger
exponent vector (first variable weighs most) prints first, which matches
how the exponential maps are usually written: linear part first, higher
corrections after.  The formatter reads each packed monomial's fields
once, for its sort key and its factors.

The scanner is one pattern, ``_TOKEN``.  It yields three flat lists,
kinds, texts and start offsets, and the parser walks them by index.  A
``(line, column)`` is computed from an offset only where an error is
raised: only ``"\\n"`` starts a line, and every other character is one
column.

The parser computes on integer pairs ``(den, term map)`` with the
``_termops`` kernels: products and powers are ``mul_terms`` and
``pow_terms``, a ``+``/``-`` chain is one ``exactpoly._sum``, and each
parsed polynomial (or map component) becomes one ``Polynomial``.  Four
budgets, checked before the work they bound, raise ``DomainError``:
``MAX_POWER_TERMS`` on powers, ``MAX_PRODUCT_PAIRS`` on products,
``MAX_NESTING`` on parentheses and unary minus, and the printable digits
of the coefficients of a power's or a product's smallest and largest
monomials (so ``(2*x)^20000 - (2*x)^20000`` is refused though it cancels).
A product by a bare monomial on the right (``x``, ``-y^2``, coefficient
+-1 over 1) is not judged, since it changes no coefficient: such a
product of a sum that cannot be printed, as ``(1/a + 1/b)*x`` for
coprime a and b of 2,200 digits, parses as the sum does, and formatting
it raises the ``DomainError``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence

from ._termops import EXPONENT_BITS, FIELD_MASK, _check_power, mul_terms, normalize, pow_terms, scale_terms
from .errors import ArityMismatch, DomainError, ParseError, UnknownVariable
from .exactpoly import Polynomial, _check_dimension, _sum, default_variable_names

_OPERATORS = set("+-*^/(),")

#: One token after optional whitespace: a decimal integer, a word, or one other character.
#: ``\d``, ``\w`` and ``\s`` are ``str.isdecimal``, ``isalnum`` (or "_") and ``isspace``.
_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|(\S))")

#: Term budget of a parsed power: ``base^k`` of a ``t``-term base has at most
#: C(t + k - 1, k) terms, and a power whose bound exceeds it raises DomainError.
MAX_POWER_TERMS = 1000

#: Pair budget of a parsed product: ``a*b`` of a ``s``-term and a ``t``-term
#: factor costs ``s * t`` term pairs, and a product past it raises DomainError.
MAX_PRODUCT_PAIRS = 100_000

#: Nesting budget: parentheses and unary minus nested deeper raise
#: DomainError.  Each level costs the parser at most three stack frames, so
#: the budget stays far below the interpreter's default recursion limit.
MAX_NESTING = 100


def _tokenize(text: str) -> tuple[list, list, list]:
    """The tokens of ``text`` as three lists: kinds (``"int"``, ``"name"``, an
    operator, and a last ``"end"``), texts, and start offsets."""
    kinds, texts, offsets = [], [], []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        token = match[group]
        if group == 1:
            kinds.append("int")
        elif group == 2 and (token[0].isalpha() or token[0] == "_"):
            kinds.append("name")
        elif token in _OPERATORS:
            kinds.append(token)
        else:  # a word that starts with a digit such as "²", or a stray character
            raise ParseError(f"unexpected character {token[0]!r}", *_position(text, match.start(group)))
        texts.append(token)
        offsets.append(match.start(group))
    return kinds + ["end"], texts + [""], offsets + [len(text)]


def _position(text: str, offset: int) -> tuple[int, int]:
    """The (line, column) of ``offset``: only "\\n" starts a line, and every
    other character, "\\r" and tabs too, is one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _digit_limit() -> int:
    """The interpreter's limit on integer string conversion; 0 (no limit)
    where ``sys.get_int_max_str_digits`` is missing, as before Python 3.10.7."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else 0


def _int_literal(digits: str, where: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on integer string conversion
        raise DomainError(
            f"integer literal of {len(digits)} digits exceeds the limit of "
            f"{_digit_limit()} digits{where}"
        ) from None


#: A decimal in exponent notation as ``Fraction`` reads it; group 1 is the exponent.
_DECIMAL_EXPONENT = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(?:\d*|\d+(?:_\d+)*)(?:\.(?:\d*|\d+(?:_\d+)*))?"
    r"[eE][-+]?(\d+(?:_\d+)*)\s*"
)


def _parse_rational_token(text: str) -> Fraction:
    # 1e4000000 is nine characters but a 4-million-digit integer: bound the
    # exponent by the interpreter's digit limit before Fraction expands it.
    exponent = _DECIMAL_EXPONENT.fullmatch(text)
    limit = _digit_limit()
    if exponent and limit:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise DomainError(
                f"decimal exponent exceeds the limit of {limit} digits in a rational argument"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # A digit run past the interpreter's conversion limit is a DomainError, not echoed.
        for digits in re.findall(r"\d+", text):
            _int_literal(digits, " in a rational argument")
        raise ParseError(f"not a rational number: {text!r}") from exc


class _Parser:
    """Recursive descent over the token lists; every value is a pair
    ``(den, term map)`` meaning terms / den.  Pairs need not be canonical
    on the way: only the base of a power is reduced, and ``polynomial``
    normalizes each parsed result once."""

    def __init__(self, text: str, tokens: tuple[list, list, list], dimension: int):
        self.text = text
        self.kinds, self.texts, self.offsets = tokens
        self.pos = 0
        self.names = {name: i for i, name in enumerate(default_variable_names(dimension))}
        self.dimension = dimension
        self.depth = 0
        self.print_bits = _print_bits()

    def place(self, i: int) -> tuple[int, int]:
        """The (line, column) of token ``i``, for an error raised there."""
        return _position(self.text, self.offsets[i])

    def found(self, i: int) -> str:
        return repr(self.texts[i] or "end of input")

    def expect(self, kind: str) -> int:
        """Consume a token of ``kind`` and return its index."""
        i = self.pos
        if self.kinds[i] != kind:
            raise ParseError(f"expected {kind!r}, found {self.found(i)}", *self.place(i))
        self.pos = i + 1
        return i

    def integer(self, i: int) -> int:
        """The value of int token ``i``; past the digit limit, a DomainError at its place."""
        try:
            return _int_literal(self.texts[i], "")
        except DomainError as exc:
            raise DomainError(exc._message, *self.place(i)) from None

    def finish(self, what: str) -> None:
        """Raise unless the tokens after ``what`` are used up."""
        i = self.pos
        if self.kinds[i] != "end":
            raise ParseError(f"unexpected {self.texts[i]!r} after {what}", *self.place(i))

    def nest(self, i: int) -> None:
        # Each "(" or unary "-" recurses; refuse before the interpreter's stack would run out.
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise DomainError(f"parentheses and unary minus nested deeper than {MAX_NESTING}", *self.place(i))

    def parse_expr(self) -> tuple[int, dict]:
        kinds = self.kinds
        value = self.parse_term()
        if kinds[self.pos] not in ("+", "-"):
            return value
        parts = [(1, value)]
        while kinds[self.pos] in ("+", "-"):
            sign = 1 if kinds[self.pos] == "+" else -1
            self.pos += 1
            parts.append((sign, self.parse_term()))
        return _sum(parts)

    def parse_term(self) -> tuple[int, dict]:
        den, terms = self.parse_factor()
        while self.kinds[self.pos] == "*":
            self.pos += 1
            other_den, other = self.parse_factor()
            if len(terms) * len(other) > MAX_PRODUCT_PAIRS:
                raise DomainError(
                    f"a product of {len(terms)} and {len(other)} terms exceeds the "
                    f"pair budget {MAX_PRODUCT_PAIRS}"
                )
            # A right factor that is a bare +-1 monomial over 1 only moves the
            # left factor's keys, so it is not checked.
            if self.print_bits and terms and other and not (
                other_den == 1 and len(other) == 1 and abs(next(iter(other.values()))) == 1
            ):
                _check_printable_product(den, terms, other_den, other, self.print_bits)
            den, terms = den * other_den, mul_terms(terms, other)
        return den, terms

    def parse_factor(self) -> tuple[int, dict]:
        i = self.pos
        kind = self.kinds[i]
        self.pos = i + 1
        if kind == "-":
            self.nest(i)
            den, terms = self.parse_factor()
            self.depth -= 1
            return den, scale_terms(terms, -1)
        if kind == "int":
            value, den = self.integer(i), 1
            if self.kinds[self.pos] == "/":
                self.pos += 1
                j = self.expect("int")
                den = self.integer(j)
                if den == 0:
                    raise ParseError("denominator must be positive", *self.place(j))
            terms = {0: value} if value else {}
        elif kind == "name":
            index = self.names.get(self.texts[i])
            if index is None:
                raise UnknownVariable(f"unknown variable {self.texts[i]!r}", *self.place(i))
            den, terms = 1, {1 << (EXPONENT_BITS * index): 1}
        elif kind == "(":
            self.nest(i)
            den, terms = self.parse_expr()
            self.expect(")")
            self.depth -= 1
        else:
            raise ParseError(f"expected a rational, a variable or '(', found {self.found(i)}", *self.place(i))
        if self.kinds[self.pos] == "^":
            self.pos += 1
            k = self.integer(self.expect("int"))
            t = len(terms)
            if t > 1 and (k >= MAX_POWER_TERMS or comb(t + k - 1, k) > MAX_POWER_TERMS):
                raise DomainError(f"{t}-term base to the power {k} exceeds the term budget {MAX_POWER_TERMS}")
            # Reduce the base first: an unreduced pair such as (2/2)^k would carry
            # 2^k over 2^k.  Packed-key order is a monomial order, so the coefficients
            # of the smallest and largest keys, to the k, are the power's, over den^k.
            # The terms go first: an exponent overflow raises before den ** k is computed.
            den, terms = normalize(den, terms)
            try:
                for key in {min(terms), max(terms)} if terms else ():
                    if abs(terms[key]) != den:  # else the coefficient is 1 or -1
                        _check_printable_power(Fraction(terms[key], den), k)
            except DomainError:
                _check_power(terms, k)  # an exponent overflow is reported first
                raise
            terms = pow_terms(terms, k)
            den **= k
        return den, terms

    def polynomial(self) -> Polynomial:
        """The next expression as a polynomial, made once with ``_make``."""
        return Polynomial._make(self.dimension, *normalize(*self.parse_expr()))


def parse_polynomial(text: str, dimension: int = 3) -> Polynomial:
    """Parse an expression into a polynomial of the given dimension, in the
    variables ``default_variable_names(dimension)``."""
    _check_dimension(dimension)
    parser = _Parser(text, _tokenize(text), dimension)
    value = parser.polynomial()
    parser.finish("expression")
    return value


def parse_map(text: str, dimension: Optional[int] = None) -> tuple[Polynomial, ...]:
    """Parse a ``(e1, ..., en)`` literal into a tuple of polynomials in the
    variables ``default_variable_names(n)``.

    With ``dimension=None`` the arity is inferred by counting top-level
    commas; otherwise a wrong component count raises ArityMismatch.
    """
    tokens = _tokenize(text)
    if dimension is None:
        depth = 0
        commas = 0
        for kind in tokens[0]:
            if kind == "(":
                depth += 1
            elif kind == ")":
                depth -= 1
            elif kind == "," and depth == 1:
                commas += 1
        dimension = commas + 1
    _check_dimension(dimension)
    parser = _Parser(text, tokens, dimension)
    parser.expect("(")
    components = [parser.polynomial()]
    while parser.kinds[parser.pos] == ",":
        parser.pos += 1
        components.append(parser.polynomial())
    parser.expect(")")
    parser.finish("map literal")
    if len(components) != dimension:
        raise ArityMismatch(f"map literal has {len(components)} components, expected {dimension}")
    return tuple(components)


# -- formatting --------------------------------------------------------


def format_rational(value) -> str:
    value = Fraction(value)
    return _format_ratio(value.numerator, value.denominator)


def _format_ratio(numerator: int, denominator: int) -> str:
    g = gcd(numerator, denominator)
    try:
        if g != denominator:
            return f"{numerator // g}/{denominator // g}"
        return str(numerator // g)
    except ValueError:  # past the interpreter's limit on integer string conversion
        raise _unprintable() from None


def _unprintable() -> DomainError:
    return DomainError(f"a coefficient exceeds the limit of {_digit_limit()} digits for printing")


def _print_bits() -> int:
    """The least m with floor(m * 3010299 / 10^7) >= the digit limit, 0 where
    there is no limit.  As 3010299 / 10^7 < log10(2), every integer >= 2^m
    has more digits than the formatter prints."""
    limit = _digit_limit()
    return limit and -(-limit * 10**7 // 3010299)


def _check_printable_power(base: Fraction, exponent: int) -> None:
    """Raise the formatter's DomainError, without computing base^exponent,
    when the power's numerator or denominator has too many digits to print:
    the power of a b-bit part is at least 2^((b - 1) * exponent)."""
    bits = _print_bits()
    for part in (base.numerator, base.denominator):
        if bits and (abs(part).bit_length() - 1) * exponent >= bits:
            raise _unprintable()


def _check_printable_product(den_a: int, a: dict, den_b: int, b: dict, bits: int) -> None:
    """Raise the formatter's DomainError, without forming a * b, when the
    reduced coefficient of the product's smallest or largest packed monomial
    has too many digits to print (``bits`` is ``_print_bits()``).  Each comes
    from one pair of terms, so it is the product of the factors' coefficients
    there: with both reduced and the cross gcds divided out, its numerator
    and denominator are products x * y >= 2^(bits(x) + bits(y) - 2)."""
    long_den = den_a.bit_length() + den_b.bit_length() - 2 >= bits
    for ka, kb in ((min(a), min(b)), (max(a), max(b))):
        na, nb = a[ka], b[kb]
        if not long_den and na.bit_length() + nb.bit_length() - 2 < bits:
            continue  # short before reducing, so short after it
        ga, gb = gcd(na, den_a), gcd(nb, den_b)
        na, da, nb, db = na // ga, den_a // ga, nb // gb, den_b // gb
        g, h = gcd(na, db), gcd(nb, da)
        for x, y in ((na // g, nb // h), (da // h, db // g)):
            if x.bit_length() + y.bit_length() - 2 >= bits:
                raise _unprintable()


def format_polynomial(p: Polynomial, names: Optional[Sequence[str]] = None) -> str:
    """Deterministic canonical rendering; ``parse_polynomial`` inverts it."""
    if names is None:
        names = default_variable_names(p.dimension)
    if p.is_zero():
        return "0"
    den, n = p._den, p._dimension
    rows = []
    for key, coeff in p._terms.items():
        # One read of the fields gives the degree, the exponent vector as one
        # integer with the first variable's field on top, and the factors.
        degree = order = 0
        factors = []
        for i in range(n):
            e = key & FIELD_MASK
            key >>= EXPONENT_BITS
            degree += e
            order = order << EXPONENT_BITS | e
            if e:
                factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
        rows.append((degree, -order, coeff, factors))
    rows.sort()  # (degree, -order) differs between any two rows
    pieces = []
    for _, _, coeff, factors in rows:
        pieces.append(" - " if coeff < 0 else " + ")
        if abs(coeff) != den or not factors:
            factors.insert(0, _format_ratio(abs(coeff), den))
        pieces.append("*".join(factors))
    return ("" if pieces[0] == " + " else "-") + "".join(pieces[1:])


def format_map(components: Sequence[Polynomial]) -> str:
    """``(c1, ..., cn)``, each component by ``format_polynomial``; ``parse_map`` inverts it."""
    return "(" + ", ".join(format_polynomial(c) for c in components) + ")"
