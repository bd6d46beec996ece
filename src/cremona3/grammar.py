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
corrections after.

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

import sys
from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence

from ._termops import EXPONENT_BITS, _check_power, mul_terms, normalize, pow_terms, scale_terms
from .errors import ArityMismatch, DomainError, ParseError, UnknownVariable
from .exactpoly import Polynomial, _check_dimension, _sum, default_variable_names

_OPERATORS = set("+-*^/(),")

#: Term budget of a parsed power: ``base^k`` of a ``t``-term base has at most
#: C(t + k - 1, k) terms, and a power whose bound exceeds it raises DomainError.
MAX_POWER_TERMS = 1000

#: Pair budget of a parsed product: ``a*b`` of a ``s``-term and a ``t``-term
#: factor costs ``s * t`` term pairs, and a product past it raises DomainError.
MAX_PRODUCT_PAIRS = 100_000

#: Nesting budget: parentheses and unary minus nested deeper raise
#: DomainError.  Each level costs the parser at most four stack frames, so
#: the budget stays far below the interpreter's default recursion limit.
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind  # "int" | "name" | one of _OPERATORS | "end"
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, column = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", text[i:j], line, column))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, column))
            column += j - i
            i = j
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, line, column))
            column += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "", line, column))
    return tokens


def _digit_limit() -> int:
    """The interpreter's limit on integer string conversion; 0 (no limit)
    where ``sys.get_int_max_str_digits`` is missing, as before Python 3.10.7."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else 0


def _int_literal(digits: str, where: str, line=None, column=None) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on integer string conversion
        raise DomainError(
            f"integer literal of {len(digits)} digits exceeds the limit of "
            f"{_digit_limit()} digits{where}",
            line,
            column,
        ) from None


def _int_value(tok: _Token) -> int:
    return _int_literal(tok.text, "", tok.line, tok.column)


class _Parser:
    """Recursive descent over the tokens; every value is a pair
    ``(den, term map)`` meaning terms / den.  Pairs need not be canonical
    on the way: only the base of a power is reduced, and ``polynomial``
    normalizes each parsed result once."""

    def __init__(self, tokens: list[_Token], dimension: int):
        self.tokens = tokens
        self.pos = 0
        self.names = {name: i for i, name in enumerate(default_variable_names(dimension))}
        self.dimension = dimension
        self.depth = 0
        self.print_bits = _print_bits()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column
            )
        return self.advance()

    def nest(self, tok: _Token) -> None:
        # Each "(" or unary "-" recurses; refuse before the interpreter's stack would run out.
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise DomainError(
                f"parentheses and unary minus nested deeper than {MAX_NESTING}", tok.line, tok.column
            )

    def parse_expr(self) -> tuple[int, dict]:
        value = self.parse_term()
        if self.peek().kind not in ("+", "-"):
            return value
        parts = [(1, value)]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            parts.append((sign, self.parse_term()))
        return _sum(parts)

    def parse_term(self) -> tuple[int, dict]:
        den, terms = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
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
        if self.peek().kind == "-":
            self.nest(self.advance())
            den, terms = self.parse_factor()
            self.depth -= 1
            return den, scale_terms(terms, -1)
        den, terms = self.parse_base()
        if self.peek().kind == "^":
            self.advance()
            k = _int_value(self.expect("int"))
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

    def parse_base(self) -> tuple[int, dict]:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = _int_value(tok)
            den = 1
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.expect("int")
                den = _int_value(den_tok)
                if den == 0:
                    raise ParseError("denominator must be positive", den_tok.line, den_tok.column)
            return den, {0: value} if value else {}
        if tok.kind == "name":
            self.advance()
            index = self.names.get(tok.text)
            if index is None:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.line, tok.column)
            return 1, {1 << (EXPONENT_BITS * index): 1}
        if tok.kind == "(":
            self.nest(self.advance())
            value = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(
            f"expected a rational, a variable or '(', found {tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )

    def polynomial(self) -> Polynomial:
        """The next expression as a polynomial, made once with ``_make``."""
        return Polynomial._make(self.dimension, *normalize(*self.parse_expr()))


def parse_polynomial(text: str, dimension: int = 3) -> Polynomial:
    """Parse an expression into a polynomial of the given dimension, in the
    variables ``default_variable_names(dimension)``."""
    _check_dimension(dimension)
    parser = _Parser(_tokenize(text), dimension)
    value = parser.polynomial()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r} after expression", tok.line, tok.column)
    return value


def _split_components(parser: _Parser) -> list[Polynomial]:
    parser.expect("(")
    components = [parser.polynomial()]
    while parser.peek().kind == ",":
        parser.advance()
        components.append(parser.polynomial())
    parser.expect(")")
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r} after map literal", tok.line, tok.column)
    return components


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
        for tok in tokens:
            if tok.kind == "(":
                depth += 1
            elif tok.kind == ")":
                depth -= 1
            elif tok.kind == "," and depth == 1:
                commas += 1
        dimension = commas + 1
    _check_dimension(dimension)
    parser = _Parser(tokens, dimension)
    components = _split_components(parser)
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


def _term_order_key(exps):
    return (sum(exps),) + tuple(-e for e in exps)


def format_polynomial(p: Polynomial, names: Optional[Sequence[str]] = None) -> str:
    """Deterministic canonical rendering; ``parse_polynomial`` inverts it."""
    if names is None:
        names = default_variable_names(p.dimension)
    if p.is_zero():
        return "0"
    den, numerators = p.integer_terms()
    pieces = []
    for exps in sorted(numerators, key=_term_order_key):
        coeff = numerators[exps]
        sign = "-" if coeff < 0 else "+"
        factors = []
        magnitude = -coeff if coeff < 0 else coeff
        monomial = [
            (names[i], e) for i, e in enumerate(exps) if e
        ]
        if magnitude != den or not monomial:
            factors.append(_format_ratio(magnitude, den))
        for name, e in monomial:
            factors.append(name if e == 1 else f"{name}^{e}")
        pieces.append((sign, "*".join(factors)))
    first_sign, first_body = pieces[0]
    out = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def format_map(components: Sequence[Polynomial]) -> str:
    """``(c1, ..., cn)``, each component by ``format_polynomial``; ``parse_map`` inverts it."""
    return "(" + ", ".join(format_polynomial(c) for c in components) + ")"
