"""The text form of polynomials: the parser of ideal files, --y and
Ideal.from_strings.

Only text input needs it; no verifier imports it, so the verification
modules load without it.  The inverse, polyring.format_polynomial, stays
with the ring, since every report prints polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from string import ascii_letters, digits

from .polyring import InvalidInput, Polynomial, RingSpec

# Grammar: rationals as `a` or `a/b`, variables x1..x<n> and z, operators
# + - * ^; juxtaposition is not allowed.  Digits and letters are ASCII
# only.  Example: 3/2*x1^2*z - x2


class ParseError(InvalidInput):
    """Polynomial text that does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at column {position}")
        self.position = position


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in digits:
            j = i
            while j < n and text[j] in digits:
                j += 1
            tokens.append(("num", int(text[i:j]), i + 1))
            i = j
            continue
        if ch in ascii_letters:
            j = i + 1
            while j < n and text[j] in digits:
                j += 1
            tokens.append(("var", text[i:j], i + 1))
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1)
    tokens.append(("end", None, n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, ring: RingSpec):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Polynomial:
        kind, _, col = self.peek()
        sign = 1
        if kind in ("+", "-"):
            self.advance()
            sign = -1 if kind == "-" else 1
        out = self.term() * sign
        while True:
            kind, _, _ = self.peek()
            if kind == "+":
                self.advance()
                out = out + self.term()
            elif kind == "-":
                self.advance()
                out = out - self.term()
            else:
                return out

    def term(self) -> Polynomial:
        out = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            out = out * self.factor()
        return out

    def factor(self) -> Polynomial:
        base = self.base()
        if self.peek()[0] == "^":
            self.advance()
            kind, val, col = self.advance()
            if kind != "num":
                raise ParseError("expected integer exponent", col)
            return base ** val
        return base

    def base(self) -> Polynomial:
        kind, val, col = self.advance()
        if kind == "num":
            if self.peek()[0] == "/":
                self.advance()
                k2, v2, c2 = self.advance()
                if k2 != "num":
                    raise ParseError("expected integer denominator", c2)
                if v2 == 0:
                    raise ParseError("zero denominator", c2)
                return Polynomial.constant(self.ring, Fraction(val, v2))
            return Polynomial.constant(self.ring, val)
        if kind == "var":
            if val not in self.ring.var_names:
                raise ParseError(f"unknown variable {val!r}", col)
            return Polynomial.variable(self.ring, val)
        if kind == "(":
            out = self.expr()
            k2, _, c2 = self.advance()
            if k2 != ")":
                raise ParseError("expected ')'", c2)
            return out
        if kind == "-":
            return -self.base()
        raise ParseError("expected a rational, a variable or '('", col)


def parse_polynomial(text: str, ring: RingSpec) -> Polynomial:
    """Parse the text grammar into a canonical Polynomial."""
    parser = _Parser(_tokenize(text), ring)
    out = parser.expr()
    kind, _, col = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", col)
    return out
