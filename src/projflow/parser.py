"""Exact expression parser for flows and vector fields.

Grammar: infix arithmetic over x, y with ^, *, /, +, -, parentheses and
integer literals (fractions spelled as divisions, e.g. 3/4).  Decimal
literals are rejected to keep the kernel exact.  Flows are written
"u = expr; v = expr", vector fields "(expr, expr)".

Every node of an expression is an unreduced pair (num, den) of
polynomials: a sum over one denominator adds the numerators, and any other
sum, product or quotient multiplies across.  Reduced forms are unique, so
one reduction per coordinate at the end gives what reducing at every node
gave: ``parse_expr`` and each coordinate of a flow make one ``RatFn``, and
a field (a/b, c/d) is the one ``VectorField`` over b*d, normalized by two
gcds.  A ``^`` reduces its base first when the base's denominator is not
constant, so a power never raises an unreduced pair and the degree of a
pair stays bounded by what its leaves and powers contribute; the degree cap
applies to the pairs as they are built.

Parentheses and unary signs may nest at most MAX_NESTING levels deep
around any operand; deeper input raises ParseError instead of exhausting
the interpreter stack.  So do integer literals of more digits than
``int`` converts (``sys.get_int_max_str_digits``, where the Python has
that limit) and a pair that is not a 2-homogenic vector field.
"""
from __future__ import annotations

import sys

from .algebra import AlgebraError, CapExceeded, Poly, RatFn, poly_dot
from .flowcore import Flow, VectorField


class ParseError(AlgebraError):
    def __init__(self, message, line=1, column=0):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


MAX_NESTING = 100

# The digit limit of int(str) (0: none); Python 3.10.0-3.10.6 has no limit.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)

_ONE = Poly.const(2, 1)
_X = (Poly.var(0, 2), _ONE)
_Y = (Poly.var(1, 2), _ONE)


class _Lexer:
    def __init__(self, src):
        self.src = src
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0
        self.depth = 0

    def _loc(self, pos):
        line = self.src.count("\n", 0, pos) + 1
        column = pos - (self.src.rfind("\n", 0, pos) + 1)
        return line, column

    def _scan(self):
        src, i, n = self.src, 0, len(self.src)
        limit = _int_max_str_digits()
        while i < n:
            ch = src[i]
            if ch.isspace():
                i += 1
                continue
            if "0" <= ch <= "9":
                j = i
                while j < n and "0" <= src[j] <= "9":
                    j += 1
                if j < n and src[j] == ".":
                    raise ParseError("decimal literals are not allowed",
                                     *self._loc(i))
                if j - i > limit > 0:
                    raise ParseError("integer literal of more than %d digits"
                                     % limit, *self._loc(i))
                self.tokens.append(("int", int(src[i:j]), i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                self.tokens.append(("name", src[i:j], i))
                i = j
                continue
            if ch in "+-*/^()=,;":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError("unexpected character %r" % ch, *self._loc(i))
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        if tok[0] != "end":
            self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            line, col = self._loc(tok[2])
            raise ParseError("expected %r, found %r" % (kind, tok[1]),
                             line, col)
        return tok

    def enter(self, tok):
        """Open the nesting level of tok, a parenthesis or a unary sign."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("nesting deeper than %d levels" % MAX_NESTING, tok)

    def error(self, message, tok=None):
        tok = tok or self.peek()
        line, col = self._loc(tok[2])
        raise ParseError(message, line, col)


_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20}


def _sum(n1, d1, n2, d2):
    """The pair of n1/d1 + n2/d2: over an equal denominator the numerators
    add."""
    if d1 == d2:
        return n1 + n2, d1
    return poly_dot([(n1, d2), (n2, d1)]), d1 * d2


def _parse_expr(lx, min_prec=0):
    left = _parse_unary(lx)
    while True:
        kind, _val, _pos = lx.peek()
        prec = _BIN_PREC.get(kind)
        if prec is None or prec < min_prec:
            return left
        lx.next()
        n1, d1 = left
        n2, d2 = _parse_expr(lx, prec + 1)
        if kind == "+":
            left = _sum(n1, d1, n2, d2)
        elif kind == "-":
            left = _sum(n1, d1, -n2, d2)
        elif kind == "*":
            left = n1 * n2, d1 * d2
        else:
            if n2.is_zero():
                lx.error("division by the zero polynomial")
            left = n1 * d2, d1 * n2


def _parse_unary(lx):
    tok = lx.peek()
    if tok[0] not in ("-", "+"):
        return _parse_power(lx)
    lx.enter(lx.next())
    num, den = _parse_unary(lx)
    lx.depth -= 1
    return (-num, den) if tok[0] == "-" else (num, den)


def _parse_power(lx):
    num, den = _parse_atom(lx)
    if lx.peek()[0] != "^":
        return num, den
    lx.next()
    sign = 1
    if lx.peek()[0] == "-":
        lx.next()
        sign = -1
    tok = lx.expect("int")
    exp = sign * tok[1]
    if not den.is_constant():
        base = RatFn(num, den)
        num, den = base.num, base.den
    if exp >= 0:
        return num ** exp, den ** exp
    if num.is_zero():
        lx.error("zero raised to a negative power", tok)
    return den ** -exp, num ** -exp


def _parse_atom(lx):
    kind, val, _pos = lx.next()
    if kind == "int":
        return Poly.const(2, val), _ONE
    if kind == "name":
        if val == "x":
            return _X
        if val == "y":
            return _Y
        lx.error("unknown name %r" % val, (kind, val, _pos))
    if kind == "(":
        lx.enter((kind, val, _pos))
        inner = _parse_expr(lx)
        lx.expect(")")
        lx.depth -= 1
        return inner
    lx.error("unexpected token %r" % (val,), (kind, val, _pos))


def parse_expr(src):
    """A single rational expression in x, y."""
    lx = _Lexer(src)
    e = _parse_expr(lx)
    if lx.peek()[0] != "end":
        lx.error("trailing input")
    return RatFn(*e)


def parse_flow(src):
    """Parse "u = expr; v = expr" into a Flow."""
    lx = _Lexer(src)
    tok = lx.expect("name")
    if tok[1] != "u":
        lx.error("expected 'u'", tok)
    lx.expect("=")
    u = _parse_expr(lx)
    lx.expect(";")
    tok = lx.expect("name")
    if tok[1] != "v":
        lx.error("expected 'v'", tok)
    lx.expect("=")
    v = _parse_expr(lx)
    if lx.peek()[0] == ";":
        lx.next()
    if lx.peek()[0] != "end":
        lx.error("trailing input")
    return Flow(RatFn(*u), RatFn(*v))


def parse_vector_field(src):
    """Parse "(expr, expr)" into a VectorField; a pair that is not a
    2-homogenic field is a ParseError at its opening parenthesis."""
    lx = _Lexer(src)
    start = lx.expect("(")
    w = _parse_expr(lx)
    lx.expect(",")
    r = _parse_expr(lx)
    lx.expect(")")
    if lx.peek()[0] != "end":
        lx.error("trailing input")
    (a, b), (c, d) = w, r
    try:
        return VectorField.of(a * d, c * b, b * d)
    except CapExceeded:
        raise
    except AlgebraError as exc:
        lx.error(str(exc), start)


def parse_input(src):
    """Flow or vector field, auto-detected from the leading token."""
    stripped = src.strip()
    if stripped.startswith("("):
        return parse_vector_field(src)
    return parse_flow(src)


def print_flow(f):
    names = ("x", "y")
    return "u = %s; v = %s" % (f.u.to_string(names), f.v.to_string(names))


def print_vector_field(vf):
    names = ("x", "y")
    return "(%s, %s)" % (vf.w.to_string(names), vf.r.to_string(names))
