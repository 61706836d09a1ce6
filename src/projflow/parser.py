"""Exact expression parser for flows and vector fields.

Grammar: infix arithmetic over x, y with ^, *, /, +, -, parentheses and
integer literals (fractions spelled as divisions, e.g. 3/4).  Decimal
literals are rejected to keep the kernel exact.  Flows are written
"u = expr; v = expr", vector fields "(expr, expr)".

Parentheses and unary signs may nest at most MAX_NESTING levels deep
around any operand; deeper input raises ParseError instead of exhausting
the interpreter stack.  So do integer literals of more digits than
``int`` converts (``sys.get_int_max_str_digits``, where the Python has
that limit) and a pair that is not a 2-homogenic vector field.
"""
from __future__ import annotations

import sys
from fractions import Fraction

from .algebra import AlgebraError, CapExceeded, Poly, RatFn
from .flowcore import Flow, VectorField


class ParseError(AlgebraError):
    def __init__(self, message, line=1, column=0):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


MAX_NESTING = 100

# The digit limit of int(str) (0: none); Python 3.10.0-3.10.6 has no limit.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)

_X = RatFn(Poly.var(0, 2))
_Y = RatFn(Poly.var(1, 2))


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
        while i < n:
            ch = src[i]
            if ch.isspace():
                i += 1
                continue
            if "0" <= ch <= "9":
                j = i
                while j < n and "0" <= src[j] <= "9":
                    j += 1
                line, col = self._loc(i)
                if j < n and src[j] == ".":
                    raise ParseError("decimal literals are not allowed",
                                     line, col)
                limit = _int_max_str_digits()
                if j - i > limit > 0:
                    raise ParseError("integer literal of more than %d digits"
                                     % limit, line, col)
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
            line, col = self._loc(i)
            raise ParseError("unexpected character %r" % ch, line, col)
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


def _parse_expr(lx, min_prec=0):
    left = _parse_unary(lx)
    while True:
        kind, _val, _pos = lx.peek()
        prec = _BIN_PREC.get(kind)
        if prec is None or prec < min_prec:
            return left
        lx.next()
        right = _parse_expr(lx, prec + 1)
        if kind == "+":
            left = left + right
        elif kind == "-":
            left = left - right
        elif kind == "*":
            left = left * right
        else:
            if right.is_zero():
                lx.error("division by the zero polynomial")
            left = left / right


def _parse_unary(lx):
    tok = lx.peek()
    if tok[0] not in ("-", "+"):
        return _parse_power(lx)
    lx.enter(lx.next())
    operand = _parse_unary(lx)
    lx.depth -= 1
    return -operand if tok[0] == "-" else operand


def _parse_power(lx):
    base = _parse_atom(lx)
    if lx.peek()[0] == "^":
        lx.next()
        sign = 1
        if lx.peek()[0] == "-":
            lx.next()
            sign = -1
        tok = lx.expect("int")
        exp = sign * tok[1]
        if exp >= 0:
            return base ** exp
        if base.is_zero():
            lx.error("zero raised to a negative power", tok)
        return RatFn.const(1, 2) / base ** (-exp)
    return base


def _parse_atom(lx):
    kind, val, _pos = lx.next()
    if kind == "int":
        return RatFn.const(Fraction(val), 2)
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
    return e


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
    return Flow(u, v)


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
    try:
        return VectorField(w, r)
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
