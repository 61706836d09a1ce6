"""The expression parser as it was before it folded polynomial pairs: every
node is a reduced ``RatFn`` built by ``RatFn`` arithmetic, so each ``+``,
``*``, ``/`` and ``^`` takes a gcd.  It shares the lexer and the error
messages of ``projflow.parser``; tests compare ``parser.parse_expr`` with
``parse_expr`` here."""
from fractions import Fraction

from projflow import Poly, RatFn
from projflow.parser import _BIN_PREC, _Lexer

_X = RatFn(Poly.var(0, 2))
_Y = RatFn(Poly.var(1, 2))


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
    """A single rational expression in x, y, reduced at every node."""
    lx = _Lexer(src)
    e = _parse_expr(lx)
    if lx.peek()[0] != "end":
        lx.error("trailing input")
    return e
