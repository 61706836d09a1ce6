"""Reference evaluation at a rational point: the plain loop over the terms
in Fraction arithmetic, one power per exponent of every term.  Tests compare
``Poly.eval`` and ``RatFn.eval``, which sum integers over one denominator,
against it."""
from fractions import Fraction


def poly_eval(p, point):
    acc = Fraction(0)
    for e, c in p.terms.items():
        t = c
        for x, k in zip(point, e):
            if k:
                t *= Fraction(x) ** k
        acc += t
    return acc


def ratfn_eval(f, point):
    d = poly_eval(f.den, point)
    if d == 0:
        raise ZeroDivisionError("pole at %r" % (point,))
    return poly_eval(f.num, point) / d
