"""Reference check of the translation equation by composition: phi is
composed with itself in three variables, independently of the boundary
condition, the PDE system and the degenerate form that ``verify_translation``
decides by.  Tests compare every route of the package against it."""
import random
from fractions import Fraction

from projflow import IdenticallySingular, Poly, RatFn


def _poly_scale_z(p):
    """Bivariate p(x, y) -> trivariate p(xz, yz)."""
    return Poly(3, {(i, j, i + j): c for (i, j), c in p.terms.items()})


def _poly_to3(p):
    return Poly(3, {(i, j, 0): c for (i, j), c in p.terms.items()})


def _pair_normalize(num, den):
    """Cheap normalization of an unreduced trivariate pair: cancel the
    common monomial factor and make the denominator primitive with a
    positive leading coefficient."""
    if num.is_zero():
        return num, Poly.const(3, 1)
    common = tuple(min(e[i] for e in list(num.terms) + list(den.terms))
                   for i in range(3))
    if any(common):
        num = num.strip_monomial(common)
        den = den.strip_monomial(common)
    c = den.content()
    if den.leading_coeff() < 0:
        c = -c
    if c != 1:
        num = num * (1 / c)
        den = den * (1 / c)
    return num, den


def sample_check(f, trials=6, seed=20240814):
    """Fast numeric pre-check of the translation equation on random points."""
    rng = random.Random(seed)
    hits = 0
    for _ in range(200):
        if hits >= trials:
            return True
        x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        y0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        z0 = Fraction(rng.randint(1, 9), rng.randint(10, 23))
        try:
            u1 = f.u.eval((x0 * z0, y0 * z0))
            v1 = f.v.eval((x0 * z0, y0 * z0))
            s = (1 - z0) / z0
            lhs_u = (1 - z0) * f.u.eval((x0, y0))
            lhs_v = (1 - z0) * f.v.eval((x0, y0))
            rhs_u = f.u.eval((u1 * s, v1 * s))
            rhs_v = f.v.eval((u1 * s, v1 * s))
        except ZeroDivisionError:
            continue
        if lhs_u != rhs_u or lhs_v != rhs_v:
            return False
        hits += 1
    return True


def verify_compose(f):
    """The translation equation by composing phi with itself in three
    variables: a numeric pre-check on sample points, then exact equality of
    the two sides as trivariate fractions.  Raises IdenticallySingular when
    the composition is nowhere defined."""
    if not sample_check(f):
        return False
    z = Poly.var(2, 3)
    one = Poly.const(3, 1)
    # phi(xz, yz) as unreduced trivariate pairs
    n1, d1 = _pair_normalize(_poly_scale_z(f.u.num), _poly_scale_z(f.u.den))
    n2, d2 = _pair_normalize(_poly_scale_z(f.v.num), _poly_scale_z(f.v.den))
    if d1.is_zero() or d2.is_zero():
        raise IdenticallySingular("inner substitution degenerates")
    # arguments X = n1 (1-z) / (z d1), Y = n2 (1-z) / (z d2); common denominator
    omz = one - z
    A = n1 * omz * d2
    B = n2 * omz * d1
    C = z * d1 * d2
    args = [RatFn(A, C, reduce=False), RatFn(B, C, reduce=False)]
    for coord in (f.u, f.v):
        rn, rd = _pair_normalize(*coord.subs_pair(args))
        ln = _poly_to3(coord.num) * omz
        ld = _poly_to3(coord.den)
        if ln * rd != rn * ld:
            return False
    return True
