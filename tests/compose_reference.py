"""Reference check of the translation equation by composition: phi is
composed with itself in three variables, in sympy's ZZ[x, y, z], so
independently of projflow's polynomial kernel, and of the boundary
condition, the PDE system and the degenerate form that
``verify_translation`` decides by.  Tests compare every route of the
package against it."""
import random
from fractions import Fraction
from math import lcm

from sympy import ZZ
from sympy.polys.rings import ring

from projflow import IdenticallySingular

_R, _, _, _Z = ring("x,y,z", ZZ)


def _integer_pair(f):
    """({(i, j): int} of f.num, the same of f.den), both times one integer:
    the lcm of the denominators of their coefficients."""
    terms = f.num.terms, f.den.terms
    L = lcm(*(c.denominator for t in terms for c in t.values()))
    return tuple({e: c.numerator * (L // c.denominator) for e, c in t.items()}
                 for t in terms)


def _powers(p, n):
    """[1, p, ..., p^n] in ZZ[x, y, z]."""
    out = [_R.one]
    for _ in range(n):
        out.append(out[-1] * p)
    return out


def _substituted(terms, d, A, B, C, O):
    """C^d p((1 - z) A/C, (1 - z) B/C) for p with ``terms`` of total degree
    at most d, from the tables of powers A, B, C and O of 1 - z: each
    homogeneous part of degree s, summed over its terms c A^i B^j, times
    (1 - z)^s C^(d - s)."""
    parts = {}
    for (i, j), c in terms.items():
        t = A[i] * B[j] * c
        parts[i + j] = parts[i + j] + t if i + j in parts else t
    return sum((p * (O[s] * C[d - s]) for s, p in parts.items()), _R.zero)


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
    """The translation equation (1 - z) phi(x, y) = phi(phi(xz, yz) (1 - z)
    / z) by composing phi with itself in ZZ[x, y, z]: a numeric pre-check
    on sample points, then the two sides compared by cross-multiplication.
    Raises IdenticallySingular when the composition is nowhere defined."""
    if not sample_check(f):
        return False
    coords = [_integer_pair(c) for c in (f.u, f.v)]
    # phi(xz, yz), each coordinate with the common power z^m of its pair
    # cancelled
    inner = []
    for pair in coords:
        m = min(i + j for t in pair for i, j in t)
        inner.append([_R.from_dict({(i, j, i + j - m): c
                                    for (i, j), c in t.items()})
                      for t in pair])
    (n1, d1), (n2, d2) = inner
    # the arguments (1 - z) A/C and (1 - z) B/C over one denominator: C =
    # z d1 with A = n1, B = n2 when d1 = d2, else C = z d1 d2 with A = n1
    # d2, B = n2 d1; the powers are tabulated once for both coordinates
    c1, c2 = (_R.one, _R.one) if d1 == d2 else (d2, d1)
    exps = [e for pair in coords for t in pair for e in t]
    top = max(i + j for i, j in exps)
    A = _powers(n1 * c1, max(i for i, _ in exps))
    B = _powers(n2 * c2, max(j for _, j in exps))
    C = _powers(_Z * d1 * c1, top)
    omz = 1 - _Z
    O = _powers(omz, top)
    for num, den in coords:
        d = max(i + j for t in (num, den) for i, j in t)
        rd = _substituted(den, d, A, B, C, O)
        if not rd:
            raise IdenticallySingular("substitution denominator vanishes")
        rn = _substituted(num, d, A, B, C, O)
        ln = _R.from_dict({(i, j, 0): c for (i, j), c in num.items()}) * omz
        ld = _R.from_dict({(i, j, 0): c for (i, j), c in den.items()})
        if ln * rd != rn * ld:
            return False
    return True
