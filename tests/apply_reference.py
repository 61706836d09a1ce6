"""The action of a 1-homogenic birational map on a pair of rational
functions in ``RatFn`` arithmetic: m = L(pair), then m * (P/Q)(m) by
``RatFn.subs``, reduced at every step.  Tests compare ``HomBir.apply``,
which takes one radial step and reduces once, against it."""
from projflow import Poly, RatFn


def apply_reference(a, pair):
    """a(pair); raises IdenticallySingular where Q(m) vanishes."""
    p1, p2 = (RatFn(p) if isinstance(p, Poly) else p for p in pair)
    m1 = p1 * a.L.a + p2 * a.L.b
    m2 = p1 * a.L.c + p2 * a.L.d
    t = RatFn(a.P, a.Q).subs([m1, m2])
    return m1 * t, m2 * t
