"""The Lie recurrence of ``series.expand_from_vf`` in ``Poly`` arithmetic,
kept as an oracle for the version on integer lists: with w = P/D, r = Q/D
and the current jet n/d, the next jet is ((n_x P + n_y Q) d - n (d_x P +
d_y Q)) / (i d^2 D), reduced by ``RatFn``.  Also the Lie step on lists as
two convolutions, an oracle for the one-pass ``algebra._lderive``."""
from fractions import Fraction

from projflow import RatFn
from projflow.algebra import _ladd, _lmul


def lderive(c, P, Q):
    """The list of c_x P + c_y Q: the lists of c_x and c_y, each convolved
    with its factor, then summed."""
    k = len(c) - 1
    return _ladd(_lmul([a * c[a] for a in range(1, k + 1)], P),
                 _lmul([(k - a) * v for a, v in enumerate(c[:-1])], Q))


def field_jets(vf, K):
    """(u_parts, v_parts) of the field to order K."""
    P, Q, D = vf.P, vf.Q, vf.D
    tables = []
    for start in (RatFn.var(0, 2), RatFn.var(1, 2)):
        jets = [start]
        for i in range(1, K):
            n, d = jets[-1].num, jets[-1].den
            num, den = n.derivative(0) * P + n.derivative(1) * Q, D
            if not d.is_constant():
                num = num * d - n * (d.derivative(0) * P + d.derivative(1) * Q)
                den = d * d * D
            jets.append(RatFn(num * Fraction(1, i), den))
        tables.append(jets)
    return tuple(tables)
