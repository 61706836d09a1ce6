"""The Lie recurrence of ``series.expand_from_vf`` in ``Poly`` arithmetic,
kept as an oracle for the version on integer lists: with w = P/D, r = Q/D
and the current jet n/d, the next jet is ((n_x P + n_y Q) d - n (d_x P +
d_y Q)) / (i d^2 D), reduced by ``RatFn``."""
from fractions import Fraction

from projflow import RatFn


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
