"""The closed form of ell o phi_N o ell^{-1} with every factor multiplied
out: with l = L^{-1}(x), T = P + Q l_y and w = (a1, a2)/E the point
phi_N(ell^{-1}(x)) over (Q/P), the triple (M1 P(M), M2 P(M), P E Q(M)/Q)
for M = L(a1, a2).  Tests compare ``HomBir.push_forward_phi``, which
cancels the known factors of this triple as exponents, against it."""
from projflow.algebra import divexact


def push_forward_reference(a, N):
    """(N1, N2, D) with (N1/D, N2/D) = a o phi_N o a^{-1}, not reduced."""
    P, Q, L = a.P, a.Q, a.L
    lx, ly = L.inverse().coord_polys()
    T = P + Q * ly
    if N >= 1:
        a1, a2, E = lx * T ** N, ly * P ** N, P ** (N - 1) * T
    else:
        a1, a2, E = lx * P ** (1 - N), ly * P * T ** -N, T ** (1 - N)
    M = [a1 * L.a + a2 * L.b, a1 * L.c + a2 * L.d]
    PM = P.subs_polys(M)
    return M[0] * PM, M[1] * PM, P * E * divexact(Q.subs_polys(M), Q)
