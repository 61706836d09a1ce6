"""The orbit invariant that phi_N's x y^(N-1) gives through a conjugator
ell = (P, Q; L), with every factor multiplied out: at ell^{-1}(x) =
L^{-1}(x) Q/P it is l_x l_y^(N-1) Q^N / P^N for (l_x, l_y) = L^{-1}(x).
As gcd(P, Q) = 1 the two sides share only powers of l_x and l_y; those are
divided out (``_divide_known``) and the pair is normalized as
``orbit_invariant`` normalizes.  Tests compare
``classify._transported_invariant``, which reads signed exponents off
``HomBir.linear_split``, against it."""
from projflow.algebra import RatFn, _divide_known


def transported_invariant_reference(ell, N):
    """The normalized invariant W of level N >= 1 carried by ell^{-1}."""
    lx, ly = ell.L.inverse().coord_polys()
    num, den = _divide_known((lx * ly ** (N - 1) * ell.Q ** N, ell.P ** N),
                             (lx, ly))
    return RatFn(num * (1 / num.leading_coeff()), den.unit_normal(),
                 reduce=False)
