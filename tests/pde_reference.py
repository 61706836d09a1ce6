"""Reference computations from the Jacobian of a map (u, v), independent of
the jet recurrence that ``vector_field`` and ``verify_pde`` use; tests
compare the two on boundary maps.

With E = v u_y - u v_y, F = u v_x - v u_x and J the Jacobian, the vector
field is ((E + x J)/J, (F + y J)/J), and the translation equation holds iff
the second-order system

    (x u_xx + y u_xy) E + (y u_yy + x u_xy) F = 2 (u - x u_x - y u_y) J

holds, and the same for v."""
from projflow import Poly, VectorField


def _first_order(f):
    """(UX, UY, VX, VY, E, F, J) on polynomial numerators: with u = a/b and
    v = c/d, first derivatives are over b^2 and d^2, and E, F and J over
    b^2 d^2."""
    a, b = f.u.num, f.u.den
    c, d = f.v.num, f.v.den
    UX = a.derivative(0) * b - a * b.derivative(0)
    UY = a.derivative(1) * b - a * b.derivative(1)
    VX = c.derivative(0) * d - c * d.derivative(0)
    VY = c.derivative(1) * d - c * d.derivative(1)
    E = c * UY * d - a * VY * b
    F = a * VX * b - c * UX * d
    J = UX * VY - UY * VX
    return UX, UY, VX, VY, E, F, J


def jacobian_field(f):
    """(w, r) = ((v u_y - u v_y)/J + x, (u v_x - v u_x)/J + y); the shared
    denominator b^2 d^2 of E, F and J cancels."""
    *_, E, F, J = _first_order(f)
    assert not J.is_zero(), "Jacobian vanishes identically"
    return VectorField.of(E + Poly.var(0, 2) * J, F + Poly.var(1, 2) * J, J)


def pde_second_order(f):
    """The second-order system on polynomial numerators; second derivatives
    are over b^3 and d^3."""
    a, b = f.u.num, f.u.den
    c, d = f.v.num, f.v.den
    x = Poly.var(0, 2)
    y = Poly.var(1, 2)
    UX, UY, VX, VY, E, F, J = _first_order(f)
    for num, den, WX, WY in ((a, b, UX, UY), (c, d, VX, VY)):
        XX = WX.derivative(0) * den - 2 * WX * den.derivative(0)
        XY = WX.derivative(1) * den - 2 * WX * den.derivative(1)
        YY = WY.derivative(1) * den - 2 * WY * den.derivative(1)
        lhs = (x * XX + y * XY) * E + (y * YY + x * XY) * F
        rhs = 2 * (num * den - x * WX - y * WY) * J * den
        if lhs != rhs:
            return False
    return True
