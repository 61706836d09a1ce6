"""Reference check of the translation equation by the second-order PDE
system: for a map with the boundary condition, the equation holds iff

    (x u_xx + y u_xy) E + (y u_yy + x u_xy) F = 2 (u - x u_x - y u_y) J

and the same for v, where E = v u_y - u v_y, F = u v_x - v u_x and J is the
Jacobian.  It is independent of the first-order check ``verify_pde`` makes
and of its jet field; tests compare the two on boundary maps."""
from projflow import Poly


def pde_second_order(f):
    """The second-order system on polynomial numerators: with u = a/b and
    v = c/d, first derivatives are over b^2 and d^2, E, F and J over
    b^2 d^2, and second derivatives over b^3 and d^3."""
    a, b = f.u.num, f.u.den
    c, d = f.v.num, f.v.den
    x = Poly.var(0, 2)
    y = Poly.var(1, 2)
    UX = a.derivative(0) * b - a * b.derivative(0)
    UY = a.derivative(1) * b - a * b.derivative(1)
    VX = c.derivative(0) * d - c * d.derivative(0)
    VY = c.derivative(1) * d - c * d.derivative(1)
    E = c * UY * d - a * VY * b
    F = a * VX * b - c * UX * d
    J = UX * VY - UY * VX
    for num, den, WX, WY in ((a, b, UX, UY), (c, d, VX, VY)):
        XX = WX.derivative(0) * den - 2 * WX * den.derivative(0)
        XY = WX.derivative(1) * den - 2 * WX * den.derivative(1)
        YY = WY.derivative(1) * den - 2 * WY * den.derivative(1)
        lhs = (x * XX + y * XY) * E + (y * YY + x * XY) * F
        rhs = 2 * (num * den - x * WX - y * WY) * J * den
        if lhs != rhs:
            return False
    return True
