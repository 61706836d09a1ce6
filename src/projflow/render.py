"""CSV and SVG emitters for vector fields and orbit curves.

Read-only consumers of classification results: sampling uses exact
rational evaluation; values become decimal strings only at serialization.
All output is a deterministic function of the inputs.
"""
from __future__ import annotations

from fractions import Fraction


def _dec(fr, digits=12):
    """Fixed-point decimal string of a Fraction (deterministic)."""
    fr = Fraction(fr)
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    scaled = fr * 10 ** digits
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        whole += 1
    s = str(whole).rjust(digits + 1, "0")
    out = "%s%s.%s" % (sign, s[:-digits], s[-digits:])
    out = out.rstrip("0").rstrip(".")
    return out or "0"


def _eval(rf, x, y):
    """Exact value of a RatFn at a rational point, or None at a pole."""
    den = rf.den.eval((x, y))
    if den == 0:
        return None
    return rf.num.eval((x, y)) / den


def _grid(rng, n):
    a, b = Fraction(rng[0]), Fraction(rng[1])
    if n < 2:
        return [a]
    step = (b - a) / (n - 1)
    return [a + step * i for i in range(n)]


def vector_field_csv(vf, rng=(-2, 2), n=21):
    """CSV with header x,y,w,r over an n-by-n rational grid."""
    lines = ["x,y,w,r"]
    for x in _grid(rng, n):
        for y in _grid(rng, n):
            w = _eval(vf.w, x, y)
            r = _eval(vf.r, x, y)
            if w is None or r is None:
                continue
            lines.append(",".join(_dec(v) for v in (x, y, w, r)))
    return "\n".join(lines) + "\n"


def orbit_points(W, value, rng=(-2, 2), n=101, bisections=40):
    """Points on the curve W(x, y) = value found by sign-change bisection
    along grid rows and columns; exact rational arithmetic throughout."""
    num, den = W.num, W.den

    def g(x, y):
        d = den.eval((x, y))
        if d == 0:
            return None
        return num.eval((x, y)) - value * d

    ticks = _grid(rng, n)
    points = []

    def scan(fixed, moving_axis):
        prev_t = None
        prev_v = None
        for t in ticks:
            x, y = (fixed, t) if moving_axis == "y" else (t, fixed)
            v = g(x, y)
            if v is not None and prev_v is not None and \
                    ((v < 0) != (prev_v < 0) or v == 0):
                lo, hi = prev_t, t
                vlo = prev_v
                for _ in range(bisections):
                    mid = (lo + hi) / 2
                    xm, ym = (fixed, mid) if moving_axis == "y" \
                        else (mid, fixed)
                    vm = g(xm, ym)
                    if vm is None:
                        break
                    if vm == 0:
                        lo = hi = mid
                        break
                    if (vm < 0) == (vlo < 0):
                        lo, vlo = mid, vm
                    else:
                        hi = mid
                root = (lo + hi) / 2
                points.append((fixed, root) if moving_axis == "y"
                              else (root, fixed))
            prev_t, prev_v = t, v
    for tick in ticks:
        scan(tick, "y")
        scan(tick, "x")
    return points


def _svg_coord(v, rng, size):
    a, b = Fraction(rng[0]), Fraction(rng[1])
    return (Fraction(v) - a) / (b - a) * size


def orbit_svg(points, vf=None, rng=(-2, 2), size=480, arrows=11):
    """Static SVG 1.1 document: orbit points plus optional field arrows."""
    body = []
    body.append('<rect width="%d" height="%d" fill="white"/>' % (size, size))
    mid = _svg_coord(0, rng, size)
    body.append('<line x1="0" y1="%s" x2="%d" y2="%s" stroke="#ccc"/>' %
                (_dec(mid, 2), size, _dec(mid, 2)))
    body.append('<line x1="%s" y1="0" x2="%s" y2="%d" stroke="#ccc"/>' %
                (_dec(mid, 2), _dec(mid, 2), size))
    if vf is not None:
        for x in _grid(rng, arrows):
            for y in _grid(rng, arrows):
                w = _eval(vf.w, x, y)
                r = _eval(vf.r, x, y)
                if w is None or r is None or (w == 0 and r == 0):
                    continue
                # crude exact normalization: scale by span/(arrows*|v|_inf)
                m = max(abs(w), abs(r))
                span = (Fraction(rng[1]) - Fraction(rng[0])) / (3 * arrows)
                dx, dy = w / m * span, r / m * span
                x1 = _svg_coord(x, rng, size)
                y1 = size - _svg_coord(y, rng, size)
                x2 = _svg_coord(x + dx, rng, size)
                y2 = size - _svg_coord(y + dy, rng, size)
                body.append(
                    '<line x1="%s" y1="%s" x2="%s" y2="%s" '
                    'stroke="#888" stroke-width="1"/>' %
                    (_dec(x1, 2), _dec(y1, 2), _dec(x2, 2), _dec(y2, 2)))
    for (x, y) in points:
        cx = _svg_coord(x, rng, size)
        cy = size - _svg_coord(y, rng, size)
        body.append('<circle cx="%s" cy="%s" r="1.5" fill="#c00"/>' %
                    (_dec(cx, 2), _dec(cy, 2)))
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="%d" height="%d">\n%s\n</svg>\n'
            % (size, size, "\n".join(body)))
