"""Exact sparse polynomial and rational-function arithmetic over Q.

Polynomials are stored as sparse maps from exponent tuples to Fraction
coefficients.  The canonical monomial order is graded lexicographic with
x > y (> z).  Rational functions are kept fully reduced, with the
denominator normalized to primitive integer coefficients and a positive
graded-lex leading coefficient, so equality is structural.

The inner loops of products and exact division run on Python ints, not on
Fractions: each operand is scaled once by the lcm of its denominators,
every exponent tuple is packed into one int (total degree in the top field,
then one field per variable, so that adding keys multiplies monomials and
comparing keys compares in graded-lex order), and each output coefficient
becomes a Fraction once, at the end.  Exact division divides by the
primitive part of the divisor, so every quotient coefficient is an integer
(Gauss's lemma), and takes the leading term of the remainder from a heap.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd

VAR_NAMES = ("x", "y", "z", "t")


class AlgebraError(Exception):
    pass


class IdenticallySingular(AlgebraError):
    """A substitution produced an identically-zero denominator."""


class VerificationFailed(AlgebraError):
    """A certificate check failed; must not happen on genuine flows."""


class NeedsRationalRoot(AlgebraError):
    """A required root is irrational; the computation cannot stay in Q."""

    def __init__(self, blocking_poly, message="irrational root required"):
        super().__init__(message)
        self.blocking_poly = blocking_poly


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("expected int or Fraction, got %r" % (c,))


def _grlex_key(exps):
    return (sum(exps), exps)


class Poly:
    """Sparse polynomial in ``nvars`` variables over Q."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = _as_fraction(c)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------
    @classmethod
    def _of(cls, nvars, terms):
        """A Poly on ``terms`` already in normal form: exponent tuples
        mapped to nonzero Fractions."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        c = _as_fraction(c)
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def var(cls, i, nvars):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    # -- predicates / views ---------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise AlgebraError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self):
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def min_degree(self):
        if self.is_zero():
            return -1
        return min(sum(e) for e in self.terms)

    def degree_in(self, i):
        if self.is_zero():
            return -1
        return max(e[i] for e in self.terms)

    def leading_term(self):
        """Graded-lex leading (exponents, coefficient)."""
        exps = max(self.terms, key=_grlex_key)
        return exps, self.terms[exps]

    def leading_coeff(self):
        return self.leading_term()[1]

    def is_homogeneous(self):
        return self.is_zero() or self.total_degree() == self.min_degree()

    def homogeneous_parts(self):
        """Map total degree -> homogeneous Poly part."""
        parts = {}
        for e, c in self.terms.items():
            parts.setdefault(sum(e), {})[e] = c
        return {d: Poly(self.nvars, t) for d, t in sorted(parts.items())}

    def used_vars(self):
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly._of(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = _as_fraction(other)
            if not c0:
                return Poly.zero(self.nvars)
            return Poly._of(self.nvars, {e: c * c0 for e, c in self.terms.items()})
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.nvars)
        width = (self.total_degree() + other.total_degree()).bit_length()
        den1, ints1 = _scaled_ints(self, width)
        den2, ints2 = _scaled_ints(other, width)
        acc = {}
        get = acc.get
        for k1, c1 in ints1:
            for k2, c2 in ints2:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        return _from_ints(self.nvars, width, acc, den1 * den2)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise AlgebraError("negative power of a polynomial")
        result = Poly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self, i):
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                terms[tuple(e2)] = c * e[i]
        return Poly(self.nvars, terms)

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise AlgebraError("mixed variable counts")
            return other
        return Poly.const(self.nvars, other)

    # -- evaluation / substitution ---------------------------------------
    def eval(self, point):
        acc = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for i, k in enumerate(e):
                if k:
                    t *= point[i] ** k
            acc += t
        return acc

    def subs_polys(self, args):
        """Substitute polynomials for the variables."""
        if len(args) != self.nvars:
            raise AlgebraError("wrong number of substitution arguments")
        nv = args[0].nvars
        acc = Poly.zero(nv)
        powers = [{0: Poly.const(nv, 1)} for _ in args]

        def pw(i, k):
            cache = powers[i]
            if k not in cache:
                cache[k] = pw(i, k - 1) * args[i]
            return cache[k]

        for e, c in self.terms.items():
            t = Poly.const(nv, c)
            for i, k in enumerate(e):
                if k:
                    t = t * pw(i, k)
            acc = acc + t
        return acc

    def eval_hom(self, args, denom):
        """C^d * P(A/C, B/C, ...): substitute args[i]/denom, cleared.

        ``d`` is the total degree of self; valid for any polynomial.
        """
        d = self.total_degree()
        if d < 0:
            return Poly.zero(denom.nvars)
        nv = denom.nvars
        caches = [{0: Poly.const(nv, 1)} for _ in range(len(args) + 1)]
        allargs = list(args) + [denom]

        def pw(i, k):
            cache = caches[i]
            if k not in cache:
                cache[k] = pw(i, k - 1) * allargs[i]
            return cache[k]

        acc = Poly.zero(nv)
        for e, c in self.terms.items():
            t = Poly.const(nv, c)
            for i, k in enumerate(e):
                if k:
                    t = t * pw(i, k)
            t = t * pw(len(args), d - sum(e))
            acc = acc + t
        return acc

    # -- normalization ----------------------------------------------------
    def content(self):
        """Positive rational c with self/c integer and primitive."""
        if self.is_zero():
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = _int_gcd(num, c.numerator)
            den = den * c.denominator // _int_gcd(den, c.denominator)
        return Fraction(num, den)

    def unit_normal(self):
        """Primitive integer coefficients, positive graded-lex leading."""
        if self.is_zero():
            return self
        c = self.content()
        if self.leading_coeff() < 0:
            c = -c
        return self * (1 / c)

    def monomial_content(self):
        """Componentwise min exponents across all terms."""
        mins = None
        for e in self.terms:
            mins = e if mins is None else tuple(min(a, b) for a, b in zip(mins, e))
        return mins or (0,) * self.nvars

    def strip_monomial(self, exps):
        return Poly._of(self.nvars, {tuple(a - b for a, b in zip(e, exps)): c
                                     for e, c in self.terms.items()})

    # -- structural --------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return "Poly(%s)" % self.to_string()

    def to_string(self, names=None):
        if self.is_zero():
            return "0"
        names = names or VAR_NAMES[: self.nvars]
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            mon = "*".join(
                (names[i] if k == 1 else "%s^%d" % (names[i], k))
                for i, k in enumerate(e) if k
            )
            if mon:
                if c == 1:
                    term = mon
                elif c == -1:
                    term = "-" + mon
                else:
                    term = "%s*%s" % (_frac_str(c), mon)
            else:
                term = _frac_str(c)
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _frac_str(c):
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


# -- integer inner loops ---------------------------------------------------

def _pack(exps, width):
    """One int for an exponent tuple: the total degree, then each exponent
    in a field of ``width`` bits; every exponent must be below 2**width."""
    k = sum(exps)
    for a in exps:
        k = (k << width) | a
    return k


def _unpack(k, nvars, width):
    mask = (1 << width) - 1
    out = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        out[i] = k & mask
        k >>= width
    return tuple(out)


def _from_ints(nvars, width, acc, den):
    """The Poly with terms {packed exponents: integer / den}."""
    if den == 1:
        return Poly._of(nvars, {_unpack(k, nvars, width): Fraction(c)
                                for k, c in acc.items() if c})
    return Poly._of(nvars, {_unpack(k, nvars, width): Fraction(c, den)
                            for k, c in acc.items() if c})


def _scaled_ints(p, width):
    """(D, [(packed exponents, D*c)]) with D the lcm of p's denominators."""
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // _int_gcd(den, c.denominator)
    return den, [(_pack(e, width), c.numerator * (den // c.denominator))
                 for e, c in p.terms.items()]


# -- exact division and gcd ----------------------------------------------

def divexact(p, d):
    """Exact polynomial division p / d; raises if not exact."""
    if d.is_zero():
        raise AlgebraError("division by zero polynomial")
    if p.is_zero():
        return p
    nv = p.nvars
    deg = p.total_degree()
    if d.total_degree() > deg:
        raise AlgebraError("inexact polynomial division")
    # every exponent of the remainder and the quotient is at most deg p
    width = deg.bit_length()
    pden, pints = _scaled_ints(p, width)
    dden, dints = _scaled_ints(d, width)
    g = 0
    for _, c in dints:
        g = _int_gcd(g, c)
    # p/d = (dden / (g pden)) * P/D with P = pints and D = dints/g primitive
    lt_k, lt_c = max(dints)
    lt_e = _unpack(lt_k, nv, width)
    rest = [(k, c // g) for k, c in dints if k != lt_k]
    lt_c //= g
    r = dict(pints)
    heap = [-k for k in r]
    heapify(heap)
    out = {}
    while r:
        k = -heappop(heap)
        c = r.pop(k, 0)
        if not c:
            continue  # cancelled after it was queued
        qc, rem = divmod(c, lt_c)
        if rem or any(a < b for a, b in zip(_unpack(k, nv, width), lt_e)):
            raise AlgebraError("inexact polynomial division")
        qk = k - lt_k
        out[qk] = qc
        for k2, c2 in rest:
            k3 = qk + k2
            s = r.get(k3)
            if s is None:
                r[k3] = -qc * c2
                heappush(heap, -k3)
            else:
                s -= qc * c2
                if s:
                    r[k3] = s
                else:
                    del r[k3]
    return _from_ints(nv, width, {k: c * dden for k, c in out.items()}, g * pden)


def _uni_coeffs(p, k):
    """Coefficient list (low to high) of p viewed in variable k alone."""
    n = p.degree_in(k)
    out = [Fraction(0)] * (n + 1)
    for e, c in p.terms.items():
        out[e[k]] += c
    return out


def _list_gcd_q(a, b):
    """Euclid on univariate coefficient lists over Q; monic result."""
    a = _trim(a)
    b = _trim(b)
    while b:
        a, b = b, _trim(_list_rem(a, b))
    return a


def _trim(a):
    while a and not a[-1]:
        a = a[:-1]
    return a


def _list_rem(a, b):
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and a:
        if not a[-1]:
            a.pop()
            continue
        q = a[-1] / lb
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()
    return _trim(a)


def _from_uni(coeffs, k, nvars):
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            e = [0] * nvars
            e[k] = i
            terms[tuple(e)] = c
    return Poly(nvars, terms)


def _split_univar(p, k):
    """View p as univariate in variable k with Poly coefficients."""
    out = {}
    for e, c in p.terms.items():
        e2 = list(e)
        deg = e2[k]
        e2[k] = 0
        d = out.setdefault(deg, {})
        d[tuple(e2)] = d.get(tuple(e2), 0) + c
    return {deg: Poly(p.nvars, t) for deg, t in out.items()}


def _join_univar(parts, k):
    nvars = next(iter(parts.values())).nvars
    terms = {}
    for deg, q in parts.items():
        for e, c in q.terms.items():
            e2 = list(e)
            e2[k] += deg
            terms[tuple(e2)] = terms.get(tuple(e2), 0) + c
    return Poly(nvars, terms)


def poly_gcd(p, q):
    """GCD with primitive integer coefficients, positive grlex leading."""
    if p.is_zero():
        return q.unit_normal()
    if q.is_zero():
        return p.unit_normal()
    # pull out common monomial content cheaply
    mp = p.monomial_content()
    mq = q.monomial_content()
    common = tuple(min(a, b) for a, b in zip(mp, mq))
    p0 = p.strip_monomial(mp)
    q0 = q.strip_monomial(mq)
    g = _gcd_inner(p0, q0)
    if any(common):
        mono = Poly(p.nvars, {common: Fraction(1)})
        g = g * mono
    return g.unit_normal()


def _gcd_inner(p, q):
    used = p.used_vars() | q.used_vars()
    if not used:
        return Poly.const(p.nvars, 1)
    if len(used) == 1:
        k = used.pop()
        g = _list_gcd_q(_uni_coeffs(p, k), _uni_coeffs(q, k))
        return _from_uni(g, k, p.nvars) if g else Poly.zero(p.nvars)
    # main variable: the used var where min(deg_p, deg_q) is smallest
    k = min(used, key=lambda i: min(p.degree_in(i), q.degree_in(i)))
    pa = _split_univar(p, k)
    qa = _split_univar(q, k)
    cont_p = _dict_content(pa)
    cont_q = _dict_content(qa)
    cont_g = _gcd_inner(cont_p, cont_q)
    g = _prs_gcd(_primitive_parts(pa, cont_p), _primitive_parts(qa, cont_q), k)
    return divexact(_join_univar(g, k), _dict_content(g)) * cont_g if g else Poly.zero(p.nvars)


def _dict_content(parts):
    cont = None
    for c in parts.values():
        cont = c.unit_normal() if cont is None else _gcd_dispatch(cont, c)
        if cont.is_constant():
            break
    return cont if cont is not None else None


def _primitive_parts(parts, cont):
    """Parts divided by their content ``cont`` and then by the rational
    content left over, so that the coefficients are integers with no common
    factor and the pseudo-remainders built from them stay small."""
    num = 0
    den = 1
    out = {}
    for d, c in parts.items():
        c = divexact(c, cont)
        out[d] = c
        cc = c.content()
        num = _int_gcd(num, cc.numerator)
        den = den * cc.denominator // _int_gcd(den, cc.denominator)
    if num == den:
        return out
    scale = Fraction(den, num)
    return {d: c * scale for d, c in out.items()}


def _gcd_dispatch(a, b):
    mp = a.monomial_content()
    mq = b.monomial_content()
    common = tuple(min(x, y) for x, y in zip(mp, mq))
    g = _gcd_inner(a.strip_monomial(mp), b.strip_monomial(mq))
    if any(common):
        g = g * Poly(a.nvars, {common: Fraction(1)})
    return g.unit_normal()


def _prs_gcd(a, b, k):
    """Primitive-PRS gcd of primitive univariate-in-k dicts; primitive result."""
    if max(a) < max(b):
        a, b = b, a
    while True:
        r = _prem(a, b, k)
        if not r:
            cont = _dict_content(b)
            return {d: divexact(c, cont) for d, c in b.items()}
        if max(r) == 0:
            return {0: Poly.const(next(iter(b.values())).nvars, 1)}
        a, b = b, _primitive_parts(r, _dict_content(r))


def _prem(a, b, k):
    """Pseudo-remainder of univariate-in-k dicts with Poly coefficients."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        new = {}
        for e, c in r.items():
            if e != dr:
                _dict_add(new, e, c * lb)
        for e, c in b.items():
            if e != db:
                _dict_add(new, e + dr - db, -(c * lr))
        r = {e: c for e, c in new.items() if not c.is_zero()}
    return r


def _dict_add(d, e, c):
    if e in d:
        d[e] = d[e] + c
    else:
        d[e] = c


def poly_lcm(p, q):
    if p.is_zero() or q.is_zero():
        return Poly.zero(p.nvars)
    return divexact(p * q, poly_gcd(p, q)).unit_normal()


# -- rational functions ---------------------------------------------------

class RatFn:
    """Reduced rational function num/den over Q.

    Invariants: gcd(num, den) = 1; den has primitive integer coefficients
    with positive graded-lex leading coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        if isinstance(num, (int, Fraction)):
            raise TypeError("wrap scalars with RatFn.const")
        if den is None:
            den = Poly.const(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        if reduce:
            if num.is_zero():
                den = Poly.const(num.nvars, 1)
            else:
                g = poly_gcd(num, den)
                if not (g.is_constant() and g.constant_value() == 1):
                    num = divexact(num, g)
                    den = divexact(den, g)
            c = den.content()
            if den.leading_coeff() < 0:
                c = -c
            if c != 1:
                num = num * (1 / c)
                den = den * (1 / c)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------
    @classmethod
    def const(cls, c, nvars=2):
        return cls(Poly.const(nvars, c))

    @classmethod
    def var(cls, i, nvars=2):
        return cls(Poly.var(i, nvars))

    @property
    def nvars(self):
        return self.num.nvars

    # -- predicates ------------------------------------------------------
    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self):
        return self.den.is_constant()

    def as_poly(self):
        if not self.is_polynomial():
            raise AlgebraError("not a polynomial")
        return self.num * (1 / self.den.constant_value())

    # -- arithmetic -------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, RatFn):
            return other
        if isinstance(other, Poly):
            return RatFn(other)
        if isinstance(other, (int, Fraction)):
            return RatFn.const(other, self.nvars)
        raise TypeError(repr(other))

    def __add__(self, other):
        other = self._coerce(other)
        return RatFn(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            return RatFn(self.den, self.num) ** (-n)
        return RatFn(self.num ** n, self.den ** n)

    def derivative(self, i):
        num = self.num.derivative(i) * self.den - self.num * self.den.derivative(i)
        return RatFn(num, self.den * self.den)

    # -- evaluation / substitution ----------------------------------------
    def eval(self, point):
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError("pole at %r" % (point,))
        return self.num.eval(point) / d

    def subs(self, args):
        """Substitute RatFn arguments for the variables; fully reduced."""
        args = [a if isinstance(a, RatFn) else RatFn(a) for a in args]
        nv = args[0].nvars
        denoms = [a.den for a in args]
        prod = Poly.const(nv, 1)
        for d in denoms:
            prod = prod * d
        cleared = []
        for i, a in enumerate(args):
            t = a.num
            for j, d in enumerate(denoms):
                if j != i:
                    t = t * d
            cleared.append(t)
        nn = self.num.eval_hom(cleared, prod)
        dd = self.den.eval_hom(cleared, prod)
        if dd.is_zero():
            raise IdenticallySingular("substitution denominator vanishes")
        dN = self.num.total_degree()
        dD = self.den.total_degree()
        if dN > dD:
            dd = dd * prod ** (dN - dD)
        elif dD > dN:
            nn = nn * prod ** (dD - dN)
        return RatFn(nn, dd)

    # -- homogeneity -------------------------------------------------------
    def homogeneity_degree(self):
        """Degree d with f(t*x) = t^d f(x), or None if not homogeneous."""
        if self.is_zero():
            return 0
        if self.num.is_homogeneous() and self.den.is_homogeneous():
            return self.num.total_degree() - self.den.total_degree()
        return None

    # -- structural --------------------------------------------------------
    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "RatFn(%s)" % self.to_string()

    def to_string(self, names=None):
        ns = self.num.to_string(names)
        if self.den.is_constant() and self.den.constant_value() == 1:
            return ns
        ds = self.den.to_string(names)
        if len(self.num.terms) > 1:
            ns = "(%s)" % ns
        simple_den = (len(self.den.terms) == 1
                      and self.den.leading_coeff() == 1)
        if not simple_den:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def scale_num_monic(self):
        """Scalar multiple with monic numerator (denominator unchanged sign)."""
        if self.is_zero():
            return self
        c = self.num.leading_coeff()
        return RatFn(self.num * (1 / c), self.den, reduce=False)


class LinearMap2:
    """Invertible linear map (x, y) -> (a x + b y, c x + d y)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = _as_fraction(a)
        self.b = _as_fraction(b)
        self.c = _as_fraction(c)
        self.d = _as_fraction(d)
        if self.det() == 0:
            raise AlgebraError("singular linear map")

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def swap(cls):
        return cls(0, 1, 1, 0)

    def det(self):
        return self.a * self.d - self.b * self.c

    def inverse(self):
        dt = self.det()
        return LinearMap2(self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)

    def compose(self, other):
        """self after other (matrix product self * other)."""
        return LinearMap2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply_point(self, x, y):
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def coord_polys(self, nvars=2):
        x = Poly.var(0, nvars)
        y = Poly.var(1, nvars)
        return (x * self.a + y * self.b, x * self.c + y * self.d)

    def coord_ratfns(self, nvars=2):
        p1, p2 = self.coord_polys(nvars)
        return (RatFn(p1), RatFn(p2))

    def is_identity(self):
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def scalar_multiple_of_identity(self):
        """Return s if self == s*id, else None."""
        if self.b == 0 and self.c == 0 and self.a == self.d:
            return self.a
        return None

    def __mul__(self, s):
        s = _as_fraction(s)
        return LinearMap2(self.a * s, self.b * s, self.c * s, self.d * s)

    def __eq__(self, other):
        if not isinstance(other, LinearMap2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "LinearMap2(%s, %s, %s, %s)" % (self.a, self.b, self.c, self.d)


# -- rational linear factorization over Q ---------------------------------

def factor_list_q(coeffs):
    """Irreducible factors over Q of the univariate polynomial with
    coefficients ``coeffs`` (low to high), by sympy's ``factor_list``.

    Returns [(monic factor coefficients low to high, multiplicity)].
    """
    import sympy

    xs = sympy.symbols("x")
    spoly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                        for c in reversed(coeffs)], xs, domain="QQ")
    _, factors = spoly.factor_list()
    out = []
    for fac, mult in factors:
        monic = [Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
                 for c in reversed(fac.monic().all_coeffs())]
        out.append((monic, int(mult)))
    return out


def linear_factors_q(p):
    """Factor out rational projective linear factors of a homogeneous BiPoly.

    Returns (c, factors, remainder): p = c * prod(f**m) * remainder, with each
    factor a primitive linear form with positive grlex leading coefficient and
    the remainder free of rational projective roots.  Factors are sorted by
    their (x, y) coefficients.
    """
    if p.is_zero() or not p.is_homogeneous():
        raise AlgebraError("expected a nonzero homogeneous polynomial")
    nv = p.nvars
    y_pow = min(e[1] for e in p.terms)
    work = p.strip_monomial((0, y_pow))
    factors = []
    if y_pow:
        factors.append((Poly.var(1, nv), y_pow))
    # dehomogenize at y=1: roots t = x/y
    coeffs = [Fraction(0)] * (work.total_degree() + 1)
    for e, c in work.terms.items():
        coeffs[e[0]] += c
    for fac, m in factor_list_q(coeffs):
        if len(fac) != 2:
            continue
        # root t = a/b of t + fac[0] -> factor b*x - a*y
        a, b = -fac[0].numerator, fac[0].denominator
        f = Poly(nv, {_ex(nv, 0): Fraction(b), _ex(nv, 1): Fraction(-a)})
        factors.append((f, m))
    rem = work
    for f, m in factors:
        if f == Poly.var(1, nv):
            continue  # the y-power was stripped, not divided
        for _ in range(m):
            rem = divexact(rem, f)
    if rem.is_constant():
        factors.sort(key=lambda fm: tuple(sorted(fm[0].terms.items())))
        return rem.constant_value(), factors, Poly.const(nv, 1)
    scale = rem.content() if rem.leading_coeff() > 0 else -rem.content()
    rem = rem * (1 / scale)
    factors.sort(key=lambda fm: tuple(sorted(fm[0].terms.items())))
    return scale, factors, rem


def _ex(nvars, i):
    e = [0] * nvars
    e[i] = 1
    return tuple(e)


# -- real projective root counting ----------------------------------------

def _sturm_chain(coeffs):
    chain = [_trim([Fraction(c) for c in coeffs])]
    # derivative: coefficient i of f' is (i+1)*a_{i+1}
    f = chain[0]
    d = _trim([f[i] * i for i in range(1, len(f))])
    if d:
        chain.append(d)
    while len(chain) >= 2 and len(chain[-1]) > 0:
        r = _list_rem(chain[-2], chain[-1])
        r = [-c for c in r]
        if not r:
            break
        chain.append(r)
    return chain


def _sign_variations_at_inf(chain, positive):
    signs = []
    for f in chain:
        lc = f[-1]
        deg = len(f) - 1
        s = lc if positive or deg % 2 == 0 else -lc
        signs.append(1 if s > 0 else -1)
    var = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            var += 1
    return var


def count_real_roots_univariate(coeffs):
    """Distinct real roots of a squarefree univariate polynomial over Q."""
    coeffs = _trim([Fraction(c) for c in coeffs])
    if len(coeffs) <= 1:
        return 0
    chain = _sturm_chain(coeffs)
    return _sign_variations_at_inf(chain, False) - _sign_variations_at_inf(chain, True)


def _squarefree_decomposition(coeffs):
    """Yun's algorithm: list of (factor coeffs, multiplicity)."""
    f = _trim([Fraction(c) for c in coeffs])
    if len(f) <= 1:
        return []
    df = _trim([f[i] * i for i in range(1, len(f))])
    a = _list_gcd_q(f, df)
    if len(a) <= 1:
        return [(f, 1)]
    out = []
    b = _list_div(f, a)
    c = _list_div(df, a)
    d = _list_sub(c, _deriv(b))
    i = 1
    while len(b) > 1:
        a = _list_gcd_q(b, d)
        if len(a) > 1:
            out.append((a, i))
        b = _list_div(b, a)
        c = _list_div(d, a)
        d = _list_sub(c, _deriv(b))
        i += 1
    return out


def _deriv(f):
    return _trim([f[i] * i for i in range(1, len(f))])


def _list_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _list_div(a, b):
    """Exact division of univariate coefficient lists."""
    a = list(a)
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    lb = b[-1]
    while len(a) >= len(b) and _trim(a):
        a = _trim(a)
        if len(a) < len(b):
            break
        q = a[-1] / lb
        shift = len(a) - len(b)
        out[shift] = q
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()
    return _trim(out) or [Fraction(0)]


def count_real_projective_roots(p):
    """Real projective roots of a homogeneous BiPoly, with multiplicity.

    Counts real root directions of the dehomogenized polynomial plus the
    direction at infinity carried by the power of y dividing p.
    """
    if p.is_zero() or not p.is_homogeneous():
        raise AlgebraError("expected a nonzero homogeneous polynomial")
    y_pow = min(e[1] for e in p.terms)
    work = p.strip_monomial((0, y_pow))
    coeffs = [Fraction(0)] * (work.total_degree() + 1)
    for e, c in work.terms.items():
        coeffs[e[0]] += c
    total = y_pow
    for fac, mult in _squarefree_decomposition(coeffs):
        total += mult * count_real_roots_univariate(fac)
    return total
