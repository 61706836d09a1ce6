"""Exact sparse polynomial and rational-function arithmetic over Q.

A polynomial is stored as integer numerators over one denominator: ``ints``
maps packed monomial keys to nonzero ints and ``den`` is a positive int
coprime to all of them, so equality and hashing are structural.  A
polynomial is in x, y or in x alone.  A key is one int: for x^a y^b the
total degree a + b in the top field and a in a field of ``_W`` bits below
it, for x^a in x alone just a.  Comparing keys therefore compares
monomials in graded lexicographic order with x > y, the canonical order,
and adding two keys multiplies the monomials.  A total degree above
``2**_W - 1`` would spill out of its field, so the operations that can
raise a degree (the constructor, products and substitution) check it and
raise ``CapExceeded``.  Exponent tuples appear only at the edges, decoded
by shifts and masks: the ``Poly(nvars, terms)`` constructor, the read-only
``Poly.terms`` view ({exponent tuple: Fraction}, built afresh on each read),
printing, evaluation and the grouping of the Horner scheme below.

Evaluation at a point of rationals (``Poly.eval``, ``RatFn.eval``) sums
integers over one denominator and builds one Fraction per call.

Rational functions are kept fully reduced, with the denominator normalized
to primitive integer coefficients and a positive graded-lex leading
coefficient, so equality is structural.  Reduction divides by ``poly_gcd``,
whose result is put through ``unit_normal`` whatever its route.

A binary form of degree k is also one list of k + 1 integers, c[a] the
coefficient of x^a y^(k - a), and a polynomial in x alone its coefficient
list.  The list-form section works on such lists: conversions, products,
derivatives, exact division, homogeneous evaluation and ``_form_gcd``, a
heuristic gcd (GCDHEU).  ``poly_gcd`` takes it for a pair in x alone or a
pair of forms; the Lie recurrence, the level and the ODE solver run on the
lists.  Any other pair takes ``_heu_gcd``, GCDHEU in y: the images at a
point y = xi are lists in x, and their ``_form_gcd`` is read back into keys
of x, y by balanced xi-adic digits, with no recursion.  Both run until
their division check accepts, which they are shown to do, so no gcd has a
fallback.  Factorization over Q also runs on the lists: Yun's square-free
split (``_sqf_list``, on ``_form_gcd``) and rational roots by p-adic
lifting (``_rational_roots``) give ``linear_factors_q`` and
``factor_list_q``, which leaves to sympy's Zassenhaus only a square-free
cofactor of degree 4 or more without rational roots.  Real projective roots
are counted by Sturm chains on the parts of ``_sqf_list``
(``_sturm_count``).  So sympy is imported only by ``factor_list_q``, on
such a cofactor, and by ``largest_prime_factor``.

Products, sums and exact division run on the stored keys and numerators and
multiply or take the lcm of the denominators.  Every product of two term
lists runs in ``_mul_ints``, which can add into a dict it is given: so
``poly_dot``, a sum of products p * q, puts every product over the lcm of
the products' denominators and accumulates all of them into one dict, with
one reduction at the end.  Exact division divides by the primitive part of
the divisor, so every quotient coefficient is an integer (Gauss's lemma),
and takes the leading term of the remainder from a heap.

Substitution (``Poly.eval_hom``, and through it ``subs_polys`` and
``RatFn.subs``) evaluates C^d * P(A/C, B/C, ...) by one Horner scheme on
the stored keys, with the arguments and C over the lcm of their
denominators and one cache of their powers built by squaring.
``RatFn.subs_pair`` returns the substituted pair unreduced.  A caller that
knows common factors of a pair or a triple over one denominator divides
them out by ``_divide_known`` instead of taking a gcd of the whole.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import groupby, zip_longest
from math import gcd as _int_gcd, isqrt, lcm

VAR_NAMES = ("x", "y")

# bits per field of a monomial key; the largest total degree a key holds
_W = 32
_MAX_DEG = (1 << _W) - 1


class AlgebraError(Exception):
    pass


class IdenticallySingular(AlgebraError):
    """A substitution produced an identically-zero denominator."""


class VerificationFailed(AlgebraError):
    """A certificate check failed; must not happen on genuine flows."""


class CapExceeded(AlgebraError):
    """A degree exceeds a fixed cap: the total degree of a polynomial
    (``2**_W - 1``, the largest a monomial key holds), or the numerator
    degree bound of ``odesolve.rational_solutions``."""


class NeedsRationalRoot(AlgebraError):
    """A required root is irrational; the computation cannot stay in Q."""

    def __init__(self, blocking_poly, message="irrational root required"):
        super().__init__(message)
        self.blocking_poly = blocking_poly


def _rational(c):
    """``c`` itself, if it is an int or a Fraction."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError("expected int or Fraction, got %r" % (c,))
    return c


def _check_degree(d):
    """Raise CapExceeded unless a key can hold total degree ``d``."""
    if d > _MAX_DEG:
        raise CapExceeded("degree cap exceeded: total degree %d above %d"
                          % (d, _MAX_DEG))


def _check_nvars(nvars):
    """Raise AlgebraError unless ``nvars`` is 1 (x alone) or 2 (x, y)."""
    if nvars != 2 and nvars != 1:
        raise AlgebraError("a polynomial is in x alone or in x, y, not in "
                           "%r variables" % (nvars,))


def _key(exps):
    """The monomial key of an exponent tuple (see the module docstring)."""
    if min(exps) < 0:
        raise AlgebraError("negative exponent in %r" % (exps,))
    k = sum(exps)
    _check_degree(k)
    return k << _W | exps[0] if len(exps) == 2 else k


def _exps(k, nvars):
    """The exponent tuple of the monomial key ``k``."""
    if nvars == 1:
        return (k,)
    a = k & _MAX_DEG
    return a, (k >> _W) - a


class Poly:
    """Sparse polynomial over Q in x, y (``nvars`` 2) or x alone (1).

    Stored as ``ints`` / ``den``: ``ints`` maps monomial keys to nonzero
    ints and ``den`` is a positive int with gcd(den, *ints.values()) = 1,
    so equal polynomials have equal fields.  The key of x^a y^b is
    (a + b) << _W | a, and of x^a in x alone it is a: the total degree is
    ``k >> _W * (nvars - 1)``.  The constructors raise AlgebraError for
    any other ``nvars``.
    """

    __slots__ = ("nvars", "ints", "den")

    def __init__(self, nvars, terms=None):
        _check_nvars(nvars)
        terms = {tuple(e): _rational(c) for e, c in (terms or {}).items()}
        if any(len(e) != nvars for e in terms):
            raise AlgebraError("exponent tuple length differs from %d" % nvars)
        # over the lcm of reduced denominators the numerators are coprime
        den = lcm(*(c.denominator for c in terms.values()))
        self.nvars = nvars
        self.ints = {_key(e): c.numerator * (den // c.denominator)
                     for e, c in terms.items() if c}
        self.den = den

    # -- constructors ---------------------------------------------------
    @classmethod
    def _of(cls, nvars, ints, den=1, reduce=True):
        """The Poly ints / den, for ``ints`` mapping monomial keys to
        nonzero ints and a positive int ``den``, reduced if ``reduce``."""
        if reduce and den != 1:
            g = _int_gcd(den, *ints.values())
            if g != 1:
                ints = {k: c // g for k, c in ints.items()}
                den //= g
        p = object.__new__(cls)
        p.nvars, p.ints, p.den = nvars, ints, den
        return p

    @classmethod
    def zero(cls, nvars):
        _check_nvars(nvars)
        return cls._of(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        _check_nvars(nvars)
        c = _rational(c)
        return cls._of(nvars, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def var(cls, i, nvars):
        _check_nvars(nvars)
        if i not in range(nvars):
            raise AlgebraError("no variable %r among %d" % (i, nvars))
        # total degree 1, and an x field of 1 for x
        return cls._of(nvars, {1 << _W * (nvars - 1) | (i == 0): 1})

    # -- predicates / views ---------------------------------------------
    @property
    def terms(self):
        """{exponent tuple: Fraction coefficient}, built afresh on each read."""
        den, nv = self.den, self.nvars
        return {_exps(k, nv): Fraction(c, den) for k, c in self.ints.items()}

    def is_zero(self):
        return not self.ints

    def is_constant(self):
        # the constant monomial is the only key 0
        return not any(self.ints)

    def constant_value(self):
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise AlgebraError("not a constant polynomial")
        return Fraction(self.ints[0], self.den)

    def total_degree(self):
        if self.is_zero():
            return -1
        return max(self.ints) >> _W * (self.nvars - 1)

    def min_degree(self):
        if self.is_zero():
            return -1
        return min(self.ints) >> _W * (self.nvars - 1)

    def leading_term(self):
        """Graded-lex leading (exponents, coefficient)."""
        k = max(self.ints)
        return _exps(k, self.nvars), Fraction(self.ints[k], self.den)

    def leading_coeff(self):
        return Fraction(self.ints[max(self.ints)], self.den)

    def is_homogeneous(self):
        return self.is_zero() or self.total_degree() == self.min_degree()

    def homogeneous_parts(self):
        """Map total degree -> homogeneous Poly part."""
        shift = _W * (self.nvars - 1)
        parts = {}
        for k, c in self.ints.items():
            parts.setdefault(k >> shift, {})[k] = c
        return {d: Poly._of(self.nvars, t, self.den)
                for d, t in sorted(parts.items())}

    def _scalar(self):
        """(numerator, denominator) of a constant polynomial, None for any
        other."""
        ints = self.ints
        if not ints:
            return 0, 1
        if len(ints) == 1 and 0 in ints:
            return ints[0], self.den
        return None

    # -- arithmetic ------------------------------------------------------
    # A Poly is never changed after construction, so an operation whose
    # result equals an operand may return that operand.
    def __add__(self, other):
        other = self._coerce(other)
        if not other.ints:
            return self
        if not self.ints:
            return other
        den = lcm(self.den, other.den)
        s1, s2 = den // self.den, den // other.den
        ints = {k: c * s1 for k, c in self.ints.items()}
        for k, c in other.ints.items():
            s = ints.get(k, 0) + c * s2
            if s:
                ints[k] = s
            else:
                ints.pop(k, None)
        return Poly._of(self.nvars, ints, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.nvars, {k: -c for k, c in self.ints.items()},
                        self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = other.numerator, other.denominator
        else:
            other = self._coerce(other)
            c0 = other._scalar()
            if c0 is None:
                c0 = self._scalar()
                if c0 is not None:
                    self, other = other, self
        if c0 is not None:
            n0, d0 = c0
            if n0 == d0:
                return self
            if not n0:
                return Poly.zero(self.nvars)
            return Poly._of(self.nvars, {k: c * n0 for k, c in self.ints.items()},
                            self.den * d0)
        _check_degree(self.total_degree() + other.total_degree())
        return Poly._of(self.nvars, _mul_ints(self.ints.items(), other.ints.items()),
                        self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise AlgebraError("negative power of a polynomial")
        if len(self.ints) == 1:
            # keys add under products, so a term's power is one term
            (k, c), = self.ints.items()
            _check_degree(self.total_degree() * n)
            return Poly._of(self.nvars, {k * n: c ** n}, self.den ** n)
        result = Poly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def euler(self, s):
        """x p_x + y p_y + s p: by Euler's identity each homogeneous
        part of degree j times j + s, with no product."""
        shift = _W * (self.nvars - 1)
        return Poly._of(self.nvars, {k: c * e for k, c in self.ints.items()
                                     if (e := (k >> shift) + s)}, self.den)

    def derivative(self, i):
        # a term's exponent of the variable, read from its field, becomes
        # its factor; the total degree falls by one, and for x its field too
        if self.nvars == 1:
            ints = {k - 1: c * k for k, c in self.ints.items() if k}
        elif i == 0:
            step = (1 << _W) + 1
            ints = {k - step: c * e for k, c in self.ints.items()
                    if (e := k & _MAX_DEG)}
        else:
            step = 1 << _W
            ints = {k - step: c * e for k, c in self.ints.items()
                    if (e := (k >> _W) - (k & _MAX_DEG))}
        return Poly._of(self.nvars, ints, self.den)

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise AlgebraError("mixed variable counts")
            return other
        return Poly.const(self.nvars, other)

    # -- evaluation / substitution ---------------------------------------
    def eval(self, point):
        """The value at a point of rationals, one Fraction built from the
        integer sum of ``_eval_sums``."""
        (s,), scale = _eval_sums((self,), point)
        return Fraction(s, self.den * scale)

    def subs_polys(self, args):
        """Substitute polynomials for the variables."""
        if len(args) != self.nvars:
            raise AlgebraError("wrong number of substitution arguments")
        return self.eval_hom(args, Poly.const(args[0].nvars, 1))

    def eval_hom(self, args, denom):
        """C^d * P(A/C, B/C, ...): substitute args[i]/denom, cleared.

        ``d`` is the total degree of self; valid for any polynomial.  With
        P_s the homogeneous part of degree s, this is the sum of C^(d - s) *
        P_s(A, B, ...), one Horner scheme (``_horner``) in C, A, B, ...:
        the outer level joins the parts from the lowest up, multiplying the
        sum so far by C raised to the gap to the next part, and the inner
        levels fold each part variable by variable.
        """
        nv = denom.nvars
        d = self.total_degree()
        if d < 0:
            return Poly.zero(nv)
        allargs = [denom] + list(args)
        # every partial sum has total degree at most d * max degree
        _check_degree(d * max(a.total_degree() for a in allargs))
        # over L = lcm of the arguments' denominators, every term of P has
        # denominator P.den * L^d
        L = lcm(*(a.den for a in allargs))
        ints = [[(k, c * (L // a.den)) for k, c in a.ints.items()]
                for a in allargs]
        cache = {}

        def power(i, g):
            # allargs[i]^g by squaring, cached per (i, g) within this call
            if g == 1:
                return ints[i]
            t = cache.get((i, g))
            if t is None:
                h = power(i, g >> 1)
                t = _mul_ints(h, h)
                if g & 1:
                    t = _mul_ints(t.items(), ints[i])
                t = cache[i, g] = list(t.items())
            return t

        # a term of degree s takes C^(d - s): the exponent of allargs[0]
        shift = _W * (self.nvars - 1)
        items = sorted((((d - (k >> shift),) + _exps(k, self.nvars), c)
                        for k, c in self.ints.items()), reverse=True)
        acc = _horner(items, 0, len(allargs), power)
        return Poly._of(nv, {k: c for k, c in acc.items() if c},
                        self.den * L ** d)

    # -- normalization ----------------------------------------------------
    def content(self):
        """Positive rational c with self/c integer and primitive."""
        if self.is_zero():
            return Fraction(1)
        return Fraction(_int_gcd(*self.ints.values()), self.den)

    def unit_normal(self):
        """Primitive integer coefficients, positive graded-lex leading."""
        if self.is_zero():
            return self
        g = _int_gcd(*self.ints.values())
        if self.ints[max(self.ints)] < 0:
            g = -g
        if g == 1 and self.den == 1:
            return self
        return Poly._of(self.nvars, {k: c // g for k, c in self.ints.items()})

    # -- structural --------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nvars == other.nvars and self.den == other.den
                and self.ints == other.ints)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.ints.items())))

    def __repr__(self):
        return "Poly(%s)" % self.to_string()

    def to_string(self, names=None):
        if self.is_zero():
            return "0"
        names = names or VAR_NAMES[: self.nvars]
        parts = []
        for k in sorted(self.ints, reverse=True):
            c = Fraction(self.ints[k], self.den)
            mon = "*".join(
                (names[i] if e == 1 else "%s^%d" % (names[i], e))
                for i, e in enumerate(_exps(k, self.nvars)) if e
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

def _mul_ints(terms1, terms2, acc=None):
    """{key: nonzero int} product of two iterables of (key, int) pairs,
    plus ``acc`` when given: a {key: int} dict that the sum is built in, so
    the caller uses the result, not ``acc``."""
    if acc is None:
        acc = {}
    get = acc.get
    for k1, c1 in terms1:
        for k2, c2 in terms2:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    if 0 in acc.values():
        return {k: c for k, c in acc.items() if c}
    return acc


def poly_dot(pairs):
    """The sum of p * q over ``pairs`` of Polys, in one accumulation: every
    product goes over the lcm of the products' denominators and into one
    dict through ``_mul_ints``."""
    nv = pairs[0][0].nvars
    shift = _W * (nv - 1)
    den, work = 1, []
    for p, q in pairs:
        if p.nvars != nv or q.nvars != nv:
            raise AlgebraError("mixed variable counts")
        if p.ints and q.ints:
            _check_degree((max(p.ints) >> shift) + (max(q.ints) >> shift))
            den = lcm(den, p.den * q.den)
            work.append((p, q) if len(p.ints) <= len(q.ints) else (q, p))
    acc = {}
    for p, q in work:
        s = den // (p.den * q.den)
        terms = (p.ints.items() if s == 1
                 else [(k, c * s) for k, c in p.ints.items()])
        acc = _mul_ints(terms, q.ints.items(), acc)
    return Poly._of(nv, acc, den)


def _horner(items, i, nargs, power):
    """Sum of n * args[i]^e[i] * ... * args[nargs - 1]^e[nargs - 1] over
    ``items``.

    ``items`` are (exponent tuple e, int n) in descending order and agree on
    e[:i]; ``power(i, g)`` gives the (key, int) terms of args[i]^g.
    Grouping by e[i], the sum is sum_j args[i]^j * H_j with H_j the sum over
    the group, and Horner's rule multiplies by args[i]^g once per gap g
    between successive j.
    """
    if i == nargs:
        (_, n), = items
        return {0: n}
    acc = None
    for j, group in groupby(items, key=lambda t: t[0][i]):
        part = _horner(list(group), i + 1, nargs, power)
        if acc is None:
            acc = part
        else:
            acc = _mul_ints(acc.items(), power(i, prev - j))
            get = acc.get
            for key, c in part.items():
                acc[key] = get(key, 0) + c
        prev = j
    if prev:
        acc = _mul_ints(acc.items(), power(i, prev))
    return acc


def _eval_sums(polys, point):
    """([S_p for p in polys], B) with p(point) = S_p / (p.den * B), in ints.

    Coordinate i is a_i/b_i and top_i is the largest exponent of variable i
    in any of ``polys``; B is the product of the b_i^top_i and S_p the sum
    of the terms c * prod a_i^e_i * b_i^(top_i - e_i).  The power table of
    a variable walks its sorted distinct exponents and multiplies by a_i
    (and b_i) raised to each gap, so a sparse x^(2^20) costs one ``pow``;
    b_i = 1 skips the b-powers.  A point is ``nvars`` ints or Fractions:
    another length raises AlgebraError, another type TypeError."""
    nv = polys[0].nvars
    if len(point) != nv:
        raise AlgebraError("wrong number of coordinates in the point")
    for c in point:
        _rational(c)
    exps = [[_exps(k, nv) for k in p.ints] for p in polys]
    tables = []
    scale = 1
    for i in range(nv):
        es = sorted({e[i] for ex in exps for e in ex})
        if not es:
            return [0] * len(polys), 1  # every poly is zero
        a, b = point[i].numerator, point[i].denominator
        table = {}
        t, prev = 1, 0
        for e in es:
            t *= a ** (e - prev)
            table[e] = t
            prev = e
        if b != 1:
            t = 1
            for e in reversed(es):
                t *= b ** (prev - e)
                table[e] *= t
                prev = e
            scale *= t * b ** prev
        tables.append(table)
    sums = []
    for ex, p in zip(exps, polys):
        s = 0
        for e, c in zip(ex, p.ints.values()):
            for table, ei in zip(tables, e):
                c *= table[ei]
            s += c
        sums.append(s)
    return sums, scale


# -- exact division and gcd ----------------------------------------------

def divexact(p, d):
    """Exact polynomial division p / d; raises if not exact."""
    q = _quotient(p, d)
    if q is None:
        raise AlgebraError("inexact polynomial division")
    return q


def _quotient(p, d):
    """p / d when d divides p, else None."""
    if d.is_zero():
        raise AlgebraError("division by zero polynomial")
    if p.is_zero():
        return p
    nv = p.nvars
    if d.total_degree() > p.total_degree():
        return None
    g = _int_gcd(*d.ints.values())
    # p/d = (d.den / (g p.den)) * P/D with P = p.ints, D = d.ints/g primitive
    lt_k = max(d.ints)
    lt_c = d.ints[lt_k] // g
    lt_e = _exps(lt_k, nv)
    rest = [(k, c // g) for k, c in d.ints.items() if k != lt_k]
    r = dict(p.ints)
    heap = [-k for k in r]
    heapify(heap)
    out = {}
    while r:
        k = -heappop(heap)
        c = r.pop(k, 0)
        if not c:
            continue  # cancelled after it was queued
        qc, rem = divmod(c, lt_c)
        if rem or any(a < b for a, b in zip(_exps(k, nv), lt_e)):
            return None
        qk = k - lt_k
        out[qk] = qc * d.den
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
    return Poly._of(nv, out, g * p.den)


def _divide_known(polys, factors):
    """``polys`` divided by each nonconstant factor in turn while every
    quotient is exact, the last (a nonzero denominator) tried first."""
    for g in factors:
        while not g.is_constant():
            qs = []
            for p in reversed(polys):
                if (q := _quotient(p, g)) is None:
                    break
                qs.append(q)
            if len(qs) < len(polys):
                break
            polys = qs[::-1]
    return polys


# -- binary forms as integer lists (see the module docstring) ---------------
# Zero is [], leading zeros are a power of x and trailing zeros one of y.

def _form_list(p):
    """(c, den) with c the list of p.den * p, for p a form in x, y or any
    polynomial in x alone; for any other p in x, y, the coefficient list in
    x of p.den * p(x, 1), the terms that meet at y = 1 summed."""
    c = [0] * (p.total_degree() + 1)
    for k, v in p.ints.items():
        c[k & _MAX_DEG] += v
    return c, p.den


def _form_lists(*polys):
    """([c, ...], L): the lists of L p, L the lcm of the p.den."""
    pairs = [_form_list(p) for p in polys]
    L = lcm(*(den for _, den in pairs))
    return [[v * (L // den) for v in c] for c, den in pairs], L


def _list_poly(c, den=1, nvars=2, reduce=True):
    """The Poly of the list c over den: a form in x, y, or in x alone."""
    top = (len(c) - 1) << _W if nvars == 2 else 0
    return Poly._of(nvars, {top | a: v for a, v in enumerate(c) if v}, den,
                    reduce)


def _trim(c):
    """The list c with its zero top entries popped."""
    while c and not c[-1]:
        c.pop()
    return c


def _split(c):
    """(i, core, j) with c = [0]*i + core + [0]*j for a nonzero list c:
    the form is x^i y^j times the form of core."""
    i = next(a for a, v in enumerate(c) if v)
    j = next(a for a, v in enumerate(reversed(c)) if v)
    return i, c[i:len(c) - j], j


def _ladd(a, b, s=1):
    """The list of a + s*b, for forms of one degree or zero."""
    return [u + s * v for u, v in zip_longest(a, b, fillvalue=0)]


def _lmul(a, b):
    """The list of the product a*b, by convolution."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, v in enumerate(b):
        if v:
            for i, u in enumerate(a, j):
                out[i] += u * v
    return out


def _lderive(c, P, Q):
    """The list of c_x P + c_y Q, for forms c, P and Q, in one pass over c:
    for c of degree k, entry a - 1 + t gains c_a (a P_t + (k - a) Q_(t-1)),
    with P_t = 0 past the end of P and Q_(-1) = 0.  The list is as long as
    the sum of the two products as lists, zeros included: [] for a constant
    c or for P = Q = []."""
    k = len(c) - 1
    if k < 1 or not (P or Q):
        return []
    pairs = list(zip_longest(P + [0], [0] + Q, fillvalue=0))
    # out[i] holds entry i - 1; its first and last entries stay 0
    out = [0] * (k + len(pairs))
    for a, v in enumerate(c):
        if v:
            u, w, i = a * v, (k - a) * v, a
            for p, q in pairs:
                out[i] += u * p + w * q
                i += 1
    return out[1:-1]


def _ldiff(c):
    """The list of dc/dx, for a list c in x alone."""
    return [a * v for a, v in enumerate(c)][1:]


def _ldiv(f, g):
    """The list of f / g when the nonzero g divides f with an integer
    quotient, else None; long division from the top after cancelling the
    power of y of g."""
    while not g[-1]:
        if f[-1]:
            return None
        f, g = f[:-1], g[:-1]
    n, lead = len(g) - 1, g[-1]
    r = list(f)
    q = [0] * (len(f) - n)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + n], lead)
        if rem:
            return None
        if c:
            q[i] = c
            for j in range(n):
                r[i + j] -= c * g[j]
    return q if len(f) > n and not any(r[:n]) else None


def _multiplicity(Q, pi):
    """(m, Q / pi^m) for the largest m with pi^m dividing Q != 0."""
    m = 0
    while (q := _ldiv(Q, pi)) is not None:
        Q, m = q, m + 1
    return m, Q


def _prem(f, g):
    """s^k (f rem g) for integer lists, s = |lc g| and k = max(0, len(f) -
    len(g) + 1): each step takes s r - sign(lc g) r_top x^(deg r - deg g) g;
    without trailing zeros."""
    r, n = list(f), len(g) - 1
    s, sign = (g[-1], 1) if g[-1] > 0 else (-g[-1], -1)
    while len(r) > n:
        c = sign * r.pop()
        r = [s * v for v in r]
        for j, v in enumerate(g[:-1], len(r) - n):
            r[j] -= c * v
    return _trim(r)


def _content(c):
    """The content of the nonzero list c, with the sign of its last nonzero
    entry."""
    g = _int_gcd(*c)
    return g if next(v for v in reversed(c) if v) > 0 else -g


def _primitive(c):
    """c over ``_content(c)``."""
    g = _content(c)
    return c if g == 1 else [v // g for v in c]


def _eval_at(c, xi):
    """The value of the list c at the integer xi, by Horner's rule."""
    v = 0
    for a in reversed(c):
        v = v * xi + a
    return v


def _form_value(p, a, b):
    """(F, k) for a form p of degree k in x, y (k = -1 for zero), F the
    value of p.den * p at the integers (a, b), the sum of the c_i a^i
    b^(k - i).  One homogeneous Horner pass from the top power of x down:
    over the list of p when more than a quarter of its k + 1 entries are
    nonzero, else over its terms, a gap of g powers costing a^g and b^g."""
    ints = p.ints
    if not ints:
        return 0, -1
    k = next(iter(ints)) >> _W
    v, t = 0, 1
    if 4 * len(ints) > k:
        c = [0] * (k + 1)
        for key, u in ints.items():
            c[key & _MAX_DEG] = u
        for u in reversed(c):
            v, t = v * a + u * t, t * b
        return v, k
    i = k
    for key, u in sorted(ints.items(), reverse=True):
        g = i - (key & _MAX_DEG)
        if g == 1:
            v, t = v * a + u * t * b, t * b
        elif g:
            bg = b ** g
            v, t = v * a ** g + u * t * bg, t * bg
        else:
            v = u
        i -= g
    return (v * a ** i if i else v), k


def _heu_points(m):
    """The evaluation points of GCDHEU (Char, Geddes and Gonnet) for
    primitive inputs whose smaller max norm is m: from 2 m + 29 up without
    end, growing as in sympy's ``dup_zz_heu_gcd``."""
    xi = 2 * m + 29
    while True:
        yield xi
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011


def _balanced_digits(h, xi):
    """The balanced xi-adic digits of the integer h, lowest first: h = sum
    d_i xi^i with -xi/2 < d_i <= xi/2."""
    digits = []
    while h:
        d = h % xi
        if d > xi >> 1:
            d -= xi
        digits.append(d)
        h = (h - d) // xi
    return digits


def _form_gcd(f, g):
    """The gcd of two nonzero forms as lists, primitive with a positive
    leading entry: x^min(i, k) y^min(j, l) gcd(F, G) for x^i y^j F and
    x^k y^l G.  GCDHEU takes F and G primitive: at each point xi of
    ``_heu_points``, the primitive part of the balanced xi-adic digits of
    gcd(F(xi), G(xi)) is gcd(F, G) if it divides both (the points start
    above twice the smaller max norm, which makes this so).  It ends: with
    F = H A and G = H B, gcd(A(xi), B(xi)) divides the resultant of A and
    B, so gcd(F(xi), G(xi)) is H(xi) times an integer c of a finite set,
    and once xi > 2 |c| |H| for all of them the digits are those of c H."""
    i, f, j = _split(f)
    k, g, l = _split(g)
    h = [1]
    if len(f) > 1 and len(g) > 1:
        f, g = _primitive(f), _primitive(g)
        for xi in _heu_points(min(max(map(abs, f)), max(map(abs, g)))):
            ff, gg = _eval_at(f, xi), _eval_at(g, xi)
            if ff and gg:
                h = _primitive(_balanced_digits(_int_gcd(ff, gg), xi))
                if _ldiv(f, h) is not None and _ldiv(g, h) is not None:
                    break
    return [0] * min(i, k) + h + [0] * min(j, l)


def _image_at(p, xi):
    """The list in x of p(x, xi), for p in x, y and an integer xi: the
    term c x^a y^b adds c xi^b to entry a, and the zeros at the top are
    dropped, so an image that vanishes is []."""
    c = [0] * (max(k & _MAX_DEG for k in p.ints) + 1)
    for k, v in p.ints.items():
        a = k & _MAX_DEG
        c[a] += v * xi ** ((k >> _W) - a)
    return _trim(c)


def _heu_gcd(p, q):
    """The gcd of two nonconstant polynomials in x, y that are not both
    forms, primitive: GCDHEU in y over ``_form_gcd`` of the images, on p
    and q made primitive.  At each point xi of ``_heu_points`` where
    neither image (``_image_at``) vanishes, the gcd of the images over the
    integers is their ``_form_gcd`` times the gcd of their contents; the
    balanced xi-adic digits of its entry a are the coefficients of x^a y^0,
    x^a y^1, ..., and the primitive part of that polynomial is gcd(p, q) if
    ``_quotient`` shows it divides both.  It ends as ``_form_gcd`` does:
    with p = H A and q = H B, for all but finitely many xi the gcd of the
    images of A and B is an integer dividing a fixed nonzero one
    (resultants bound a common factor and a common content alike), so the
    image gcd is H(x, xi) times an integer c of a finite set, and once
    xi > 2 |c| |H| for all of them its digits are those of c H."""
    p, q = p.unit_normal(), q.unit_normal()
    m = min(max(map(abs, p.ints.values())), max(map(abs, q.ints.values())))
    for xi in _heu_points(m):
        fp, fq = _image_at(p, xi), _image_at(q, xi)
        if fp and fq:
            c = _int_gcd(*fp, *fq)
            ints = {}
            for a, v in enumerate(_form_gcd(fp, fq)):
                # digit b of entry a is the coefficient of x^a y^b, counted
                # by its total degree t = a + b
                for t, d in enumerate(_balanced_digits(c * v, xi), a):
                    if d:
                        ints[t << _W | a] = d
            h = Poly._of(2, ints).unit_normal()
            if (not any(h.ints) or _quotient(p, h) is not None
                    and _quotient(q, h) is not None):
                return h


def poly_gcd(p, q):
    """GCD with primitive integer coefficients, positive grlex leading.

    Polynomials in x alone, and pairs of forms in x, y of any degrees,
    take ``_form_gcd`` on their lists; every other pair in x, y takes
    ``_heu_gcd``, GCDHEU in y over ``_form_gcd`` of the images at y = xi.
    Both run until their division check accepts, so there is no fallback.
    The result is put through ``unit_normal``, so the route does not show
    in it."""
    if p.is_zero():
        return q.unit_normal()
    if q.is_zero():
        return p.unit_normal()
    if p.is_constant() or q.is_constant():
        return Poly.const(p.nvars, 1)
    nv = p.nvars
    if nv == 1 or p.is_homogeneous() and q.is_homogeneous():
        return _list_poly(_form_gcd(_form_list(p)[0], _form_list(q)[0]),
                          nvars=nv)
    return _heu_gcd(p, q)


# -- rational functions ---------------------------------------------------

def _unit_den(*polys):
    """``polys`` over the content of the last, a denominator, signed so
    that it has a positive leading coefficient."""
    c = polys[-1].content()
    if polys[-1].leading_coeff() < 0:
        c = -c
    return polys if c == 1 else tuple(p * (1 / c) for p in polys)


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
            elif not (g := poly_gcd(num, den)).is_constant():
                num, den = divexact(num, g), divexact(den, g)
            num, den = _unit_den(num, den)
        self.num, self.den = num, den

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

    def as_poly(self):
        if not self.den.is_constant():
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

    def reciprocal(self):
        """den/num without a gcd: the pair is already coprime, so only the
        content and sign of num move to the new numerator."""
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero rational function")
        return RatFn(*_unit_den(self.den, self.num), reduce=False)

    def __pow__(self, n):
        if n < 0:
            return self.reciprocal() ** (-n)
        return RatFn(self.num ** n, self.den ** n)

    def derivative(self, i):
        num = poly_dot([(self.num.derivative(i), self.den),
                        (-self.num, self.den.derivative(i))])
        return RatFn(num, self.den * self.den)

    # -- evaluation / substitution ----------------------------------------
    def eval(self, point):
        """The value at a point of rationals; ZeroDivisionError at a pole.
        Numerator and denominator share the power tables of ``_eval_sums``,
        so its common scale cancels."""
        (n, d), _ = _eval_sums((self.num, self.den), point)
        if not d:
            raise ZeroDivisionError("pole at %r" % (point,))
        return Fraction(n * self.den.den, d * self.num.den)

    def subs(self, args):
        """Substitute RatFn arguments for the variables; fully reduced."""
        return RatFn(*self.subs_pair(args))

    def subs_pair(self, args):
        """(N, D) with N/D = self(args), not reduced.

        The arguments are put over the product of their distinct
        denominators, so arguments that share a denominator C substitute as
        C^d * P(A/C, B/C).  Raises IdenticallySingular when D vanishes.
        """
        args = [a if isinstance(a, RatFn) else RatFn(a) for a in args]
        dens = []
        for a in args:
            if a.den not in dens:
                dens.append(a.den)
        prod = dens[0]
        for d in dens[1:]:
            prod = prod * d
        cleared = []
        for a in args:
            t = a.num
            for d in dens:
                if d != a.den:
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
        return nn, dd

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
        if len(self.num.ints) > 1:
            ns = "(%s)" % ns
        # a/x^2 reads back as written, a/x*y as (a/x)*y
        simple_den = (len(self.den.ints) == 1
                      and self.den.leading_coeff() == 1
                      and sum(map(bool, self.den.leading_term()[0])) == 1)
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
        self.a, self.b, self.c, self.d = (Fraction(_rational(e))
                                          for e in (a, b, c, d))
        if self.det() == 0:
            raise AlgebraError("singular linear map")

    @classmethod
    def _of(cls, a, b, c, d):
        """The map of Fraction entries with a d != b c, taken as they are:
        products, inverses and nonzero multiples of invertible maps."""
        m = object.__new__(cls)
        m.a, m.b, m.c, m.d = a, b, c, d
        return m

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
        return LinearMap2._of(self.d / dt, -self.b / dt, -self.c / dt,
                              self.a / dt)

    def compose(self, other):
        """self after other (matrix product self * other)."""
        return LinearMap2._of(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def coord_polys(self):
        x = Poly.var(0, 2)
        y = Poly.var(1, 2)
        return (x * self.a + y * self.b, x * self.c + y * self.d)

    def is_identity(self):
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def scalar_multiple_of_identity(self):
        """Return s if self == s*id, else None."""
        if self.b == 0 and self.c == 0 and self.a == self.d:
            return self.a
        return None

    def __mul__(self, s):
        if not _rational(s):
            raise AlgebraError("singular linear map")
        return LinearMap2._of(self.a * s, self.b * s, self.c * s, self.d * s)

    def __eq__(self, other):
        if not isinstance(other, LinearMap2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "LinearMap2(%s, %s, %s, %s)" % (self.a, self.b, self.c, self.d)


# -- factorization over Q -------------------------------------------------
# On lists in x alone, low to high, with a nonzero last entry.

def _sqf_list(f):
    """Yun's square-free split of the list f: [(g, i)] with f = c * prod
    g^i for an integer c, each g primitive, square-free and nonconstant
    with a positive leading entry, the g pairwise coprime and i increasing.
    With b = f / gcd(f, f') and c = f' / gcd(f, f'), each step takes
    a = gcd(b, c - b'), the product of the factors of multiplicity i, and
    goes on with b / a and (c - b') / a.  Both gcds are ``_form_gcd``, so
    every quotient is an integer list."""
    if len(f) < 2:
        return []
    f = _primitive(f)
    df = _ldiff(f)
    g = _form_gcd(f, df)
    b, c = _ldiv(f, g), _ldiv(df, g)
    out, i = [], 1
    while len(b) > 1:
        d = _trim(_ladd(c, _ldiff(b), -1))
        a = _form_gcd(b, d) if d else b
        if len(a) > 1:
            out.append((a, i))
        b, c = _ldiv(b, a), _ldiv(d, a) if d else []
        i += 1
    return out


def _primes():
    p = 2
    while True:
        if all(p % q for q in range(2, isqrt(p) + 1)):
            yield p
        p += 1


def _rational_roots(f):
    """The rational roots of the square-free primitive list f with a
    positive leading entry and f(0) != 0, as pairs (a, b) for a/b in lowest
    terms with b > 0 (Loos's p-adic method).  A root a/b has b | lc(f) and
    a | f(0), so it is the rational reconstruction of its image modulo any
    m > 2 |f(0)| lc(f).  So the roots of f modulo the first prime p that
    does not divide lc(f) and at which they are all simple are lifted by
    Newton's iteration to such an m = p^(2^s), reconstructed by the
    extended Euclidean algorithm, and kept when they divide f."""
    if len(f) == 2:
        return [(-f[0], f[1])]
    df = _ldiff(f)
    for p in _primes():
        if f[-1] % p:
            fp = [v % p for v in f]
            roots = [r for r in range(p) if not _eval_at(fp, r) % p]
            if all(_eval_at(df, r) % p for r in roots):
                break
    c0 = abs(f[0])
    bound = 2 * c0 * f[-1]
    out = []
    for r in roots:
        m = p
        while m <= bound:
            m *= m
            r = (r - _eval_at(f, r) * pow(_eval_at(df, r), -1, m)) % m
        r0, r1, t0, t1 = m, r, 0, 1
        while r1 > c0:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        a, b = (r1, t1) if t1 > 0 else (-r1, -t1)
        if _ldiv(f, [-a, b]) is not None:
            out.append((a, b))
    return out


def factor_list_q(f):
    """Irreducible factors over Q of the nonconstant list f: [(g,
    multiplicity)] with each g primitive with a positive leading entry, in
    no fixed order.  x^k is split off and ``_sqf_list`` splits the rest;
    each part gives up its rational roots (``_rational_roots``), after which
    a cofactor of degree 2 or 3 is irreducible, and only one of degree 4 or
    more is factored by sympy's ``dup_zz_factor`` (Zassenhaus)."""
    k, core, _ = _split(f)
    out = [([0, 1], k)] if k else []
    for part, m in _sqf_list(core):
        for a, b in _rational_roots(part):
            out.append(([-a, b], m))
            part = _ldiv(part, [-a, b])
        if len(part) > 4:
            from sympy.polys.domains import ZZ
            from sympy.polys.factortools import dup_zz_factor

            out += [([int(v) for v in reversed(g)], m)
                    for g, _ in dup_zz_factor(part[::-1], ZZ)[1]]
        elif len(part) > 1:
            out.append((part, m))
    return out


def largest_prime_factor(n):
    """The largest prime factor of an integer n > 1, by sympy's factorint."""
    from sympy.ntheory import factorint
    return max(factorint(n))


def _split_form(p):
    """``_split`` of the list of a nonzero form p, checked."""
    if p.is_zero() or not p.is_homogeneous():
        raise AlgebraError("expected a nonzero homogeneous polynomial")
    return _split(_form_list(p)[0])


def linear_factors_q(p):
    """Factor out the rational projective linear factors of a nonzero binary
    form.

    Returns (c, factors, remainder): p = c * prod(f**m) * remainder, with each
    factor a primitive linear form with positive grlex leading coefficient and
    the remainder free of rational projective roots.  Factors are sorted by
    their (x, y) coefficients.
    """
    # dehomogenize at y=1: a root t = a/b of x/y gives b*x - a*y, list [-a, b]
    x_pow, rem, y_pow = _split_form(p)
    factors = [(Poly.var(1, 2), y_pow)] if y_pow else []
    if x_pow:
        factors.append((Poly.var(0, 2), x_pow))
    for part, m in _sqf_list(rem):
        for a, b in _rational_roots(part):
            factors.append((_list_poly([-a, b]), m))
            for _ in range(m):
                rem = _ldiv(rem, [-a, b])
    factors.sort(key=lambda fm: tuple(sorted(fm[0].terms.items())))
    rem = _list_poly(rem, p.den)
    if rem.is_constant():
        return rem.constant_value(), factors, Poly.const(2, 1)
    scale = rem.content() if rem.leading_coeff() > 0 else -rem.content()
    return scale, factors, rem * (1 / scale)


# -- real projective root counting ----------------------------------------

def _sturm_count(f):
    """The number of distinct real roots of the square-free list f of degree
    at least 1, by Sturm's theorem: the sign changes of the leading entries
    of the chain f, f', -rem(f, f'), ... at -oo less those at +oo.  Each
    remainder is taken times a positive integer, and divided by its
    positive content, so every sign is that of the chain over Q."""
    a, b = f, _ldiff(f)
    lead = [(f[-1], len(f) - 1), (b[-1], len(b) - 1)]
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            break
        g = _int_gcd(*r)
        a, b = b, [-v // g for v in r]
        lead.append((b[-1], len(b) - 1))
    # the sign at +oo is that of the leading entry, at -oo times (-1)^degree
    plus = [v > 0 for v, _ in lead]
    minus = [(v > 0) == (d % 2 == 0) for v, d in lead]
    return (sum(u != v for u, v in zip(minus, minus[1:]))
            - sum(u != v for u, v in zip(plus, plus[1:])))


def count_real_projective_roots(p):
    """Real projective roots of a nonzero binary form, with multiplicity.

    The powers of x and y dividing p give the directions x = 0 and y = 0;
    the rest is counted on the list of the remaining form: each part of its
    square-free split (``_sqf_list``) by a Sturm chain on integer lists
    (``_sturm_count``), times its multiplicity.
    """
    x_pow, core, y_pow = _split_form(p)
    return x_pow + y_pow + sum(m * _sturm_count(f) for f, m in _sqf_list(core))
