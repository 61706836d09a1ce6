"""The four workloads as data: seeded inputs plus their references.

Every builder here takes the workload seed and returns a list of case
specifications made of plain data and sympy objects; none of them imports
projflow.  ``run.py`` turns the specifications into calls into projflow.

Why these four (one per user-facing task, each stressing other layers):

catalogue    The published catalogue through the command line, flow text and
             vector-field text: small inputs, so fixed per-call costs
             dominate (parsing, object creation, report formatting).  The
             only workload that reaches ``parser`` and ``cli``.
translation  verify_translation and verify_pde on flows of growing degree:
             3-variable Poly multiplication and eval_hom, no RatFn reduction
             and no gcd in the timed region.
conjugates   canonicalize on random conjugates of phi_N: RatFn reduction and
             poly_gcd on dense inputs of degree 5-50, where the hangs are.
series       Jets to high order: 2-variable arithmetic with growing
             Fraction coefficients, and gcd-bound rational-field jets.
"""
from __future__ import annotations

import random
from fractions import Fraction

import gen
from catalogue import CATALOGUE
from gen import QQ, R, X, Y

# Per-case time limit in seconds, per workload.  The catalogue and series
# limits only catch hangs; the conjugates limit is the verdict deadline that
# separates maps projflow decides from maps it stalls on.
LIMITS = {"catalogue": 20.0, "translation": 120.0, "conjugates": 4.0,
          "series": 60.0}


class BrokenReference(Exception):
    """A reference that the benchmark computed is inconsistent."""


def _require(ok, what):
    if not ok:
        raise BrokenReference(what)


def _degree(f):
    """Homogeneity degree of f, or None if f is not homogeneous."""
    dn = {sum(m) for m in f.numer.monoms()}
    dd = {sum(m) for m in f.denom.monoms()}
    if len(dn) != 1 or len(dd) != 1:
        return None
    return dn.pop() - dd.pop()


# -- catalogue ---------------------------------------------------------------

def catalogue(seed):
    """38 cases: each catalogue flow as flow text and its field as (w, r)
    text.  Fixed data; the seed is unused."""
    cases = []
    for name, flow_text, vf_text, level, w_text in CATALOGUE:
        flow = gen.parse_pair(flow_text)
        w, r = gen.parse_pair(vf_text)
        inv = gen.parse(w_text)
        jets = [gen.flow_jets(c, 2) for c in flow]
        _require([j[0] for j in jets] == [X, Y], name + ": boundary")
        _require([j[1] for j in jets] == [w, r], name + ": vector field")
        _require(gen.at(inv, flow) == inv, name + ": orbit invariant")
        _require(_degree(inv) == level, name + ": invariant degree")
        for route, text in (("flow", flow_text), ("vf", vf_text)):
            cases.append({"name": "%s/%s" % (route, name), "route": route,
                          "entry": name, "text": text, "level": level,
                          "invariant": inv, "flow": flow})
    return cases


# -- translation -------------------------------------------------------------

def _Phi(N):
    """The coordinate-swap-symmetric flows Phi_N of the paper."""
    s = X + Y
    if N >= 0:
        den = 2 * (s + 1) ** (N + 1)
        return ((s + 1) ** N * s + (X - Y)) / den, \
               ((s + 1) ** N * s + (Y - X)) / den
    M = -N
    den = 2 * (s + 1)
    return ((s + 1) ** M * (X - Y) + s) / den, ((s + 1) ** M * (Y - X) + s) / den


def _uniN(N, sigma, tau):
    yp = (Y + 1) ** N
    core = yp * ((N - sigma * tau) * X + sigma * Y)
    tail = tau * X - Y
    u = (core + sigma * tail) / (tau * core - (N - sigma * tau) * tail)
    return u * Y / (Y + 1), Y / (Y + 1)


def _kapa(N, kappa):
    yp = (Y + 1) ** N
    return X * Y / ((Y + 1) * (yp * (Y - kappa * X) + kappa * X)), Y / (Y + 1)


MUTANTS = (
    (X * (Y + 1) + Y * Y, Y / (Y + 1)),
    (X * (Y + 1), Y / (Y + 1) ** 2),
    (X / (X + Y + 1), Y / (X + Y + 2)),
    (X * (Y + 2), Y / (Y + 1)),
    (X / (X + 1) ** 2, Y / (Y + 1)),
)

PHI_LADDER = (1, -1, 2, -2, -3, -4)
# |sigma|, |tau|, |kappa| of the seeded family members; the seed picks the
# signs.  The cost of verify_translation depends on the size of the
# parameters far more than on their signs, so the seed varies the inputs
# without moving the cost of a pass.  sigma * tau = N is excluded.
UNI_PARAMS = (QQ(2), QQ(1, 3), QQ(2, 3))


def translation(seed):
    """Inputs of verify_translation and verify_pde with the expected answer:
    the Phi_N ladder, the catalogue flows, seeded uniN/kapa members at
    N = 2, 3, 5 and five non-flows."""
    rng = random.Random(seed)
    inputs = [("Phi_%d" % N, _Phi(N), True) for N in PHI_LADDER]
    inputs += [(row[0], gen.parse_pair(row[1]), True) for row in CATALOGUE]
    for N in (2, 3, 5):
        sigma, tau, kappa = (QQ(rng.choice((-1, 1)) * m) for m in UNI_PARAMS)
        inputs.append(("uniN_%d(%s,%s)" % (N, sigma, tau),
                       _uniN(N, sigma, tau), True))
        inputs.append(("kapa_%d(%s)" % (N, kappa), _kapa(N, kappa), True))
    inputs += [("mutant_%d" % i, m, False) for i, m in enumerate(MUTANTS)]
    check = random.Random(seed + 1)
    for name, flow, expected in inputs:
        _require(gen.is_flow_at_points(*flow, check) == expected,
                 name + ": translation equation at sample points")
    return [{"name": "%s/%s" % (fn, name), "fn": fn, "pair": flow,
             "expected": expected}
            for name, flow, expected in inputs
            for fn in ("verify_translation", "verify_pde")]


# -- conjugates --------------------------------------------------------------

# (degree of the map, N, candidates drawn).  Degree 1 is decided within the
# limit at every N (N = 3 is the slowest, so it is drawn less often); degree
# 2 at N = -2 and 3 and degree 3 stall in poly_gcd.  Degree 2 at N = +-1 and
# 2 sits near the limit and is left out, so that decided_share moves with the
# code, not with the seed.
CONJUGATE_STRATA = (
    [(1, N, 5) for N in (1, -1, 2, -2)] * 4 + [(1, 3, 5)] * 3
    + [(2, -2, 1), (2, 3, 1), (3, 1, 1)]
)
# The maps are drawn once, from this fixed seed; of several candidates the one
# whose conjugate has the median number of terms is kept, since small random
# coefficients often give special maps with tiny conjugates.  The cost of
# canonicalize varies several-fold between fresh random maps of one stratum,
# so the run seed does not redraw them: it replaces each L by L.s for one of
# the eight signed permutations s.  That changes every input polynomial,
# stays inside the distribution, and keeps each case's cost within a few
# per cent.
POOL_SEED = 2012
SIGNED_PERMUTATIONS = ((1, 0, 0, 1), (-1, 0, 0, 1), (1, 0, 0, -1),
                       (-1, 0, 0, -1), (0, 1, 1, 0), (0, -1, 1, 0),
                       (0, 1, -1, 0), (0, -1, -1, 0))

# phi_2 conjugated by HomBir(x^2+2xy-y^2, 3x^2-xy+2y^2, shear): its RatFn
# reduction needs a gcd of inputs with 153 and 126 terms.
HARD_GCD = (2, X ** 2 + 2 * X * Y - Y ** 2, 3 * X ** 2 - X * Y + 2 * Y ** 2,
            (1, 1, 0, 1))


def _random_map(rng, degree):
    """(P, Q, L): coprime homogeneous P, Q of the degree with coefficients in
    [-3, 3], and an invertible L with entries in [-2, 2]."""
    def form():
        return R.from_dict({(i, degree - i): QQ(rng.randint(-3, 3))
                            for i in range(degree + 1)})
    while True:
        P, Q = form(), form()
        if P and Q and P.gcd(Q).is_ground:
            break
    while True:
        L = tuple(rng.randint(-2, 2) for _ in range(4))
        if L[0] * L[3] - L[1] * L[2]:
            return P, Q, L


def _size(pair):
    return sum(len(f.numer.terms()) + len(f.denom.terms()) for f in pair)


def _matmul(A, B):
    a, b, c, d = A
    e, f, g, h = B
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def conjugate_pool():
    """[(name, N, P, Q, L)]: the maps of every stratum, then the hard case."""
    rng = random.Random(POOL_SEED)
    pool = []
    for degree, N, draws in CONJUGATE_STRATA:
        maps = [_random_map(rng, degree) for _ in range(draws)]
        maps.sort(key=lambda m: _size(gen.conjugate_phi(N, *m)))
        pool.append(("deg%d/N%d" % (degree, N), N) + maps[draws // 2])
    N, P, Q, L = HARD_GCD
    pool.append(("hard_gcd/N2", N, P.numer, Q.numer, L))
    return pool


def conjugates(seed):
    """canonicalize on a^-1 o phi_N o a for the maps of the pool, each with
    its linear part twisted by a seeded signed permutation."""
    rng = random.Random(seed)
    cases = []
    for i, (name, N, P, Q, L) in enumerate(conjugate_pool()):
        twist = rng.choice(SIGNED_PERMUTATIONS)
        cases.append({"name": "%02d/%s" % (i, name), "N": N,
                      "pair": gen.conjugate_phi(N, P, Q, _matmul(L, twist))})
    return cases


# -- series ------------------------------------------------------------------

GENUS1 = (X ** 2 - 2 * X * Y, -2 * X * Y + Y ** 2)
DIRECTION = (Fraction(1), Fraction(-1))
SEEDED_FIELDS = 28
SEEDED_ORDER = 24


def _series_case(name, kind, source, order, jets, growth=None):
    """A jet expansion of a flow or a field with its reference jets; with a
    growth flag, the diagonal and the prime diagnostic follow."""
    return {"name": "%s/%d" % (name, order), "kind": kind, "source": source,
            "order": order, "growth": growth, "direction": DIRECTION,
            "jets": tuple([gen.normal_pair(j) for j in part] for part in jets)}


def _lie_jets(field, order):
    w, r = (f.numer for f in field)
    _require(all(f.denom == R.one for f in field), "polynomial field")
    return [[gen.K.new(p) for p in part]
            for part in gen.field_jets(w, r, order)]


def series(seed):
    """Jets: the genus-1 field to order 80 with its diagonal and prime
    diagnostic, phi_2 to order 150 likewise, the Psi and phi2_3 fields to
    order 12, and seeded quadratic polynomial fields to order 24."""
    rows = {row[0]: row for row in CATALOGUE}
    phi2 = gen.phi(2)
    cases = [
        _series_case("genus1", "vf", GENUS1, 80, _lie_jets(GENUS1, 80), True),
        _series_case("phi_2", "flow", phi2, 150,
                     [gen.flow_jets(c, 150) for c in phi2], False),
    ]
    for name in ("Psi", "phi2_3"):
        flow = gen.parse_pair(rows[name][1])
        cases.append(_series_case(name, "vf", gen.parse_pair(rows[name][2]),
                                  12, [gen.flow_jets(c, 12) for c in flow]))
    rng = random.Random(seed)
    for i in range(SEEDED_FIELDS):
        field = tuple(sum((rng.choice((-3, -2, -1, 1, 2, 3)) * m
                           for m in (X * X, X * Y, Y * Y)), gen.K.zero)
                      for _ in range(2))
        cases.append(_series_case("quadratic_%02d" % i, "vf", field,
                                  SEEDED_ORDER,
                                  _lie_jets(field, SEEDED_ORDER)))
    return cases


BUILDERS = {"catalogue": catalogue, "translation": translation,
            "conjugates": conjugates, "series": series}
