"""Truncated formal-group-law arithmetic over local coefficient rings.

Every context fixes a truncation triple (a, b, D): coefficients live in
(Z/p^a)[u_1..u_{n-1}] with monomials of total u-degree >= b dropped, and
series are exact below x-degree D.  All stated equalities hold under that
contract and under nothing stronger.

The p-typical law is built in integers: the scaled logarithm g(x) = f(px)/p
has no denominators (Hazewinkel's functional-equation lemma), so neither has
G = g^{-1}(g(x) + g(y)) = F(px, py)/p, and F_d = G_d / p^{d-1} must divide
exactly.  A failed division is an integrality failure: a bug, never
tolerated.  G is symmetric in x and y, so only its half plane i <= j is
built, in one flat dict whose int keys pack the x-, y- and u-exponents, and
each coefficient is mirrored after its division.  ``check_work`` bounds a
request's predicted work before any series is built.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from .abelian import check_prime, power_exceeds
from .errors import (
    BadParameters,
    IntegralityFailure,
    InternalMismatch,
    NotWeierstrass,
    PrecisionExhausted,
    ResourceLimit,
    TruncationTooSmall,
)


class PolyRing:
    """(Z/p^a)[u_1..u_r] truncated below total degree b; elements are dicts
    mapping exponent tuples to nonzero ints mod p^a."""

    def __init__(self, p, a, b, nparams):
        check_prime(p)
        if a < 1 or b < 1 or nparams < 0:
            raise BadParameters("need a, b >= 1 and nparams >= 0")
        self.p = p
        self.a = a
        self.b = b
        self.r = nparams
        self.mod = p ** a
        self.zero_exp = (0,) * nparams

    def __eq__(self, other):
        return isinstance(other, PolyRing) and (self.p, self.a, self.b, self.r) == (
            other.p, other.a, other.b, other.r
        )

    def __hash__(self):
        return hash(("PolyRing", self.p, self.a, self.b, self.r))

    def zero(self):
        return {}

    def one(self):
        return {self.zero_exp: 1}

    def const(self, c):
        c %= self.mod
        return {self.zero_exp: c} if c else {}

    def param(self, i):
        if not 1 <= i <= self.r:
            raise BadParameters("no parameter u_%d in this ring" % i)
        exp = tuple(1 if j == i - 1 else 0 for j in range(self.r))
        return {exp: 1} if self.b > 1 else {}

    def add(self, f, g):
        out = dict(f)
        for e, c in g.items():
            v = (out.get(e, 0) + c) % self.mod
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return out

    def neg(self, f):
        return {e: self.mod - c for e, c in f.items()}

    def mul(self, f, g):
        out = {}
        b = self.b
        for e1, c1 in f.items():
            d1 = sum(e1)
            for e2, c2 in g.items():
                if d1 + sum(e2) >= b:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                v = (out.get(e, 0) + c1 * c2) % self.mod
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return out

    def scale(self, c, f):
        c %= self.mod
        out = {}
        for e, v in f.items():
            w = (c * v) % self.mod
            if w:
                out[e] = w
        return out

    def residue(self, f) -> int:
        """Image in the residue field: kill the parameters, reduce mod p."""
        return f.get(self.zero_exp, 0) % self.p

    def is_unit(self, f) -> bool:
        return self.residue(f) != 0

    def inv(self, f):
        """Inverse of a unit: invert the constant, then a geometric series in
        the topologically nilpotent remainder."""
        if not self.is_unit(f):
            raise BadParameters("cannot invert a non-unit")
        c0 = f.get(self.zero_exp, 0)
        c0_inv = pow(c0, -1, self.mod)
        # f = c0 (1 - w) with w in the maximal ideal
        w = self.scale(-c0_inv, f)
        w = self.add(w, self.one())
        out = self.one()
        power = self.one()
        for _ in range(self.a + self.b):
            power = self.mul(power, w)
            if not power:
                break
            out = self.add(out, power)
        return self.scale(c0_inv, out)

    def monomial_str(self, e) -> str:
        parts = []
        for i, d in enumerate(e):
            if d == 1:
                parts.append("u%d" % (i + 1))
            elif d > 1:
                parts.append("u%d^%d" % (i + 1, d))
        return "*".join(parts) if parts else "1"

    def poly_str(self, f) -> str:
        if not f:
            return "0"
        terms = []
        for e in sorted(f):
            c = f[e]
            mono = self.monomial_str(e)
            terms.append(str(c) if mono == "1" else "%d*%s" % (c, mono))
        return " + ".join(terms)


class Series:
    """A truncated power series in ``nvars`` variables over ``ring``;
    coefficients indexed by exponent tuples of total degree < D."""

    __slots__ = ("ring", "nvars", "D", "coeffs")

    def __init__(self, ring, nvars, D, coeffs):
        self.ring = ring
        self.nvars = nvars
        self.D = D
        clean = {}
        for e, c in coeffs.items():
            if sum(e) >= D or not c:
                continue
            clean[e] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, ring, nvars, D):
        return cls(ring, nvars, D, {})

    @classmethod
    def variable(cls, ring, nvars, D, i):
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(ring, nvars, D, {e: ring.one()})

    def _like(self, coeffs):
        return Series(self.ring, self.nvars, self.D, coeffs)

    def add(self, other):
        out = dict(self.coeffs)
        ring = self.ring
        for e, c in other.coeffs.items():
            v = ring.add(out.get(e, ring.zero()), c)
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return self._like(out)

    def neg(self):
        return self._like({e: self.ring.neg(c) for e, c in self.coeffs.items()})

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        ring = self.ring
        D = self.D
        out = {}
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) >= D:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                v = ring.add(out.get(e, ring.zero()), ring.mul(c1, c2))
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return self._like(out)

    def scale_poly(self, poly):
        ring = self.ring
        out = {}
        for e, c in self.coeffs.items():
            v = ring.mul(poly, c)
            if v:
                out[e] = v
        return self._like(out)

    def coeff(self, e):
        return self.coeffs.get(tuple(e), self.ring.zero())

    def degree(self):
        return max((sum(e) for e in self.coeffs), default=-1)

    def min_degree(self):
        return min((sum(e) for e in self.coeffs), default=self.D)

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.ring == other.ring
            and self.nvars == other.nvars
            and self.D == other.D
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.nvars, self.D, tuple(sorted((e, tuple(sorted(c.items()))) for e, c in self.coeffs.items()))))

    def compose(self, args):
        """Substitute args[i] (series without constant term) for variable i.

        Terms are grouped by their exponent of the first variable, nested
        over the rest: each power of a substituted series is built once and
        multiplies the sum of the terms it heads once, so a two-variable law
        costs O(D) products of full series, and each term only a scaling."""
        if len(args) != self.nvars:
            raise BadParameters("need one substitution per variable")
        for s in args:
            if s.min_degree() < 1:
                raise BadParameters("substituted series must have zero constant term")
        ring, nvars, D = args[0].ring, args[0].nvars, args[0].D
        one = Series(ring, nvars, D, {(0,) * nvars: ring.one()})
        powers = [[one] for _ in args]

        def power(i, j):
            cache = powers[i]
            while len(cache) <= j:
                cache.append(cache[-1].mul(args[i]))
            return cache[j]

        def evaluate(terms, i):
            # sum of c * args[i]^e[0] * args[i+1]^e[1] * ... over (e, c) in terms
            if i == len(args):
                return one.scale_poly(terms[0][1])
            groups = {}
            for e, c in terms:
                groups.setdefault(e[0], []).append((e[1:], c))
            out = Series.zero(ring, nvars, D)
            for j in sorted(groups):
                out = out.add(power(i, j).mul(evaluate(groups[j], i + 1)))
            return out

        mins = [s.min_degree() for s in args]
        terms = [
            (e, c) for e, c in self.coeffs.items()
            if sum(ei * mi for ei, mi in zip(e, mins)) < D
        ]
        return evaluate(terms, 0)

    def term_list(self):
        return [(e, self.coeffs[e]) for e in sorted(self.coeffs)]

    def series_str(self):
        ring = self.ring
        names = "xyz"
        parts = []
        for e, c in self.term_list():
            mono = "*".join(
                "%s^%d" % (names[i], d) if d > 1 else names[i]
                for i, d in enumerate(e)
                if d
            )
            cs = ring.poly_str(c)
            if "+" in cs or "*" in cs:
                cs = "(%s)" % cs
            parts.append(cs if not mono else "%s*%s" % (cs, mono))
        return " + ".join(parts) if parts else "0"


def series_inverse(s: Series) -> Series:
    """Multiplicative inverse of a one-variable series with unit constant term."""
    ring, D = s.ring, s.D
    c0 = s.coeffs.get((0,), ring.zero())
    if not ring.is_unit(c0):
        raise BadParameters("series has non-unit constant term")
    c0_inv = ring.inv(c0)
    out = {(0,): c0_inv}
    for d in range(1, D):
        acc = ring.zero()
        for j in range(d):
            cj = out.get((j,))
            sc = s.coeffs.get((d - j,))
            if cj and sc:
                acc = ring.add(acc, ring.mul(cj, sc))
        v = ring.mul(c0_inv, ring.neg(acc)) if acc else ring.zero()
        if v:
            out[(d,)] = v
    return Series(ring, 1, D, out)


@dataclass
class FGLContext:
    """A formal group law over a truncated local coefficient ring.

    ``F`` is the two-variable law, exact below x,y-degree D over ``ring``.
    """

    p: int
    n: int
    ring: PolyRing
    D: int
    F: Series
    label: str = "fgl"

    def x_var(self, nvars=1, i=0):
        return Series.variable(self.ring, nvars, self.D, i)


def _scaled_log(p, n, ring, D):
    """g(x) = f(px)/p = sum mu_i p^{p^i-1-i} x^{p^i} for the p-typical
    logarithm f = sum lambda_i x^{p^i}, with mu_i = p^i lambda_i from
    mu_i = sum_{0<j<=i} p^{j-1} mu_{i-j} v_j^{p^{i-j}}, v_n = 1, v_j = u_j
    below n and zero above.  No step divides, and p^i - 1 >= i, so every
    coefficient is integral."""
    mus = [ring.one()]
    i = 1
    while p ** i < D:
        acc = ring.zero()
        for j in range(1, min(i, n) + 1):
            e = p ** (i - j)
            if j == n:
                power = ring.one()
            elif e < ring.b:
                power = {tuple(e if t == j - 1 else 0 for t in range(ring.r)): 1}
            else:
                continue
            acc = ring.add(acc, ring.scale(p ** (j - 1), ring.mul(mus[i - j], power)))
        mus.append(acc)
        i += 1
    coeffs = {(p ** i,): ring.scale(p ** (p ** i - 1 - i), mu) for i, mu in enumerate(mus)}
    return Series(ring, 1, D, coeffs)


def _reversion(log_series: Series) -> Series:
    """exp with exp(log(x)) = x below degree D; log = x + higher terms."""
    ring, D = log_series.ring, log_series.D
    if log_series.coeffs.get((1,)) != ring.one():
        raise BadParameters("logarithm must start with x")
    powers = {1: log_series}
    for m in range(2, D):
        powers[m] = powers[m - 1].mul(log_series)
    exp_coeffs = {(1,): ring.one()}
    for d in range(2, D):
        acc = ring.zero()
        for m in range(1, d):
            em = exp_coeffs.get((m,))
            lm = powers[m].coeffs.get((d,))
            if em and lm:
                acc = ring.add(acc, ring.mul(em, lm))
        if acc:
            exp_coeffs[(d,)] = ring.neg(acc)
    return Series(ring, 1, D, exp_coeffs)


def _half_plane_step(H, logs, limit, D, M, room_u, mod):
    """(g(x) + g(y)) * H below degree ``limit`` for a symmetric H kept on the
    half plane i <= j, keyed (i*D + j)*M + u with u the packed parameter
    exponent; ``logs`` lists g's terms by rising q as (q, [(deg u', q*M + u',
    q*D*M + u', c)]) by rising u-degree.  Each g_q * H(i,j) is formed once
    and lands on (i, j+q), on (i+q, j) when i+q <= j, and on (j, i+q), the
    mirror of (i+q, j), when i < j <= i+q; both land on (j, j) when i+q = j.
    The u-degree room is checked before the add, so packed exponents never
    carry."""
    out = defaultdict(int)
    for key, c in H.items():
        pos, u = divmod(key, M)
        i, j = divmod(pos, D)
        room, gap, spare = limit - i - j, j - i, room_u[u]
        flip = gap * (D - 1) * M
        for q, terms in logs:
            if q >= room:
                break
            for du, s, sd, cq in terms:
                if du >= spare:
                    break
                v = c * cq
                t = key + s
                out[t] += v
                if q < gap:
                    t = key + sd
                elif q == gap:
                    t, v = key + sd, 2 * v
                elif gap:
                    t = key + flip + s
                else:
                    continue
                out[t] += v
    return {t: r for t, v in out.items() if (r := v % mod)}


def build_ptypical(p, n, a=4, b=8, D=None) -> FGLContext:
    """The p-typical law of height n over (Z/p^a)[u_1..u_{n-1}] / (u-degree
    >= b), exact below degree D.

    G = g^{-1}(g(x) + g(y)) = F(px, py)/p is built from the scaled logarithm
    g in integers mod p^{a+D-2}; then F_d = G_d / p^{d-1} in each degree
    d < D.  That division must be exact: a p in the denominator of F_d would
    leave v_p(G_d) < d - 1, and raises ``IntegralityFailure``.

    G is a power series in the symmetric g(x) + g(y), so G(x, y) = G(y, x):
    only its half plane i <= j is formed, by Horner steps over one flat dict
    (see ``_half_plane_step``), and each coefficient there is divided, then
    mirrored to (j, i).
    """
    check_prime(p)
    if n < 1:
        raise BadParameters("height must be >= 1")
    if D is None:
        D = default_degree(p, n)
    if power_exceeds(p, n, D - 1):
        raise TruncationTooSmall("need D >= p^n + 1")
    ring = PolyRing(p, a, b, n - 1)
    wide = PolyRing(p, a + D - 2, b, n - 1)
    g = _scaled_log(p, n, wide, D)
    exp = _reversion(g)
    # parameter monomials of u-degree < b, packed base b: M of them fit
    # below the x,y part of a key
    M = b ** (n - 1)
    exps = [()]
    for _ in range(n - 1):
        exps = [e + (x,) for e in exps for x in range(b - sum(e))]
    packed = {e: sum(x * b ** t for t, x in enumerate(e)) for e in exps}
    unpacked = {u: e for e, u in packed.items()}
    room_u = {u: b - sum(e) for e, u in packed.items()}
    logs = [
        (q, sorted((sum(e), q * M + packed[e], q * D * M + packed[e], c) for e, c in poly.items()))
        for (q,), poly in sorted(g.coeffs.items())
    ]
    # G = sum_m e_m S^m by Horner: H_m = e_m + S*H_{m+1}, needed below
    # degree D - m because S^m starts in degree m
    H = {}
    for m in range(D - 1, 0, -1):
        H = _half_plane_step(H, logs, D - m, D, M, room_u, wide.mod)
        for e, c in exp.coeff((m,)).items():
            H[packed[e]] = H.get(packed[e], 0) + c
    reduced = {}
    for key, c in _half_plane_step(H, logs, D, D, M, room_u, wide.mod).items():
        pos, u = divmod(key, M)
        i, j = divmod(pos, D)
        shift = p ** (i + j - 1)
        if c % shift:
            raise IntegralityFailure(
                "group-law coefficient at x^%d y^%d is not %d-integral" % (i, j, p)
            )
        v = c // shift % ring.mod
        if v:
            reduced.setdefault((i, j), {})[unpacked[u]] = v
    for (i, j), poly in list(reduced.items()):
        if i < j:
            reduced[(j, i)] = dict(poly)
    return FGLContext(
        p=p, n=n, ring=ring, D=D, F=Series(ring, 2, D, reduced),
        label="ptypical(p=%d, n=%d)" % (p, n),
    )


def default_degree(p, n) -> int:
    """The default x-degree truncation D = p^{2n} + 1 of a p-typical law."""
    return p ** (2 * n) + 1


# Predicted series-term products one fgl request may cost.  Timed cold
# (Python 3.11, 2 vCPUs), the slowest admitted requests found near the cap,
# such as fgl --p 7 --n 1 --k 2 --deg 129, took 1.6 s.
WORK_CAP = 2 * 10 ** 6


def check_work(p, n, k, a, b, D=None, law="ptypical"):
    """Raise ResourceLimit if the prepared [p^k]-series of a law is predicted
    to cost more than WORK_CAP products of series terms.  A law the builders
    refuse is left to them; a level k that cannot be prepared below D is
    refused here, before the law is built.

    A p-typical law has terms in a share rho = 1/(p-1) of the degrees.  Its
    build visits L*rho*D^3/3 term pairs (L logarithm terms); each doubling of
    [m] but the first 4*rho^2*D^3, each added x half that (D^2 per step for
    x + y + xy, n = b = 1); the preparation up to 2(a+b+2)*rho^2*D^2.  Pairs
    are weighted by parameter monomials per coefficient and integer width.
    """
    check_prime(p)
    if n < 1 or a < 1 or b < 1:
        return
    if D is None:
        if power_exceeds(p, 2 * n, WORK_CAP):
            raise ResourceLimit("default D = %d^%d + 1 exceeds the fgl work cap" % (p, 2 * n))
        D = default_degree(p, n)
    if D > WORK_CAP or a + b > WORK_CAP:
        raise ResourceLimit("D = %d or a + b = %d exceeds the fgl work cap %d" % (D, a + b, WORK_CAP))
    if power_exceeds(p, n, D - 1):
        return
    _check_level(p, n, k, D)
    m = p ** k
    doublings, adds = m.bit_length() - 1, bin(m).count("1") - 1
    steps = 4 * max(doublings - 1, 0) + 2 * adds
    if law == "multiplicative":
        rho = 1.0
        work = steps * D ** 2
    else:
        rho = 1 / (p - 1)
        logs = 0
        while p ** logs < D:
            logs += 1
        work = logs * rho * D ** 3 / 3 + steps * D * (rho * D) ** 2
    work += 2 * (a + b + 2) * (rho * D) ** 2
    monomials = math.comb(b + n - 2, n - 1) * (p - 1) / (p ** n - 1)
    work *= max(1.0, monomials) * (1 + (a + D) * p.bit_length() / 1500)
    if work > WORK_CAP:
        raise ResourceLimit("predicted fgl work %.3g exceeds cap %d" % (work, WORK_CAP))


def multiplicative_context(p, a=4, D=8) -> FGLContext:
    """The exact multiplicative law F = x + y + xy (height one)."""
    check_prime(p)
    if D < p + 1:
        raise TruncationTooSmall("need D >= p + 1")
    ring = PolyRing(p, a, 1, 0)
    F = Series(
        ring, 2, D,
        {(1, 0): ring.one(), (0, 1): ring.one(), (1, 1): ring.one()},
    )
    return FGLContext(p=p, n=1, ring=ring, D=D, F=F, label="multiplicative(p=%d)" % p)


def n_series(ctx: FGLContext, m: int) -> Series:
    """[m](x) by doubling and adding along the binary digits of m:
    [2j] = F([j], [j]) and [2j+1] = F([2j], x), so O(log m) compositions;
    exact below degree D."""
    if m < 0:
        raise BadParameters("need m >= 0")
    if m == 0:
        return Series.zero(ctx.ring, 1, ctx.D)
    out = x = ctx.x_var()
    for bit in bin(m)[3:]:
        out = ctx.F.compose([out, out])
        if bit == "1":
            out = ctx.F.compose([out, x])
    return out


def fgl_sum(ctx: FGLContext, s1: Series, s2: Series) -> Series:
    return ctx.F.compose([s1, s2])


def _split_at(s: Series, d: int):
    low = {}
    hi = {}
    for (e,), c in s.coeffs.items():
        if e < d:
            low[(e,)] = c
        else:
            hi[(e - d,)] = c
    return Series(s.ring, 1, s.D, low), Series(s.ring, 1, s.D, hi)


def weierstrass_prep(ctx: FGLContext, g: Series, d: int):
    """Factor g = f*u with f monic of degree d, non-leading coefficients in
    the maximal ideal, and u a unit; exact below degree D.

    Uses the successive-approximation division of x^d by g; each pass pushes
    the carry one step deeper into the maximal ideal, so a + b passes
    suffice at the declared precision.  The postcondition f*u = g is
    re-verified by multiplication after every call.
    """
    ring = ctx.ring
    D = ctx.D
    if not 0 < d < D:
        raise TruncationTooSmall("need 0 < d < D")
    for (e,), c in g.coeffs.items():
        if e < d and ring.residue(c):
            raise NotWeierstrass("coefficient of x^%d is a unit below degree %d" % (e, d))
    if not ring.is_unit(g.coeffs.get((d,), ring.zero())):
        raise NotWeierstrass("coefficient of x^%d is not a unit" % d)

    g_low, g_high = _split_at(g, d)
    ginv_high = series_inverse(g_high)
    x_d = Series(ring, 1, D, {(d,): ring.one()})
    q = Series.zero(ring, 1, D)
    cur = x_d
    for _ in range(ring.a + ring.b + 2):
        low, hi = _split_at(cur, d)
        if not hi.coeffs:
            break
        q_step = hi.mul(ginv_high)
        q = q.add(q_step)
        cur = low.sub(q_step.mul(g_low))
    else:
        raise PrecisionExhausted("division did not terminate at this precision")
    r = cur
    f = x_d.sub(r)
    for (e,), c in f.coeffs.items():
        if e < d and ring.residue(c):
            raise InternalMismatch("prepared polynomial is not distinguished")
    u = series_inverse(q)
    if f.mul(u) != g:
        raise InternalMismatch("weierstrass factorization failed the re-multiplication check")
    return f, u


def _check_level(p, n, k, D):
    """Refuse k < 0 and D <= p^{kn}: [p^k] cannot be prepared below D."""
    if k < 0:
        raise BadParameters("need k >= 0")
    if power_exceeds(p, k * n, D - 1):
        raise TruncationTooSmall("need D > p^{kn} = %d^%d" % (p, k * n))


def prepare_p_series(ctx: FGLContext, k: int):
    """([p^k](x), f, u) with [p^k] = f*u prepared at degree p^{kn}; refuses
    D <= p^{kn} before any series is built."""
    _check_level(ctx.p, ctx.n, k, ctx.D)
    d = ctx.p ** (k * ctx.n)
    g = n_series(ctx, ctx.p ** k)
    f, u = weierstrass_prep(ctx, g, d)
    return g, f, u


def torsion_rank(ctx: FGLContext, k: int) -> int:
    """Degree of the prepared [p^k]-series; the p^k-torsion rank p^{kn}."""
    return prepare_p_series(ctx, k)[1].degree()


def residue_series(ctx: FGLContext, s: Series) -> dict:
    """Coefficients in the residue field: parameters killed, reduced mod p."""
    out = {}
    for (e,), c in s.coeffs.items():
        v = ctx.ring.residue(c)
        if v:
            out[e] = v
    return out


def check_unit_axiom(ctx: FGLContext) -> bool:
    zero = Series.zero(ctx.ring, 1, ctx.D)
    return ctx.F.compose([ctx.x_var(), zero]) == ctx.x_var()


def check_commutativity(ctx: FGLContext) -> bool:
    flipped = {(j, i): c for (i, j), c in ctx.F.coeffs.items()}
    return Series(ctx.ring, 2, ctx.D, flipped) == ctx.F


def check_associativity(ctx: FGLContext) -> bool:
    ring, D = ctx.ring, ctx.D
    x3 = Series.variable(ring, 3, D, 0)
    y3 = Series.variable(ring, 3, D, 1)
    z3 = Series.variable(ring, 3, D, 2)
    f_xy = ctx.F.compose([x3, y3])
    f_yz = ctx.F.compose([y3, z3])
    return ctx.F.compose([f_xy, z3]) == ctx.F.compose([x3, f_yz])
