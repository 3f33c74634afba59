"""Truncated formal-group-law arithmetic over local coefficient rings.

Every context fixes a truncation triple (a, b, D): coefficients live in
(Z/p^a)[u_1..u_{n-1}] with monomials of total u-degree >= b dropped, and
series are exact below x-degree D.  All stated equalities hold under that
contract and under nothing stronger.

The p-typical construction works over an exact rational lift first: the
logarithm is built from the standard recursion with the top coefficient set
to one, the group law is recovered by series reversion, every coefficient is
checked to be p-integral, and only then is the law reduced into the modular
coefficient ring.  A failed integrality check is a bug, never tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .abelian import check_prime
from .errors import (
    BadParameters,
    IntegralityFailure,
    InternalMismatch,
    NotWeierstrass,
    PrecisionExhausted,
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


class QPolyRing:
    """Q[u_1..u_r] truncated below total degree b, with Fraction coefficients."""

    def __init__(self, b, nparams):
        self.b = b
        self.r = nparams
        self.zero_exp = (0,) * nparams

    def __eq__(self, other):
        return isinstance(other, QPolyRing) and (self.b, self.r) == (other.b, other.r)

    def __hash__(self):
        return hash(("QPolyRing", self.b, self.r))

    def zero(self):
        return {}

    def one(self):
        return {self.zero_exp: Fraction(1)}

    def const(self, c):
        c = Fraction(c)
        return {self.zero_exp: c} if c else {}

    def param(self, i):
        exp = tuple(1 if j == i - 1 else 0 for j in range(self.r))
        return {exp: Fraction(1)} if self.b > 1 else {}

    def add(self, f, g):
        out = dict(f)
        for e, c in g.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return out

    def neg(self, f):
        return {e: -c for e, c in f.items()}

    def mul(self, f, g):
        out = {}
        b = self.b
        for e1, c1 in f.items():
            d1 = sum(e1)
            for e2, c2 in g.items():
                if d1 + sum(e2) >= b:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return out

    def scale(self, c, f):
        c = Fraction(c)
        if not c:
            return {}
        return {e: c * v for e, v in f.items()}

    def is_p_integral(self, f, p) -> bool:
        return all(c.denominator % p != 0 for c in f.values())

    def reduce(self, f, target: PolyRing):
        out = {}
        for e, c in f.items():
            if c.denominator % target.p == 0:
                raise IntegralityFailure("coefficient %s is not %d-integral" % (c, target.p))
            v = (c.numerator * pow(c.denominator, -1, target.mod)) % target.mod
            if v:
                out[e] = v
        return out


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
        """Substitute args[i] (series without constant term) for variable i."""
        if len(args) != self.nvars:
            raise BadParameters("need one substitution per variable")
        for s in args:
            if s.min_degree() < 1:
                raise BadParameters("substituted series must have zero constant term")
        target = args[0]
        ring, nvars, D = target.ring, target.nvars, target.D
        one = Series(ring, nvars, D, {(0,) * nvars: ring.one()})
        powers = [{0: one} for _ in args]

        def get_power(i, j):
            cache = powers[i]
            if j not in cache:
                cache[j] = get_power(i, j - 1).mul(args[i])
            return cache[j]

        mins = [s.min_degree() for s in args]
        result = Series.zero(ring, nvars, D)
        for e in sorted(self.coeffs, key=sum):
            if sum(ei * mi for ei, mi in zip(e, mins)) >= D:
                continue
            term = one
            for i, ei in enumerate(e):
                if ei:
                    term = term.mul(get_power(i, ei))
            result = result.add(term.scale_poly(self.coeffs[e]))
        return result

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
            cs = ring.poly_str(c) if hasattr(ring, "poly_str") else str(dict(c))
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
    result = Series(ring, 1, D, out)
    return result


@dataclass
class FGLContext:
    """A formal group law over a truncated local coefficient ring.

    ``F`` is the two-variable law, exact below x,y-degree D over ``ring``;
    ``log_rational`` is the rational-lift logarithm when one was used in the
    construction.
    """

    p: int
    n: int
    ring: PolyRing
    D: int
    F: Series
    log_rational: object = None
    label: str = "fgl"
    _nseries_cache: dict = field(default_factory=dict, repr=False)

    def x_var(self, nvars=1, i=0):
        return Series.variable(self.ring, nvars, self.D, i)


def _rational_log(p, n, b, D):
    """log(x) = sum lambda_i x^{p^i} from the standard p-typical recursion
    p*lambda_i = sum_{0<j<=i} lambda_{i-j} v_j^{p^{i-j}}, with v_n = 1,
    v_j = u_j below n, and zero above."""
    qring = QPolyRing(b, n - 1)
    lambdas = [qring.one()]
    i = 1
    while p ** i < D:
        acc = qring.zero()
        for j in range(1, i + 1):
            if j < n:
                v = qring.param(j)
            elif j == n:
                v = qring.one()
            else:
                v = qring.zero()
            if not v:
                continue
            power = qring.one()
            for _ in range(p ** (i - j)):
                power = qring.mul(power, v)
            acc = qring.add(acc, qring.mul(lambdas[i - j], power))
        lambdas.append(qring.scale(Fraction(1, p), acc))
        i += 1
    coeffs = {(p ** i,): lam for i, lam in enumerate(lambdas) if lam}
    return Series(qring, 1, D, coeffs)


def _reversion(log_series: Series) -> Series:
    """exp with exp(log(x)) = x below degree D; log = x + higher terms."""
    qring, D = log_series.ring, log_series.D
    if log_series.coeffs.get((1,)) != qring.one():
        raise BadParameters("logarithm must start with x")
    powers = {1: log_series}
    for m in range(2, D):
        powers[m] = powers[m - 1].mul(log_series)
    exp_coeffs = {(1,): qring.one()}
    for d in range(2, D):
        acc = qring.zero()
        for m in range(1, d):
            em = exp_coeffs.get((m,))
            lm = powers[m].coeffs.get((d,))
            if em and lm:
                acc = qring.add(acc, qring.mul(em, lm))
        if acc:
            exp_coeffs[(d,)] = qring.neg(acc)
    return Series(qring, 1, D, exp_coeffs)


def build_ptypical(p, n, a=4, b=8, D=None) -> FGLContext:
    """The p-typical law of height n: asserts p-integrality of the group law
    before reducing it into (Z/p^a)[u_1..u_{n-1}] / (u-degree >= b)."""
    check_prime(p)
    if n < 1:
        raise BadParameters("height must be >= 1")
    if D is None:
        D = p ** (2 * n) + 1
    if D < p ** n + 1:
        raise TruncationTooSmall("need D >= p^n + 1")
    log = _rational_log(p, n, b, D)
    exp = _reversion(log)
    qring = log.ring
    # S = log(x) + log(y) as a sparse two-variable series
    s_coeffs = {}
    for (e,), c in log.coeffs.items():
        s_coeffs[(e, 0)] = c
        s_coeffs[(0, e)] = dict(c)
    S = Series(qring, 2, D, s_coeffs)
    one2 = Series(qring, 2, D, {(0, 0): qring.one()})
    F_q = Series.zero(qring, 2, D)
    power = one2
    for m in range(1, D):
        power = power.mul(S)
        if not power.coeffs:
            break
        em = exp.coeffs.get((m,))
        if em:
            F_q = F_q.add(power.scale_poly(em))
    ring = PolyRing(p, a, b, n - 1)
    reduced = {}
    for e, c in F_q.coeffs.items():
        if not qring.is_p_integral(c, p):
            raise IntegralityFailure(
                "group-law coefficient at x^%d y^%d is not %d-integral" % (e[0], e[1], p)
            )
        v = qring.reduce(c, ring)
        if v:
            reduced[e] = v
    F = Series(ring, 2, D, reduced)
    return FGLContext(
        p=p, n=n, ring=ring, D=D, F=F, log_rational=log,
        label="ptypical(p=%d, n=%d)" % (p, n),
    )


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
    qring = QPolyRing(1, 0)
    log = Series(
        qring, 1, D,
        {(m,): {(): Fraction((-1) ** (m + 1), m)} for m in range(1, D)},
    )
    return FGLContext(
        p=p, n=1, ring=ring, D=D, F=F, log_rational=log,
        label="multiplicative(p=%d)" % p,
    )


def n_series(ctx: FGLContext, m: int) -> Series:
    """[m](x): [0] = 0, [1] = x and [m] = F(x, [m-1]), exact below degree D;
    the cache holds [0..j], and [j+1..m] are built in a loop, not by recursion."""
    if m < 0:
        raise BadParameters("need m >= 0")
    cache = ctx._nseries_cache
    if not cache:
        cache.update({0: Series.zero(ctx.ring, 1, ctx.D), 1: ctx.x_var()})
    for i in range(len(cache), m + 1):
        cache[i] = ctx.F.compose([ctx.x_var(), cache[i - 1]])
    return cache[m]


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


def torsion_rank(ctx: FGLContext, k: int) -> int:
    """Degree of the prepared [p^k]-series; the p^k-torsion rank p^{kn}."""
    if k < 0:
        raise BadParameters("need k >= 0")
    d = ctx.p ** (k * ctx.n)
    if ctx.D <= d:
        raise TruncationTooSmall("need D > p^{kn} = %d" % d)
    g = n_series(ctx, ctx.p ** k)
    f, _ = weierstrass_prep(ctx, g, d)
    return max(e for (e,) in f.coeffs)


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
