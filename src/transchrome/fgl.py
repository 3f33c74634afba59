"""Truncated formal-group-law arithmetic over local coefficient rings.

Every context fixes a truncation triple (a, b, D): coefficients live in
(Z/p^a)[u_1..u_{n-1}] with monomials of total u-degree >= b dropped, and
series are exact below x-degree D.  All stated equalities hold under that
contract and under nothing stronger.

Every series is in one variable x: one flat dict from an int key to a
coefficient mod p^a, the key packing the x-exponent above the parameter
monomial u.  A coefficient in (Z/p^a)[u] is a series of x-degree 0.  Every
product goes through one kernel, ``_accumulate``: a product of two series,
a Horner step of ``_compose``, a step of the scaled logarithm's recursion
or of ``_reversion``, a Newton step of ``series_inverse`` (its inverse of
the constant term in u included) and a pass of ``weierstrass_prep``.  The
kernel checks the x- and u-degree room before adding two keys, so the
packed exponents never carry, and it reduces mod p^a once per product.
``PolyRing`` only lays out the coefficient ring: its parameters, packing
and printing.  A series decodes into its dict-of-dict view on demand;
arithmetic on that view is a test oracle, not production code.

A law is held by what its [m]-series needs, never as a two-variable
series.  The p-typical law keeps its scaled logarithm g(x) = f(px)/p, which
has no denominators (Hazewinkel's functional-equation lemma), and g^{-1},
both in integers mod p^{a+D-2}.  Then [m]_G(x) = g^{-1}(m g(x)) =
[m]_F(px)/p is one Horner pass, and the x^d coefficient of [m]_F is that of
[m]_G divided by p^{d-1}.  That division must be exact: a remainder is an
integrality failure, a bug, never tolerated.  The multiplicative law
x + y + xy has [m](x) = (1+x)^m - 1.

The checks that run in production are that division, the re-multiplication
f*u = g of every Weierstrass preparation and, at its callers, the prepared
degree p^{kn}.  The group-law axioms and [m1 + m2] = F([m1], [m2]) are
identities of the two-variable law, which only the tests build, as oracles.
``check_work`` refuses a request before any series is built if the term
pairs the kernel is predicted to visit, weighted by integer width, exceed
``WORK_CAP``.  At the default (a, b, D) = (4, 8, p^{2n} + 1) it admits
height 1 to p = 23, 2 to p = 5, 3 to p = 3 and 4 at p = 2, each answered
cold in under 3 s (2 vCPUs), and refuses p = 7 at height 2 (10-13 s).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict

from .checks import check_prime, power_exceeds
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
    """The layout of (Z/p^a)[u_1..u_r] truncated below total degree b: a
    coefficient is a dict from exponent tuples to nonzero ints mod p^a, and
    a series packs each monomial into one int below M = b^r, its exponents
    as base-b digits, u_1's the lowest (``unpack`` decodes one).  The ring
    does no arithmetic; every product is a series product."""

    def __init__(self, p, a, b, nparams):
        check_prime(p)
        if a < 1 or b < 1 or nparams < 0:
            raise BadParameters("need a, b >= 1 and nparams >= 0")
        self.p = p
        self.a = a
        self.b = b
        self.r = nparams
        self.mod = p ** a
        self.M = b ** nparams

    def __eq__(self, other):
        return isinstance(other, PolyRing) and (self.p, self.a, self.b, self.r) == (
            other.p, other.a, other.b, other.r
        )

    def __hash__(self):
        return hash(("PolyRing", self.p, self.a, self.b, self.r))

    def unpack(self, u):
        e = []
        for _ in range(self.r):
            u, d = divmod(u, self.b)
            e.append(d)
        return tuple(e)

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
    """A truncated power series in x over ``ring``, exact below x-degree D.

    Its terms are one flat dict ``terms`` from an int key to a nonzero int
    mod p^a.  The key packs the x-exponent above the parameter monomial u,
    itself packed base b (``PolyRing.unpack``): x^e times u is e*M + u, with
    M = ring.M.  ``coeffs`` and ``term_list`` decode the terms on demand.
    Every product goes through one kernel, ``_accumulate``.
    """

    __slots__ = ("ring", "D", "terms", "_graded", "_tables")

    def __init__(self, ring, D, terms):
        """The series of packed terms, already reduced mod p^a and nonzero,
        of x-degree below D and u-degree below b."""
        self.ring = ring
        self.D = D
        self.terms = terms
        self._graded = None
        self._tables = {}

    def _like(self, terms):
        return Series(self.ring, self.D, terms)

    def _reduced(self, out):
        """A series like this one over the terms of ``out`` reduced mod p^a."""
        mod = self.ring.mod
        return self._like({key: r for key, v in out.items() if (r := v % mod)})

    @classmethod
    def zero(cls, ring, D):
        return cls(ring, D, {})

    def _by_degree(self):
        """(x-degree, u-degree, key, c) of every term, sorted; decoded once."""
        graded = self._graded
        if graded is None:
            M, b = self.ring.M, self.ring.b
            graded = []
            for key, c in self.terms.items():
                dx, u = divmod(key, M)
                du = 0
                while u:
                    u, d = divmod(u, b)
                    du += d
                graded.append((dx, du, key, c))
            graded.sort()
            self._graded = graded
        return graded

    def _table(self, spare):
        """(x-degrees, [(key, c)]) of the terms of u-degree < spare, by
        rising x-degree; kept per spare."""
        table = self._tables.get(spare)
        if table is None:
            kept = [t for t in self._by_degree() if t[1] < spare]
            table = self._tables[spare] = ([t[0] for t in kept], [(t[2], t[3]) for t in kept])
        return table

    @property
    def coeffs(self):
        """{x-exponent: {u-exponent tuple: c}}, decoded."""
        M, unpack = self.ring.M, self.ring.unpack
        out = {}
        for key, c in self.terms.items():
            e, u = divmod(key, M)
            out.setdefault(e, {})[unpack(u)] = c
        return out

    def add(self, other):
        mod = self.ring.mod
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = (out.get(key, 0) + c) % mod
            if v:
                out[key] = v
            else:
                del out[key]
        return self._like(out)

    def neg(self):
        mod = self.ring.mod
        return self._like({key: mod - c for key, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        return _product(self, other, self.D)

    def degree(self):
        graded = self._by_degree()
        return graded[-1][0] if graded else -1

    def min_degree(self):
        graded = self._by_degree()
        return graded[0][0] if graded else self.D

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.ring == other.ring
            and self.D == other.D
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.D, frozenset(self.terms.items())))

    def term_list(self):
        return sorted(self.coeffs.items())

    def series_str(self):
        ring = self.ring
        parts = []
        for e, c in self.term_list():
            mono = "x^%d" % e if e > 1 else "x" if e else ""
            cs = ring.poly_str(c)
            if "+" in cs or "*" in cs:
                cs = "(%s)" % cs
            parts.append(cs if not mono else "%s*%s" % (cs, mono))
        return " + ".join(parts) if parts else "0"


def _accumulate(out, f, g, limit):
    """The product kernel: add f*g below x-degree ``limit`` into the
    defaultdict ``out``, unreduced.

    Terms of the shorter series run over those of the longer one that fit:
    x-degree below limit - dx and u-degree below b - du, read off the
    longer series' table for that u-degree room.  The room is checked
    before any key is added, so the packed exponents never carry, and a
    product of terms is one int add of keys and one int multiply."""
    if len(g.terms) < len(f.terms):
        f, g = g, f
    b = f.ring.b
    for dx, du, key, c in f._by_degree():
        room = limit - dx
        if room <= 0:
            break
        degrees, terms = g._table(b - du)
        for k, v in terms[:bisect_left(degrees, room)]:
            out[key + k] += c * v


def _product(f, g, limit):
    """f*g below x-degree ``limit``, reduced mod p^a once."""
    out = defaultdict(int)
    _accumulate(out, f, g, limit)
    return f._reduced(out)


def series_inverse(s: Series) -> Series:
    """Multiplicative inverse of a series with unit constant term, by
    Newton's iteration t <- t + t*(1 - s*t).  From the inverse of the
    constant term mod p^a, passes at x-limit 1 invert s(0) in u: the error
    1 - s(0)*t has u-degree >= 1 and each pass squares it, so
    bit_length(b) passes clear u-degree b.  Then each pass doubles the
    x-precision."""
    ring, D = s.ring, s.D
    c0 = s.terms.get(0, 0)
    if c0 % ring.p == 0:
        raise BadParameters("series has non-unit constant term")
    one = s._like({0: 1})
    t = s._like({0: pow(c0, -1, ring.mod)})
    limits = [1] * ring.b.bit_length()
    precision = 1
    while precision < D:
        precision = min(2 * precision, D)
        limits.append(precision)
    for limit in limits:
        error = one.sub(_product(s, t, limit))
        t = t.add(_product(t, error, limit))
    return t


def _compose(f: Series, s: Series) -> Series:
    """f(s(x)) below degree D, for s without constant term, by Horner's
    rule over f's degrees: H_d = f_d + s*H_{d+1}, each step needed only
    below D - d*m for m the lowest degree of s."""
    m = s.min_degree()
    if m < 1:
        raise BadParameters("substituted series must have zero constant term")
    D, M = f.D, f.ring.M
    heads = {}
    for key, c in f.terms.items():
        d, u = divmod(key, M)
        if d * m < D:
            heads.setdefault(d, []).append((u, c))
    H = f._like({})
    for d in range(max(heads, default=-1), -1, -1):
        step = defaultdict(int)
        _accumulate(step, s, H, D - d * m)
        for u, c in heads.get(d, ()):
            step[u] += c
        H = f._reduced(step)
    return H


class FGLContext:
    """A formal group law over a truncated local coefficient ring, exact
    below x-degree D over ``ring``.

    A p-typical law keeps its scaled logarithm ``log`` = g and ``exp`` =
    g^{-1}, both over Z/p^{a+D-2}; the multiplicative law keeps neither.
    """

    __slots__ = ("p", "n", "ring", "D", "log", "exp", "label")

    def __init__(self, p, n, ring, D, log=None, exp=None, label="fgl"):
        self.p = p
        self.n = n
        self.ring = ring
        self.D = D
        self.log = log
        self.exp = exp
        self.label = label


def _scaled_log(p, n, ring, D):
    """g(x) = f(px)/p = sum mu_i p^{p^i-1-i} x^{p^i} for the p-typical
    logarithm f = sum lambda_i x^{p^i}, with mu_i = p^i lambda_i from
    mu_i = sum_{0<j<=i} p^{j-1} mu_{i-j} v_j^{p^{i-j}}, v_n = 1, v_j = u_j
    below n and zero above.  No step divides, and p^i - 1 >= i, so every
    coefficient is integral.

    Each mu_i is a series of x-degree 0, and each term of the recursion and
    of g is one product with a monomial: u_j^e, with coefficient p^{j-1},
    has the key e*b^{j-1}, and the kernel drops the terms past the u-degree
    room."""
    zero = Series.zero(ring, D)
    mus = [zero._like({0: 1})]
    g = defaultdict(int)
    i = 0
    while p ** i < D:
        if i:
            mu = defaultdict(int)
            for j in range(1, min(i, n) + 1):
                e = p ** (i - j)
                if j < n and e >= ring.b:
                    continue
                key = 0 if j == n else e * ring.b ** (j - 1)
                _accumulate(mu, mus[i - j], zero._like({key: p ** (j - 1)}), 1)
            mus.append(zero._reduced(mu))
        _accumulate(g, mus[i], zero._like({p ** i * ring.M: p ** (p ** i - 1 - i)}), D)
        i += 1
    return zero._reduced(g)


def _reversion(log: Series) -> Series:
    """exp with exp(log(x)) = x below degree D; log = x + higher terms.

    With S = sum_{m<d} e_m log^m, the x^d coefficient of exp(log(x)) = x
    gives e_d = -[x^d] S for d >= 2, since log^d starts with x^d."""
    ring, D, M = log.ring, log.D, log.ring.M
    if log.terms.get(M) != 1 or any(M < key < 2 * M for key in log.terms):
        raise BadParameters("logarithm must start with x")
    exp = {M: 1}
    S = power = log
    for d in range(2, D):
        power = power.mul(log)
        lo = d * M
        e_d = {key - lo: ring.mod - c for key, c in S.terms.items() if lo <= key < lo + M}
        if e_d:
            exp.update((key + lo, c) for key, c in e_d.items())
            S = S.add(power.mul(log._like(e_d)))
    return log._like(exp)


def build_ptypical(p, n, a=4, b=8, D=None) -> FGLContext:
    """The p-typical law of height n over (Z/p^a)[u_1..u_{n-1}] / (u-degree
    >= b), exact below degree D.

    The law is held by its scaled logarithm g and g^{-1}, built in integers
    mod p^{a+D-2}; ``n_series`` reads [m] off them.  No two-variable series
    is formed.
    """
    check_prime(p)
    if n < 1:
        raise BadParameters("height must be >= 1")
    if D is None:
        D = default_degree(p, n)
    if power_exceeds(p, n, D - 1):
        raise TruncationTooSmall("need D >= p^n + 1")
    g = _scaled_log(p, n, PolyRing(p, a + D - 2, b, n - 1), D)
    return FGLContext(
        p=p, n=n, ring=PolyRing(p, a, b, n - 1), D=D, log=g, exp=_reversion(g),
        label="ptypical(p=%d, n=%d)" % (p, n),
    )


def default_degree(p, n) -> int:
    """The default x-degree truncation D = p^{2n} + 1 of a p-typical law."""
    return p ** (2 * n) + 1


WORK_CAP = 10 ** 7  # weighted pairs, 0.2-0.5 us each: about 5 s cold


def _predicted_work(p, n, k, a, b, D, law):
    """Term pairs ``_accumulate`` visits for the prepared [p^k], weighted by
    integer width, 1 + (bits/700)^2.  A graded series fills 1/(p-1) of the
    x-degrees and (p-1)/(p^n-1) of the u-monomials, of u-degree under
    (D-1)/(p-1).  ``_reversion`` and ``n_series``'s Horner pass multiply by
    the L-term g, sum_i (D - p^i)^2 / 2 pairs per unit density, mod
    p^{a+D-2}; ``weierstrass_prep``'s ungraded Newton and a + 2 division
    passes (one if g_high is 1) run mod p^a.  (1+x)^m - 1 stops at x^m."""
    d = p ** (k * n)
    prep = 2 * (b.bit_length() + D.bit_length())  # a pair per product of a Newton pass
    prep_width = 1 + (a * math.log2(p) / 700) ** 2
    if law == "multiplicative":
        return d * (1 + (d / 700) ** 2 * d.bit_length()) + (2 * d + prep) * prep_width
    rho, share = 1 / (p - 1), (p - 1) / (p ** n - 1)
    logs = triangle = 0
    while p ** logs < D:
        triangle += (D - p ** logs) ** 2
        logs += 1
    room = min(b, (D - 1) // (2 * (p - 1)) + 1)
    horner = rho * math.comb(room + n - 2, n - 1) * share * triangle / 2
    s, pairs = D - d, math.comb(b + 2 * n - 3, 2 * n - 2) * share * share
    inverse, passes = (D * D / 6 + s * (D - s / 2), a + 2) if s > 1 and k else (0, 1)
    division = passes * (s * D - s * s / 2 + (d * D - d * d / 2) / 2)
    prep += b.bit_length() * pairs + rho * rho * pairs * (inverse + division)
    return 2 * horner * (1 + ((a + D - 2) * math.log2(p) / 700) ** 2 / logs) + prep * prep_width


def check_work(p, n, k, a, b, D=None, law="ptypical"):
    """Raise ResourceLimit if the prepared [p^k]-series of a law is predicted
    to visit more than WORK_CAP weighted term pairs (``_predicted_work``).
    A law the builders refuse is left to them; a level k that cannot be
    prepared below D is refused here, before the law is built."""
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
    if (work := _predicted_work(p, n, k, a, b, D, law)) > WORK_CAP:
        raise ResourceLimit("predicted fgl work %.3g exceeds cap %d" % (work, WORK_CAP))


def multiplicative_context(p, a=4, D=8) -> FGLContext:
    """The exact multiplicative law F = x + y + xy (height one)."""
    check_prime(p)
    if D < p + 1:
        raise TruncationTooSmall("need D >= p + 1")
    ring = PolyRing(p, a, 1, 0)
    return FGLContext(p=p, n=1, ring=ring, D=D, label="multiplicative(p=%d)" % p)


def n_series(ctx: FGLContext, m: int) -> Series:
    """[m](x), exact below degree D.

    For the multiplicative law it is (1+x)^m - 1, whose m binomials stop at
    x^m.  For a p-typical law, [m]_G(x) = g^{-1}(m g(x)) = [m]_F(px)/p is
    one Horner pass over g^{-1} in integers mod p^{a+D-2}, and [m]_F's x^d
    coefficient is [m]_G's divided by p^{d-1}, leaving a digits.  That
    division must be exact: a p in the denominator of a coefficient of
    [m]_F would leave a remainder, and raises ``IntegralityFailure``."""
    if m < 0:
        raise BadParameters("need m >= 0")
    ring, D, p = ctx.ring, ctx.D, ctx.p
    if ctx.log is None:
        binomials = {e * ring.M: math.comb(m, e) for e in range(1, min(D, m + 1))}
        return Series.zero(ring, D)._reduced(binomials)
    g = ctx.log
    G = _compose(ctx.exp, g._reduced({key: m * c for key, c in g.terms.items()}))
    terms = {}
    for key, c in G.terms.items():
        d = key // ring.M
        shift = p ** (d - 1)
        if c % shift:
            raise IntegralityFailure(
                "[%d]-series coefficient at x^%d is not %d-integral" % (m, d, p)
            )
        v = c // shift % ring.mod
        if v:
            terms[key] = v
    return Series(ring, D, terms)


def _split_at(s: Series, d: int):
    """(the terms of s below x^d, the rest divided by x^d)."""
    cut = d * s.ring.M
    low = {key: c for key, c in s.terms.items() if key < cut}
    high = {key - cut: c for key, c in s.terms.items() if key >= cut}
    return s._like(low), s._like(high)


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
    units = residue_series(ctx, g)
    if min(units, default=d) < d:
        raise NotWeierstrass("coefficient of x^%d is a unit below degree %d" % (min(units), d))
    if d not in units:
        raise NotWeierstrass("coefficient of x^%d is not a unit" % d)

    g_low, g_high = _split_at(g, d)
    ginv_high = series_inverse(g_high)
    x_d = Series(ring, D, {d * ring.M: 1})
    q = Series.zero(ring, D)
    cur = x_d
    for _ in range(ring.a + ring.b + 2):
        low, hi = _split_at(cur, d)
        if not hi.terms:
            break
        q_step = hi.mul(ginv_high)
        q = q.add(q_step)
        cur = low.sub(q_step.mul(g_low))
    else:
        raise PrecisionExhausted("division did not terminate at this precision")
    r = cur
    f = x_d.sub(r)
    if min(residue_series(ctx, f), default=d) < d:
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


def residue_series(ctx: FGLContext, s: Series) -> dict:
    """Coefficients in the residue field: parameters killed, reduced mod p."""
    M, p = ctx.ring.M, ctx.p
    out = {}
    for key, c in s.terms.items():
        e, u = divmod(key, M)
        if not u and c % p:
            out[e] = c % p
    return out
