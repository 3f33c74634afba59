import functools
import math
import sys
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from transchrome import fgl
from transchrome.cli import main
from transchrome.errors import (
    BadParameters,
    IntegralityFailure,
    NotWeierstrass,
    ResourceLimit,
    TruncationTooSmall,
)
from transchrome.fgl import (
    PolyRing,
    Series,
    _accumulate,
    _compose,
    _reversion,
    build_ptypical,
    check_work,
    multiplicative_context,
    n_series,
    prepare_p_series,
    residue_series,
    series_inverse,
    weierstrass_prep,
)

from oracles import ModPolyRing, coeff, param, series_of, torsion_rank, zero_exp


# -- the dict-of-dict series: the oracle for the packed product kernel --


class DictSeries:
    """A truncated power series in ``nvars`` variables over ``ring``;
    coefficients indexed by exponent tuples of total degree < D, each a
    ring element, with one ``ring.mul`` per pair of terms.  It works over
    any ring with ``add``, ``neg``, ``mul``, ``zero`` and ``one``: the
    modular ``ModPolyRing`` and the rational ``QPolyRing``."""

    def __init__(self, ring, nvars, D, coeffs):
        self.ring = ring
        self.nvars = nvars
        self.D = D
        self.coeffs = {e: c for e, c in coeffs.items() if sum(e) < D and c}

    @classmethod
    def zero(cls, ring, nvars, D):
        return cls(ring, nvars, D, {})

    def _like(self, coeffs):
        return DictSeries(self.ring, self.nvars, self.D, coeffs)

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

    def min_degree(self):
        return min((sum(e) for e in self.coeffs), default=self.D)

    def compose(self, args):
        """Substitute args[i] (series without constant term) for variable
        i: each power of a substituted series is built once and multiplies
        the sum of the terms it heads once."""
        ring, nvars, D = args[0].ring, args[0].nvars, args[0].D
        one = DictSeries(ring, nvars, D, {(0,) * nvars: ring.one()})
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
            out = DictSeries.zero(ring, nvars, D)
            for j in sorted(groups):
                out = out.add(power(i, j).mul(evaluate(groups[j], i + 1)))
            return out

        mins = [s.min_degree() for s in args]
        terms = [
            (e, c) for e, c in self.coeffs.items()
            if sum(ei * mi for ei, mi in zip(e, mins)) < D
        ]
        return evaluate(terms, 0)


def dict_reversion(log):
    """exp with exp(log(x)) = x below degree D, coefficient by coefficient:
    e_d = -sum_{m<d} e_m [x^d] log^m."""
    ring, D = log.ring, log.D
    powers = {1: log}
    for m in range(2, D):
        powers[m] = powers[m - 1].mul(log)
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
    return DictSeries(ring, 1, D, exp_coeffs)


# -- the rational lift: the test oracle for the integral build --


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
        for e1, c1 in f.items():
            d1 = sum(e1)
            for e2, c2 in g.items():
                if d1 + sum(e2) >= self.b:
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
        return {e: c * v for e, v in f.items()} if c else {}

    def reduce(self, f, target):
        out = {}
        for e, c in f.items():
            if c.denominator % target.p == 0:
                raise IntegralityFailure("coefficient %s is not %d-integral" % (c, target.p))
            v = (c.numerator * pow(c.denominator, -1, target.mod)) % target.mod
            if v:
                out[e] = v
        return out


def rational_log(p, n, b, D):
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
    return DictSeries(qring, 1, D, {(p ** i,): lam for i, lam in enumerate(lambdas) if lam})


def multiplicative_log(D):
    """log(1 + x) = sum (-1)^(m+1) x^m / m, the logarithm of x + y + xy."""
    qring = QPolyRing(1, 0)
    return DictSeries(qring, 1, D, {(m,): {(): Fraction((-1) ** (m + 1), m)} for m in range(1, D)})


def reduce_series(s, ring):
    ring = ModPolyRing.of(ring)
    return DictSeries(ring, s.nvars, s.D, {e: s.ring.reduce(c, ring) for e, c in s.coeffs.items()})


def packed(s):
    """The production series of a one-variable oracle series."""
    return series_of(s.ring, s.D, {e: c for (e,), c in s.coeffs.items()})


def as_dict(s):
    """The one-variable oracle series of a production series."""
    return DictSeries(ModPolyRing.of(s.ring), 1, s.D, {(e,): c for e, c in s.coeffs.items()})


def law_from_log(log, ring):
    """exp(log x + log y) over the rational lift, reduced into ``ring``:
    reducing raises IntegralityFailure on a p in a denominator."""
    qring, D = log.ring, log.D
    exp = dict_reversion(log)
    s_coeffs = {}
    for (e,), c in log.coeffs.items():
        s_coeffs[(e, 0)] = c
        s_coeffs[(0, e)] = c
    S = DictSeries(qring, 2, D, s_coeffs)
    law = DictSeries.zero(qring, 2, D)
    power = DictSeries(qring, 2, D, {(0, 0): qring.one()})
    for m in range(1, D):
        power = power.mul(S)
        if not power.coeffs:
            break
        em = exp.coeffs.get((m,))
        if em:
            law = law.add(power.scale_poly(em))
    return reduce_series(law, ring)


@functools.lru_cache(maxsize=None)
def rational_exp(p, n, b, D):
    """The rational p-typical logarithm and its reversion."""
    log = rational_log(p, n, b, D)
    return log, dict_reversion(log)


def n_series_via_rational_log(ctx, m):
    # independent route: [m](x) = exp(m * log(x)) over the rational lift,
    # reduced into the modular coefficient ring afterwards
    log, exp = rational_exp(ctx.p, ctx.n, ctx.ring.b, ctx.D)
    qring = log.ring
    scaled = DictSeries(qring, 1, ctx.D, {e: qring.scale(m, c) for e, c in log.coeffs.items()})
    return packed(reduce_series(exp.compose([scaled]), ctx.ring))


# -- the full-plane Horner build: the two-variable oracle law --


def times_log_sum(g, H, D):
    """(g(x) + g(y)) * H below degree D, for a two-variable series H given by
    its coefficient dict: each g_q * H_(i,j) is formed once and added at
    (i + q, j) and (i, j + q)."""
    ring = g.ring
    out = {}
    for q, s in g.coeffs.items():
        for (i, j), c in H.items():
            if i + j + q >= D:
                continue
            v = ring.mul(s, c)
            for e in ((i + q, j), (i, j + q)):
                acc = out.get(e)
                out[e] = v if acc is None else ring.add(acc, v)
    return {e: c for e, c in out.items() if c}


@functools.lru_cache(maxsize=None)
def full_plane_G(p, n, a, b, D):
    """G = g^{-1}(g(x) + g(y)) mod p^(a+D-2) by Horner over dict-of-dict
    polynomials, forming (i, j) and (j, i) separately."""
    wide = ModPolyRing(p, a + D - 2, b, n - 1)
    g = fgl._scaled_log(p, n, wide, D)
    exp = _reversion(g)
    H = {}
    for m in range(D - 1, 0, -1):
        H = times_log_sum(g, H, D - m)
        H[(0, 0)] = wide.add(H.get((0, 0), {}), coeff(exp, m))
    return times_log_sum(g, H, D)


@functools.lru_cache(maxsize=None)
def full_plane_law(p, n, a, b, D):
    """The p-typical law F(x, y) = G(px, py)/p: F_d = G_d / p^(d-1)."""
    ring = ModPolyRing(p, a, b, n - 1)
    reduced = {}
    for e, c in full_plane_G(p, n, a, b, D).items():
        shift = p ** (sum(e) - 1)
        assert not any(v % shift for v in c.values())
        reduced[e] = ring.scale(1, {u: v // shift for u, v in c.items()})
    return DictSeries(ring, 2, D, reduced)


def law_of(ctx):
    """The two-variable oracle law of a context: x + y + xy, or the
    full-plane p-typical law."""
    ring, D = ModPolyRing.of(ctx.ring), ctx.D
    if ctx.log is None:
        one = ring.one()
        return DictSeries(ring, 2, D, {(1, 0): one, (0, 1): one, (1, 1): one})
    return full_plane_law(ctx.p, ctx.n, ring.a, ring.b, D)


def law_sum(law, s, t):
    """F(s, t) for a two-variable oracle law F and series s, t without
    constant term: sum_i s^i * (sum_j F_ij t^j) by Horner's rule in s, every
    product through the packed kernel, which is checked against the
    dict-of-dict oracle below."""
    ring, D = s.ring, s.D
    rows = defaultdict(list)
    for (i, j), c in law.coeffs.items():
        rows[i].append((j, series_of(ring, D, {0: c})))
    powers = [series_of(ring, D, {0: law.ring.one()})]
    H = Series.zero(ring, D)
    for i in range(max(rows, default=0), -1, -1):
        out = defaultdict(int)
        _accumulate(out, s, H, D)
        for j, c in rows.get(i, ()):
            while len(powers) <= j:
                powers.append(powers[-1].mul(t))
            _accumulate(out, c, powers[j], D)
        H = s._reduced(out)
    return H


def n_series_by_doubling(law, ms):
    """{m: [m](x)} for m in ms by doubling over a two-variable oracle law:
    [2j] = F([j], [j]) and [2j+1] = F([2j], x)."""
    ring, D = law.ring, law.D
    x = series_of(ring, D, {1: ring.one()})
    out = {0: Series.zero(ring, D), 1: x}

    def series(m):
        if m not in out:
            half = series(m // 2)
            even = law_sum(law, half, half)
            out[m] = law_sum(law, even, x) if m % 2 else even
        return out[m]

    return {m: series(m) for m in ms}


def n_series_by_addition(law, m):
    # [m] = F(x, [m-1]), m - 1 compositions
    ring, D = law.ring, law.D
    x = series_of(ring, D, {1: ring.one()})
    out = Series.zero(ring, D)
    for _ in range(m):
        out = law_sum(law, x, out)
    return out


def unit_axiom(law):
    ring, D = law.ring, law.D
    x = DictSeries(ring, 1, D, {(1,): ring.one()})
    return law.compose([x, DictSeries.zero(ring, 1, D)]).coeffs == x.coeffs


def commutative(law):
    return law.coeffs == {(j, i): c for (i, j), c in law.coeffs.items()}


def associative(law):
    ring, D = law.ring, law.D
    x, y, z = (
        DictSeries(ring, 3, D, {tuple(int(i == k) for i in range(3)): ring.one()})
        for k in range(3)
    )
    left = law.compose([law.compose([x, y]), z])
    return left.coeffs == law.compose([x, law.compose([y, z])]).coeffs


ORACLE_LAWS = [
    # the p-typical fgl-cold benchmark laws (its fifth, x + y + xy, is not built)
    (3, 2, 4, 8, 40), (2, 3, 4, 8, 33), (2, 2, 4, 8, 17), (5, 1, 4, 8, 30),
    # criterion 10
    (3, 2, 3, 6, 10),
] + [
    # low precision: a, b in {1, 2}, heights 1-3, D just past p^n
    (p, n, a, b, p ** n + extra)
    for p, extra in ((2, 1), (3, 2)) for n in (1, 2, 3) for a in (1, 2) for b in (1, 2)
]


@pytest.mark.parametrize("p,n,a,b,D", ORACLE_LAWS)
def test_half_plane_build_matches_full_plane_oracle(p, n, a, b, D):
    # the oracle forms G(x, y) and G(y, x) apart; their agreement is the
    # symmetry that lets a law be read off its half plane i <= j, and the
    # law divided out of G has x as its unit
    G = full_plane_G(p, n, a, b, D)
    assert G == {(j, i): c for (i, j), c in G.items()}
    assert unit_axiom(full_plane_law(p, n, a, b, D))


@pytest.mark.parametrize("p,n,a,b,D", ORACLE_LAWS)
def test_n_series_matches_oracle_laws_for_every_m(p, n, a, b, D):
    # every m up to 3p^2, not only powers of p: the one-variable [m] is
    # doubling over the full-plane oracle law, and exp(m log x) over the
    # rational lift
    ctx = build_ptypical(p, n, a=a, b=b, D=D)
    ms = range(3 * p * p + 1)
    by_doubling = n_series_by_doubling(full_plane_law(p, n, a, b, D), ms)
    for m in ms:
        got = n_series(ctx, m)
        assert got == by_doubling[m]
        assert got == n_series_via_rational_log(ctx, m)


# -- the packed kernel against the dict-of-dict oracle --

# the largest x-truncation drawn, so that the oracle's products stay small
MAX_DEGREE = 12


@st.composite
def rings(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    a = draw(st.integers(min_value=1, max_value=4))
    b = draw(st.sampled_from([1, 2, 8]))
    n = draw(st.integers(min_value=1, max_value=3))
    return ModPolyRing(p, a, b, n - 1)


@st.composite
def series_coeffs(draw, ring, D, max_terms=6, constant=True):
    """Coefficients of a random series: x-degrees often at D - 1, the top
    degree a product may reach; u-degrees often at b - 1."""
    coeffs = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        low = 0 if constant else 1
        e = draw(st.one_of(st.just(D - 1), st.integers(min_value=low, max_value=D - 1)))
        poly = coeffs.setdefault(e, {})
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            top = ring.b - 1
            du = draw(st.one_of(st.just(top), st.integers(min_value=0, max_value=top)))
            ue = [0] * ring.r
            for _ in range(du if ring.r else 0):
                ue[draw(st.integers(0, ring.r - 1))] += 1
            poly[tuple(ue)] = draw(st.integers(min_value=1, max_value=ring.mod - 1))
    return coeffs


def dict_series(ring, D, coeffs):
    """The oracle series of the same coefficients, cleaned as ``series_of``
    cleans them: u-degrees >= b dropped, values reduced."""
    return DictSeries(ring, 1, D, {
        (e,): ring.scale(1, {u: c for u, c in poly.items() if sum(u) < ring.b})
        for e, poly in coeffs.items()
    })


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_packed_product_matches_dict_oracle(data):
    ring = data.draw(rings())
    D = data.draw(st.integers(min_value=1, max_value=MAX_DEGREE))
    f, g = (data.draw(series_coeffs(ring, D)) for _ in range(2))
    packed_f, packed_g = series_of(ring, D, f), series_of(ring, D, g)
    oracle_f, oracle_g = dict_series(ring, D, f), dict_series(ring, D, g)
    assert as_dict(packed_f).coeffs == oracle_f.coeffs
    assert as_dict(packed_f.mul(packed_g)).coeffs == oracle_f.mul(oracle_g).coeffs
    assert as_dict(packed_f.add(packed_g)).coeffs == oracle_f.add(oracle_g).coeffs


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_packed_compose_matches_dict_oracle(data):
    ring = data.draw(rings())
    D = data.draw(st.integers(min_value=2, max_value=MAX_DEGREE))
    f = data.draw(series_coeffs(ring, D))
    s = data.draw(series_coeffs(ring, D, max_terms=3, constant=False))
    got = _compose(series_of(ring, D, f), series_of(ring, D, s))
    assert as_dict(got).coeffs == dict_series(ring, D, f).compose([dict_series(ring, D, s)]).coeffs


@pytest.mark.parametrize("p,n,a,b,D", [
    (2, 2, 4, 8, 17), (3, 2, 3, 6, 10), (5, 1, 4, 8, 30), (2, 3, 2, 2, 12),
])
def test_reversion_matches_dict_oracle(p, n, a, b, D):
    ring = ModPolyRing(p, a + D - 2, b, n - 1)
    g = fgl._scaled_log(p, n, ring, D)
    assert as_dict(_reversion(g)).coeffs == dict_reversion(as_dict(g)).coeffs


def test_reversion_requires_a_log_starting_with_x():
    # the x coefficient must be exactly 1: not 3, not 1 + u1, not missing
    ring = PolyRing(2, 4, 3, 1)
    log = {1: {(0,): 1}, 2: {(1,): 1}, 3: {(0,): 5}}
    exp = _reversion(series_of(ring, 6, log))
    assert _compose(exp, series_of(ring, 6, log)) == series_of(ring, 6, {1: {(0,): 1}})
    for head in ({(0,): 3}, {(0,): 1, (1,): 1}, {}):
        with pytest.raises(BadParameters):
            _reversion(series_of(ring, 6, {**log, 1: head}))


@pytest.fixture(scope="module")
def mult():
    return multiplicative_context(2, a=4, D=8)


@pytest.fixture(scope="module")
def height2():
    return build_ptypical(2, 2, a=4, b=8, D=17)


@pytest.fixture(scope="module")
def height2_p3():
    return build_ptypical(3, 2, a=3, b=6, D=10)


def coeff_int(series, e):
    ring = series.ring
    poly = coeff(series, e)
    return poly.get(zero_exp(ring), 0)


def test_multiplicative_two_series(mult):
    s2 = n_series(mult, 2)
    assert coeff_int(s2, 1) == 2
    assert coeff_int(s2, 2) == 1
    assert s2.degree() == 2


def test_multiplicative_four_series_is_binomial(mult):
    s4 = n_series(mult, 4)
    for e in range(1, 5):
        assert coeff_int(s4, e) == math.comb(4, e) % 16


def test_multiplicative_n_series_closed_form(mult):
    # [m](x) = (1+x)^m - 1, exactly, below the truncation
    for m in range(1, 8):
        sm = n_series(mult, m)
        for e in range(1, mult.D):
            assert coeff_int(sm, e) == math.comb(m, e) % mult.ring.mod


def test_n_series_iterates_past_the_recursion_limit(mult):
    # [m](x) = (1+x)^m - 1; an m beyond the recursion limit must not recurse
    m = sys.getrecursionlimit() + 10
    sm = n_series(mult, m)
    for e in range(1, mult.D):
        assert coeff_int(sm, e) == math.comb(m, e) % mult.ring.mod


def test_n_series_matches_rational_log_route(height2, height2_p3):
    h1 = build_ptypical(2, 1, a=4, b=1, D=9)
    for ctx, ms in ((h1, (2, 3, 4)), (height2, (2, 3, 4)), (height2_p3, (2, 3))):
        for m in ms:
            assert n_series(ctx, m) == n_series_via_rational_log(ctx, m)


def test_n_series_doubling_matches_repeated_addition(mult, height2):
    for ctx in (mult, height2):
        law = law_of(ctx)
        by_doubling = n_series_by_doubling(law, range(10))
        for m in range(10):
            assert n_series(ctx, m) == by_doubling[m] == n_series_by_addition(law, m)


@pytest.mark.parametrize("p,n,a,b,D", [
    (2, 1, 4, 1, 9), (3, 1, 3, 1, 10), (2, 2, 4, 8, 17), (3, 2, 3, 6, 10),
    (5, 1, 4, 8, 30), (3, 2, 4, 8, 40), (2, 3, 4, 4, 12), (2, 3, 4, 8, 17),
])
def test_integral_build_matches_rational_lift(p, n, a, b, D):
    # the law built in integers from g is the rational lift's, and [p] and
    # [p + 1] read off g are doubling over it
    ctx = build_ptypical(p, n, a=a, b=b, D=D)
    law = law_from_log(rational_log(p, n, b, D), ctx.ring)
    assert law.coeffs == full_plane_law(p, n, a, b, D).coeffs
    by_doubling = n_series_by_doubling(law, (p, p + 1))
    for m in (p, p + 1):
        assert n_series(ctx, m) == by_doubling[m]


def test_broken_scaled_log_fails_the_divisibility_check(monkeypatch, capsys):
    # one scaled-log coefficient off by one: some coefficient of [p^k] read
    # off g is no longer divisible by p^(d-1), a verification failure
    # (exit 4), not a domain error
    scaled_log = fgl._scaled_log

    def broken(p, n, ring, D):
        coeffs = scaled_log(p, n, ring, D).coeffs
        arith = ModPolyRing.of(ring)
        coeffs[p] = arith.add(coeffs[p], arith.one())
        return series_of(ring, D, coeffs)

    monkeypatch.setattr(fgl, "_scaled_log", broken)
    ctx = build_ptypical(2, 2, D=17)
    with pytest.raises(IntegralityFailure):
        prepare_p_series(ctx, 1)
    assert main(["fgl", "--p", "2", "--n", "2", "--deg", "17", "--json"]) == 4
    assert "verification failure" in capsys.readouterr().err


@pytest.mark.parametrize("p,n,k,D", [
    # the p-typical fgl-cold benchmark requests and criterion 10
    (3, 2, 1, 40), (2, 3, 1, 33), (2, 2, 2, 17), (5, 1, 2, 30), (2, 2, 1, 17), (3, 2, 1, 10),
])
def test_broken_scaled_log_fails_at_every_head_degree(monkeypatch, p, n, k, D):
    # a scaled log off by one at x^p, x^(p^2) or x^(p^n) never slips
    # through the division of [p^k]
    scaled_log = fgl._scaled_log
    for q in sorted({p, p * p, p ** n}):
        def broken(p, n, ring, D, q=q):
            coeffs = scaled_log(p, n, ring, D).coeffs
            arith = ModPolyRing.of(ring)
            coeffs[q] = arith.add(coeffs.get(q, {}), arith.one())
            return series_of(ring, D, coeffs)

        monkeypatch.setattr(fgl, "_scaled_log", broken)
        with pytest.raises(IntegralityFailure):
            prepare_p_series(build_ptypical(p, n, D=D), k)


def test_n_series_basics(mult, height2):
    for ctx in (mult, height2):
        assert n_series(ctx, 0).coeffs == {}
        assert n_series(ctx, 1) == series_of(ctx.ring, ctx.D, {1: ModPolyRing.of(ctx.ring).one()})


def test_n_series_addition_property(mult, height2):
    for ctx, pairs in ((mult, [(2, 3), (1, 5), (4, 2), (3, 3)]),
                       (height2, [(1, 1), (2, 1), (2, 2), (2, 3), (3, 3)])):
        law = law_of(ctx)
        for m1, m2 in pairs:
            combined = law_sum(law, n_series(ctx, m1), n_series(ctx, m2))
            assert combined == n_series(ctx, m1 + m2)


def check_axioms(ctx):
    law = law_of(ctx)
    assert unit_axiom(law)
    assert commutative(law)
    assert associative(law)


def test_fgl_axioms_multiplicative(mult):
    check_axioms(mult)


def test_fgl_axioms_height2(height2):
    check_axioms(height2)


def test_fgl_axioms_height2_p3(height2_p3):
    check_axioms(height2_p3)


def test_height1_ptypical_reduction():
    ctx = build_ptypical(2, 1, a=4, b=1, D=9)
    assert residue_series(ctx, n_series(ctx, 2)) == {2: 1}
    ctx3 = build_ptypical(3, 1, a=3, b=1, D=10)
    assert residue_series(ctx3, n_series(ctx3, 3)) == {3: 1}


def test_honda_reduction_height2(height2, height2_p3):
    # killing p and u makes [p](x) = x^(p^n) exactly below degree D
    assert residue_series(height2, n_series(height2, 2)) == {4: 1}
    assert residue_series(height2_p3, n_series(height2_p3, 3)) == {9: 1}


def test_multiplicative_log_is_log_one_plus_x(mult):
    log = multiplicative_log(mult.D)
    for m in range(1, mult.D):
        assert log.coeffs[(m,)] == {(): Fraction((-1) ** (m + 1), m)}
    assert law_from_log(log, mult.ring).coeffs == law_of(mult).coeffs


def test_rational_log_round_trip(height2):
    # the oracle's logarithm starts x + (u1/2) x^2; the production build's
    # scaled logarithm g(x) = f(2x)/2 starts x + u1 x^2
    log = rational_log(2, 2, 8, height2.D)
    qring = log.ring
    assert log.coeffs[(1,)] == qring.one()
    assert log.coeffs[(2,)] == {(1,): Fraction(1, 2)}  # u1 / 2
    ring = ModPolyRing.of(height2.ring)
    g = fgl._scaled_log(2, 2, ring, height2.D)
    assert g.coeffs[1] == ring.one()
    assert g.coeffs[2] == param(ring, 1)


def test_integrality_of_reduced_laws(height2, height2_p3):
    # every coefficient of a reduced [m]-series is an exact element of the
    # modular ring: multiplying back by denominators never occurs
    for ctx in (height2, height2_p3):
        for m in range(2 * ctx.p + 1):
            for poly in n_series(ctx, m).coeffs.values():
                for c in poly.values():
                    assert isinstance(c, int)
                    assert 0 < c < ctx.ring.mod


def test_series_equality_respects_truncation(mult):
    # equal coefficients claim equality only below the same x-degree
    x8 = series_of(mult.ring, mult.D, {1: ModPolyRing.of(mult.ring).one()})
    x5 = series_of(mult.ring, 5, x8.coeffs)
    assert x5.coeffs == x8.coeffs
    assert x5 != x8
    assert x5 == series_of(mult.ring, 5, x8.coeffs)


def test_series_equality_respects_ring():
    # equal coefficients over Z/16 and Z/256 are different series
    coarse = PolyRing(2, 4, 8, 0)
    fine = PolyRing(2, 8, 8, 0)
    coeffs = {1: {(): 1}, 2: {(): 3}}
    assert coarse != fine and coarse == PolyRing(2, 4, 8, 0)
    assert series_of(coarse, 5, coeffs) != series_of(fine, 5, coeffs)
    assert series_of(coarse, 5, coeffs) == series_of(PolyRing(2, 4, 8, 0), 5, coeffs)
    assert hash(series_of(coarse, 5, coeffs)) == hash(series_of(PolyRing(2, 4, 8, 0), 5, coeffs))


def test_weierstrass_prep_multiplicative(mult):
    s2 = n_series(mult, 2)
    f, u = weierstrass_prep(mult, s2, 2)
    assert f == s2  # already monic distinguished
    assert coeff_int(u, 0) == 1 and u.degree() == 0

    s4 = n_series(mult, 4)
    f4, u4 = weierstrass_prep(mult, s4, 4)
    assert f4.mul(u4) == s4
    assert coeff_int(f4, 4) == 1
    assert f4.degree() == 4


def test_weierstrass_prep_height2(height2):
    s2 = n_series(height2, 2)
    f, u = weierstrass_prep(height2, s2, 4)
    assert f.mul(u) == s2
    assert coeff_int(f, 4) == 1
    # non-leading coefficients vanish in the residue field
    ring = ModPolyRing.of(height2.ring)
    for e in range(4):
        assert ring.residue(coeff(f, e)) == 0
    # the unit really is invertible
    uinv = series_inverse(u)
    one = series_of(ring, height2.D, {0: ring.one()})
    assert u.mul(uinv) == one


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_weierstrass_prep_on_random_distinguished_series(data):
    # random series that are unit * x^d modulo (p): division must always
    # produce a verified factorization (the operation is self-checking)
    ctx = multiplicative_context(2, a=4, D=8)
    ring = ModPolyRing.of(ctx.ring)
    d = data.draw(st.integers(min_value=1, max_value=3))
    coeffs = {}
    for e in range(ctx.D):
        if e < d:
            c = 2 * data.draw(st.integers(min_value=0, max_value=7))
        elif e == d:
            c = data.draw(st.integers(min_value=0, max_value=15)) | 1
        else:
            c = data.draw(st.integers(min_value=0, max_value=15))
        if c % ring.mod:
            coeffs[e] = ring.const(c)
    g = series_of(ring, ctx.D, coeffs)
    f, u = weierstrass_prep(ctx, g, d)
    assert f.mul(u) == g
    assert max(f.coeffs) == d
    for e in range(d):
        assert ring.residue(coeff(f, e)) == 0


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_weierstrass_prep_random_series_with_parameters(height2, data):
    # distinguishedness over (Z/2^4)[u1]: low coefficients even or multiples
    # of u1, the degree-d coefficient an odd unit
    ring = ModPolyRing.of(height2.ring)
    d = data.draw(st.integers(min_value=1, max_value=4))
    coeffs = {}
    for e in range(0, 9):
        const = data.draw(st.integers(min_value=0, max_value=15))
        ucoef = data.draw(st.integers(min_value=0, max_value=15))
        if e < d:
            const &= ~1  # force even: stay inside the maximal ideal
        elif e == d:
            const |= 1
        poly = ring.add(ring.const(const), ring.scale(ucoef, param(ring, 1)))
        if poly:
            coeffs[e] = poly
    g = series_of(ring, height2.D, coeffs)
    f, u = weierstrass_prep(height2, g, d)
    assert f.mul(u) == g
    assert max(f.coeffs) == d


def test_weierstrass_prep_rejects_non_distinguished(mult):
    ring = ModPolyRing.of(mult.ring)
    not_dist = series_of(ring, mult.D, {1: ring.one()})
    with pytest.raises(NotWeierstrass):
        weierstrass_prep(mult, not_dist, 2)
    with pytest.raises(NotWeierstrass):
        # [2](x) has a unit at degree 2, not at degree 3
        weierstrass_prep(mult, n_series(mult, 2), 3)


def test_torsion_rank_values(mult, height2, height2_p3):
    assert torsion_rank(mult, 0) == 1
    assert torsion_rank(mult, 1) == 2
    assert torsion_rank(mult, 2) == 4
    assert torsion_rank(height2, 1) == 4
    assert torsion_rank(height2_p3, 1) == 9


def test_torsion_rank_requires_enough_precision(mult):
    with pytest.raises(TruncationTooSmall):
        torsion_rank(mult, 3)  # needs D > 8


def test_torsion_rank_is_the_prepared_degree(height2_p3):
    g, f, u = prepare_p_series(height2_p3, 1)
    assert g == n_series(height2_p3, 3)
    assert f.mul(u) == g
    assert f.degree() == torsion_rank(height2_p3, 1) == 9


@pytest.mark.parametrize("p,n,k,a,b,D,law", [
    # tests/, the README and the fgl-cold benchmark requests
    (2, 1, 2, 4, 8, None, "multiplicative"),
    (2, 2, 1, 4, 4, 6, "ptypical"),
    (2, 2, 1, 4, 8, 17, "ptypical"),
    (3, 2, 1, 4, 8, 40, "ptypical"),
    (2, 3, 1, 4, 8, 33, "ptypical"),
    (2, 2, 2, 4, 8, None, "ptypical"),
    (5, 1, 2, 4, 8, 30, "ptypical"),
    # criterion 10, besides (2, 2, 1, 4, 8, 17)
    (2, 1, 1, 4, 1, 8, "multiplicative"),
    (3, 2, 1, 3, 6, 10, "ptypical"),
    # fgl --p 3 --n 2 at its default degree
    (3, 2, 1, 4, 8, None, "ptypical"),
])
def test_work_cap_admits_the_documented_requests(p, n, k, a, b, D, law):
    if law == "multiplicative":
        n, b, D = 1, 1, D or 8
    check_work(p, n, k, a, b, D, law)


@pytest.mark.parametrize("p,n,k,a,b,D,law", [
    (17, 1, 1, 4, 8, None, "ptypical"),  # 25 s before the integral build
    (3, 2, 2, 4, 8, None, "ptypical"),
    (5, 2, 1, 4, 8, None, "ptypical"),
    (2, 1, 1, 2000, 8, 20, "ptypical"),  # a wide precision makes every product slow
    (2, 1, 1, 4, 1, 10 ** 4, "multiplicative"),
    (2, 10 ** 9, 1, 4, 8, None, "ptypical"),  # D = 2^(2*10^9) + 1 is never formed
    (2, 1, 1, 10 ** 400, 8, 9, "ptypical"),
    (2, 3, 1, 4, 8, None, "ptypical"),  # fgl --p 2 --n 3, until the model is re-fitted
])
def test_work_cap_refuses_before_work(p, n, k, a, b, D, law):
    with pytest.raises(ResourceLimit):
        check_work(p, n, k, a, b, D, law)


@pytest.mark.parametrize("k,error", [(-1, BadParameters), (3, TruncationTooSmall)])
def test_work_check_refuses_a_level_before_the_law_is_built(monkeypatch, k, error):
    def refuse(*args):
        raise AssertionError("the law was built before its level was checked")

    monkeypatch.setattr(fgl, "build_ptypical", refuse)
    with pytest.raises(error):
        check_work(5, 2, k, 4, 8)
    assert main(["fgl", "--p", "5", "--n", "2", "--k", str(k), "--json"]) == 2


def test_build_guards():
    with pytest.raises(TruncationTooSmall):
        build_ptypical(2, 2, D=4)
    with pytest.raises(BadParameters):
        build_ptypical(2, 0)
    with pytest.raises(TruncationTooSmall):
        multiplicative_context(3, D=3)


def test_series_inverse_round_trip():
    ring = ModPolyRing(2, 4, 3, 1)
    one = ring.one()
    u1 = param(ring, 1)
    s = series_of(ring, 8, {0: ring.add(one, u1), 1: ring.const(3), 3: u1})
    sinv = series_inverse(s)
    identity = series_of(ring, 8, {0: one})
    assert s.mul(sinv) == identity


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
def test_series_inverse_inverts_a_constant_term_with_parameters(b):
    # the constant term 2 + u1 + 3*u2 + u1*u2^2 + u1^3 is inverted in u by
    # passes at x-limit 1, as many as b has bits; each u-degree room 1..5
    # is checked against the oracle ring's geometric-series inverse, at
    # D = 1, where no x-doubling follows, and at D = 6
    ring = ModPolyRing(3, 3, b, 2)
    c0 = {(0, 0): 2, (1, 0): 1, (0, 1): 3, (1, 2): 1, (3, 0): 1}
    inverse = ring.inv(ring.scale(1, {u: c for u, c in c0.items() if sum(u) < b}))
    for D in (1, 6):
        s = series_of(ring, D, {0: c0, 1: {(0, 1): 4}, 2: ring.const(7)})
        sinv = series_inverse(s)
        assert s.mul(sinv) == series_of(ring, D, {0: ring.one()})
        assert coeff(sinv, 0) == inverse


def test_series_inverse_refuses_a_non_unit_constant_term():
    ring = ModPolyRing(3, 3, 4, 1)
    for const in (param(ring, 1), ring.add(ring.const(3), param(ring, 1)), {}):
        with pytest.raises(BadParameters):
            series_inverse(series_of(ring, 6, {0: const, 1: ring.one()}))


def test_compose_requires_no_constant_term(mult):
    ring = ModPolyRing.of(mult.ring)
    const = series_of(ring, mult.D, {0: ring.one()})
    with pytest.raises(BadParameters):
        _compose(n_series(mult, 2), const)


def test_series_rendering(mult):
    s = n_series(mult, 2)
    assert s.series_str() == "2*x + 1*x^2"
