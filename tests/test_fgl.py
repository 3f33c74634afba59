import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from transchrome.errors import (
    BadParameters,
    NotWeierstrass,
    TruncationTooSmall,
)
from transchrome.fgl import (
    PolyRing,
    Series,
    build_ptypical,
    check_associativity,
    check_commutativity,
    check_unit_axiom,
    fgl_sum,
    multiplicative_context,
    n_series,
    residue_series,
    series_inverse,
    torsion_rank,
    weierstrass_prep,
)


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
    poly = series.coeff((e,))
    return poly.get(ring.zero_exp, 0)


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


def n_series_via_rational_log(ctx, m):
    # independent route: [m](x) = exp(m * log(x)) over the rational lift,
    # reduced into the modular coefficient ring afterwards
    from transchrome.fgl import QPolyRing, _reversion

    log = ctx.log_rational
    qring = log.ring
    exp = _reversion(log)
    scaled = Series(qring, 1, ctx.D, {e: qring.scale(m, c) for e, c in log.coeffs.items()})
    series_q = exp.compose([scaled])
    ring = ctx.ring
    out = {}
    for e, c in series_q.coeffs.items():
        v = qring.reduce(c, ring)
        if v:
            out[e] = v
    return Series(ring, 1, ctx.D, out)


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


def test_n_series_basics(mult, height2):
    for ctx in (mult, height2):
        assert n_series(ctx, 0).coeffs == {}
        assert n_series(ctx, 1) == ctx.x_var()


def test_n_series_addition_property(mult, height2):
    for ctx, pairs in ((mult, [(2, 3), (1, 5), (4, 2), (3, 3)]),
                       (height2, [(1, 1), (2, 1), (2, 2), (2, 3), (3, 3)])):
        for m1, m2 in pairs:
            combined = fgl_sum(ctx, n_series(ctx, m1), n_series(ctx, m2))
            assert combined == n_series(ctx, m1 + m2)


def test_fgl_axioms_multiplicative(mult):
    assert check_unit_axiom(mult)
    assert check_commutativity(mult)
    assert check_associativity(mult)


def test_fgl_axioms_height2(height2):
    assert check_unit_axiom(height2)
    assert check_commutativity(height2)
    assert check_associativity(height2)


def test_fgl_axioms_height2_p3(height2_p3):
    assert check_unit_axiom(height2_p3)
    assert check_commutativity(height2_p3)
    assert check_associativity(height2_p3)


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
    log = mult.log_rational
    for m in range(1, mult.D):
        assert log.coeffs[(m,)] == {(): Fraction((-1) ** (m + 1), m)}


def test_rational_log_round_trip(height2):
    # the stored logarithm really is the inverse of the reduced law's lift:
    # exp(log x + log y) reproduces F, so log(F(x, x)) = 2 log(x) holds
    # for the rational lift; spot-check the first coefficients instead
    log = height2.log_rational
    qring = log.ring
    assert log.coeffs[(1,)] == qring.one()
    lam1 = log.coeffs[(2,)]
    assert lam1 == {(1,): Fraction(1, 2)}  # u1 / 2


def test_integrality_of_reduced_laws(height2, height2_p3):
    # every coefficient of the reduced law is an exact element of the
    # modular ring: multiplying back by denominators never occurs
    for ctx in (height2, height2_p3):
        for e, poly in ctx.F.coeffs.items():
            for exp, c in poly.items():
                assert isinstance(c, int)
                assert 0 < c < ctx.ring.mod


def test_series_equality_respects_truncation(mult):
    # equal coefficients claim equality only below the same x-degree
    x8 = mult.x_var()
    x5 = Series(mult.ring, 1, 5, x8.coeffs)
    assert x5.coeffs == x8.coeffs
    assert x5 != x8
    assert x5 == Series(mult.ring, 1, 5, x8.coeffs)


def test_series_equality_respects_ring():
    # equal coefficients over Z/16 and Z/256 are different series
    coarse = PolyRing(2, 4, 8, 0)
    fine = PolyRing(2, 8, 8, 0)
    coeffs = {(1,): {(): 1}, (2,): {(): 3}}
    assert coarse != fine and coarse == PolyRing(2, 4, 8, 0)
    assert Series(coarse, 1, 5, coeffs) != Series(fine, 1, 5, coeffs)
    assert Series(coarse, 1, 5, coeffs) == Series(PolyRing(2, 4, 8, 0), 1, 5, coeffs)
    assert hash(Series(coarse, 1, 5, coeffs)) == hash(Series(PolyRing(2, 4, 8, 0), 1, 5, coeffs))


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
    for e in range(4):
        assert height2.ring.residue(f.coeff((e,))) == 0
    # the unit really is invertible
    uinv = series_inverse(u)
    one = Series(height2.ring, 1, height2.D, {(0,): height2.ring.one()})
    assert u.mul(uinv) == one


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_weierstrass_prep_on_random_distinguished_series(data):
    # random series that are unit * x^d modulo (p): division must always
    # produce a verified factorization (the operation is self-checking)
    ctx = multiplicative_context(2, a=4, D=8)
    ring = ctx.ring
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
            coeffs[(e,)] = ring.const(c)
    g = Series(ring, 1, ctx.D, coeffs)
    f, u = weierstrass_prep(ctx, g, d)
    assert f.mul(u) == g
    assert max(e for (e,) in f.coeffs) == d
    for e in range(d):
        assert ring.residue(f.coeff((e,))) == 0


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_weierstrass_prep_random_series_with_parameters(height2, data):
    # distinguishedness over (Z/2^4)[u1]: low coefficients even or multiples
    # of u1, the degree-d coefficient an odd unit
    ring = height2.ring
    d = data.draw(st.integers(min_value=1, max_value=4))
    coeffs = {}
    for e in range(0, 9):
        const = data.draw(st.integers(min_value=0, max_value=15))
        ucoef = data.draw(st.integers(min_value=0, max_value=15))
        if e < d:
            const &= ~1  # force even: stay inside the maximal ideal
        elif e == d:
            const |= 1
        poly = ring.add(ring.const(const), ring.scale(ucoef, ring.param(1)))
        if poly:
            coeffs[(e,)] = poly
    g = Series(ring, 1, height2.D, coeffs)
    f, u = weierstrass_prep(height2, g, d)
    assert f.mul(u) == g
    assert max(e for (e,) in f.coeffs) == d


def test_weierstrass_prep_rejects_non_distinguished(mult):
    ring = mult.ring
    not_dist = Series(ring, 1, mult.D, {(1,): ring.one()})
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


def test_build_guards():
    with pytest.raises(TruncationTooSmall):
        build_ptypical(2, 2, D=4)
    with pytest.raises(BadParameters):
        build_ptypical(2, 0)
    with pytest.raises(TruncationTooSmall):
        multiplicative_context(3, D=3)


def test_series_inverse_round_trip():
    ring = PolyRing(2, 4, 3, 1)
    one = ring.one()
    u1 = ring.param(1)
    s = Series(ring, 1, 8, {(0,): ring.add(one, u1), (1,): ring.const(3), (3,): u1})
    sinv = series_inverse(s)
    identity = Series(ring, 1, 8, {(0,): one})
    assert s.mul(sinv) == identity


def test_poly_ring_inverse():
    ring = PolyRing(3, 3, 4, 1)
    f = ring.add(ring.const(2), ring.param(1))
    finv = ring.inv(f)
    assert ring.mul(f, finv) == ring.one()
    with pytest.raises(BadParameters):
        ring.inv(ring.param(1))


def test_compose_requires_no_constant_term(mult):
    ring = mult.ring
    const = Series(ring, 1, mult.D, {(0,): ring.one()})
    with pytest.raises(BadParameters):
        mult.F.compose([const, const])


def test_series_rendering(mult):
    s = n_series(mult, 2)
    assert s.series_str() == "2*x + 1*x^2"
