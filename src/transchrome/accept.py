"""The acceptance suite: every exit criterion as a checkable function.

Each criterion returns (ok, detail).  ``run_all`` evaluates the full matrix
and is what both the test suite and the ``reproduce`` CLI subcommand call;
all checks are exact, and the randomized ones are seeded.
"""

from __future__ import annotations

import random

from . import abelian, classfun, decomp, fgl, homclass
from .abelian import Ambient
from .checks import Record, power_exceeds
from .classfun import GenClassFunction, class_table
from .errors import TranschromeError
from .perm import Perm, block_subgroup, centralizer, generate, symmetric_group

DEFAULT_SEED = 20260810

#: (G degree, H builder, p, k) for the transfer-formula instances
_MAINTHM_PAIRS = (
    ("S4/S2xS2", 4, lambda: block_subgroup(2, 2), 2, 2),
    ("S4/Z4", 4, lambda: generate(4, [Perm.from_cycles("(0 1 2 3)", 4)]), 2, 2),
    ("S3/A3", 3, lambda: generate(3, [Perm.from_cycles("(0 1 2)", 3)]), 3, 1),
    ("S8/S4xS4", 8, lambda: block_subgroup(4, 2), 2, 3),
    ("S9/S3^3", 9, lambda: block_subgroup(3, 3), 3, 2),
)

_COMPONENT_COUNT_CASES = (
    (2, 1, 1), (2, 1, 2), (2, 1, 3),
    (2, 2, 1), (2, 2, 2),
    (3, 1, 1), (3, 1, 2), (3, 2, 1),
)

_DEGREE_CASES = ((2, 2, 1, 1), (2, 2, 1, 2), (3, 2, 1, 1), (2, 3, 1, 1), (2, 3, 2, 1))


class CriterionResult(Record):
    """One row of the acceptance matrix; unlike the other records, its
    fields may be reassigned, and it has no hash."""

    __slots__ = _fields = ("number", "name", "ok", "detail")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, number: int, name: str, ok: bool, detail: str):
        self._set_fields(number, name, ok, detail)


def _fmt(ok):
    return "PASS" if ok else "FAIL"


def criterion_01_class_counts(seed=DEFAULT_SEED):
    got = len(homclass.enumerate_hom_classes(2, 1, 2))
    checks = [("(2,1,2)", got, 4)]
    for p in (2, 3, 5):
        checks.append(("(%d,1,1)" % p, len(homclass.enumerate_hom_classes(p, 1, 1)), 2))
    ok = all(g == w for _, g, w in checks)
    detail = "; ".join("%s -> %d (want %d)" % c for c in checks)
    return ok, detail


def criterion_02_centralizers(seed=DEFAULT_SEED):
    S4 = symmetric_group(4)
    classes = homclass.enumerate_hom_classes(2, 1, 2)
    orders = []
    types_ok = []
    for hc in classes:
        C = centralizer(S4, homclass.realize(hc).perms)
        orders.append(C.order)
        if C.order == 24:
            types_ok.append(C.is_full_symmetric())
        elif C.order == 8:
            # dihedral of order 8: nonabelian with exactly two order-4 elements
            counts = C.element_order_counts()
            types_ok.append(not C.is_abelian() and counts.get(4, 0) == 2)
        elif C.order == 4:
            counts = C.element_order_counts()
            is_klein = C.is_abelian() and counts.get(2, 0) == 3
            is_cyclic4 = C.is_abelian() and counts.get(4, 0) == 2
            types_ok.append(is_klein or is_cyclic4)
        else:
            types_ok.append(False)
        if C.order != homclass.centralizer_order(hc):
            types_ok.append(False)
    klein = centralizer(S4, [Perm.from_cycles("(0 1)", 4)])
    kinds = (
        klein.is_abelian()
        and klein.element_order_counts().get(2, 0) == 3
    )
    cyc = centralizer(S4, [Perm.from_cycles("(0 1 2 3)", 4)])
    kinds = kinds and cyc.is_abelian() and cyc.element_order_counts().get(4, 0) == 2
    ok = tuple(orders) == (24, 4, 8, 4) and all(types_ok) and kinds
    return ok, "orders %s (want (24, 4, 8, 4)); type checks %s" % (tuple(orders), _fmt(ok))


def _mainthm_tables(h):
    for name, degree, make_h, p, k in _MAINTHM_PAIRS:
        G = symmetric_group(degree)
        H = make_h()
        lam = homclass.lam_group(p, h, k)
        yield name, G, H, lam


def criterion_03_mainthm(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    failures = []
    tested = 0
    for h in (1, 2):
        for name, G, H, lam in _mainthm_tables(h):
            h_table = class_table(H, lam)
            for _ in range(20):
                chi = GenClassFunction.random(h_table, rng)
                tested += 1
                if not classfun.verify_mainthm_instance(G, H, chi):
                    failures.append("%s h=%d" % (name, h))
                    break
    ok = not failures
    return ok, "%d random class functions verified%s" % (
        tested, "" if ok else "; failures: " + ", ".join(failures)
    )


def criterion_04_orbit_bijection(seed=DEFAULT_SEED):
    failures = []
    checked = 0
    for h in (1, 2):
        for name, G, H, lam in _mainthm_tables(h):
            g_table = class_table(G, lam)
            h_table = class_table(H, lam)
            _, data = classfun.induction_tables(G, H, lam)
            lifted = {}
            for key in h_table.classes:
                g_key = g_table.key_of_images(h_table.rep_images(key))
                lifted[g_key] = lifted.get(g_key, 0) + 1
            for alpha in g_table.classes:
                checked += 1
                if len(data[alpha].records) != lifted.get(alpha, 0):
                    failures.append("%s h=%d %s" % (name, h, g_table.class_id(alpha)))
    ok = not failures
    return ok, "%d classes checked%s" % (
        checked, "" if ok else "; failures: " + "; ".join(failures[:4])
    )


def criterion_05_component_counts(seed=DEFAULT_SEED):
    failures = []
    for p, h, k in _COMPONENT_COUNT_CASES:
        # any t > 0 exercises the p-local rule; component counts depend on h only
        report = decomp.decompose(p, h + 1, 1, k)
        want = abelian.sub_leq_count(h, p, k)
        got = len(report.nontrivial)
        if got != want:
            failures.append("(%d,%d,%d): %d != %d" % (p, h, k, got, want))
    ok = not failures
    return ok, "%d cases; criteria agreed on every class%s" % (
        len(_COMPONENT_COUNT_CASES), "" if ok else "; " + "; ".join(failures)
    )


def criterion_06_degree_accounting(seed=DEFAULT_SEED):
    failures = []
    for p, n, t, k in _DEGREE_CASES:
        report = decomp.decompose(p, n, t, k)
        want = abelian.count_sublattices(n, p, k)
        if report.rank_sum != want or report.total_degree != want:
            failures.append("(%d,%d,%d,%d)" % (p, n, t, k))
    spots = [
        ((2, 2, 1), 3), ((2, 2, 2), 7), ((2, 3, 2), 13), ((3, 2, 1), 7),
    ]
    for (h, p, m), want in spots:
        formula = abelian.count_sublattices(h, p, m)
        brute = len(abelian.enumerate_subgroups(h, p, m, p ** m))
        if formula != want or brute != want:
            failures.append("spot (%d,%d,%d): formula %d brute %d want %d"
                            % (h, p, m, formula, brute, want))
    ok = not failures
    return ok, "rank sums and spot values 3, 7, 13, 7 exact%s" % (
        "" if ok else "; " + "; ".join(failures)
    )


def criterion_07_triangle(seed=DEFAULT_SEED):
    failures = []
    for p, n, t, k in _DEGREE_CASES:
        report = decomp.decompose(p, n, t, k)
        if not decomp.verify_triangle(report):
            failures.append("(%d,%d,%d,%d): %s" % (p, n, t, k, decomp.triangle_failures(report)))
            continue
        h = n - t
        lam = homclass.lam_group(p, h, k)
        for rec in report.nontrivial:
            L = rec.dual_image
            if L.order == 1 and rec.fiber_rank != abelian.count_sublattices(t, p, k):
                failures.append("(%d,%d,%d,%d): fiber over e" % (p, n, t, k))
            if L.order == p ** k and any(
                lam.element_order(x) == p ** k for x in L.elements
            ):
                if rec.fiber_rank != p ** (k * t):
                    failures.append("(%d,%d,%d,%d): cyclic fiber" % (p, n, t, k))
    ok = not failures
    return ok, "triangle + extreme fibers on %d reports%s" % (
        len(_DEGREE_CASES), "" if ok else "; " + "; ".join(failures)
    )


def criterion_08_zero_transfer(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    failures = []
    # full-cycle class in Sym(4) over the two-block subgroup
    S4 = symmetric_group(4)
    H = block_subgroup(2, 2)
    lam = homclass.lam_group(2, 1, 2)
    cyc = classfun.class_table(S4, lam).key_of_images(
        (Perm.from_cycles("(0 1 2 3)", 4).images,)
    )
    datum = classfun.transfer_datum(S4, H, cyc)
    if not datum.is_empty() or datum.fixed_count != 0:
        failures.append("S4 four-cycle datum not empty")
    chi = GenClassFunction.random(classfun.class_table(H, lam), rng)
    if classfun.induce(chi, S4)[cyc] != 0:
        failures.append("S4 four-cycle induced value nonzero")
    # p-cycle class in Sym(p) over the trivial subgroup
    for p in (2, 3, 5):
        G = symmetric_group(p)
        E = generate(p, [])
        lam_p = homclass.lam_group(p, 1, 1)
        g_table = classfun.class_table(G, lam_p)
        images = tuple(range(1, p)) + (0,)
        key = g_table.key_of_images((images,))
        datum = classfun.transfer_datum(G, E, key)
        if not datum.is_empty():
            failures.append("S%d p-cycle datum not empty" % p)
        chi = GenClassFunction.random(classfun.class_table(E, lam_p), rng)
        if classfun.induce(chi, G)[key] != 0:
            failures.append("S%d p-cycle induced value nonzero" % p)
    ok = not failures
    return ok, "empty data and vanishing induced values%s" % (
        "" if ok else "; " + "; ".join(failures)
    )


def criterion_09_duality(seed=DEFAULT_SEED):
    failures = []
    for p, k, h in ((2, 2, 2), (2, 1, 3), (3, 2, 1)):
        ambient = Ambient(p, k, h)
        subs = abelian.subgroups_of_ambient(ambient)
        for U in subs:
            ann = U.annihilator()
            if U.order * ann.order != ambient.order:
                failures.append("(Z/%d)^%d order product" % (ambient.modulus, h))
                break
            if ann.annihilator() != U:
                failures.append("(Z/%d)^%d involution" % (ambient.modulus, h))
                break
    ok = not failures
    return ok, "involution and order product exhaustively on (Z/4)^2, (Z/2)^3, (Z/9)%s" % (
        "" if ok else "; " + "; ".join(failures)
    )


def criterion_10_weierstrass(seed=DEFAULT_SEED):
    failures = []
    cases = []
    mult = fgl.multiplicative_context(2, a=4, D=8)
    cases.append((mult, 1, 2))
    cases.append((mult, 2, 4))
    cases.append((fgl.build_ptypical(2, 2, a=4, b=8, D=17), 1, 4))
    cases.append((fgl.build_ptypical(3, 2, a=3, b=6, D=10), 1, 9))
    for ctx, k, want in cases:
        g, f, u = fgl.prepare_p_series(ctx, k)
        rank = f.degree()
        if rank != want:
            failures.append("%s k=%d: rank %d != %d" % (ctx.label, k, rank, want))
        elif f.mul(u) != g:
            failures.append("%s k=%d: f*u != g" % (ctx.label, k))
    ok = not failures
    return ok, "ranks 2, 4, 4, 9 with f*u re-verified%s" % (
        "" if ok else "; " + "; ".join(failures)
    )


def _walk_exponent(p, h):
    """The largest M with p^(Mh) within the ambient cap."""
    M = 0
    while not power_exceeds(p, (M + 1) * h, abelian.AMBIENT_CAP):
        M += 1
    return M


def criterion_11_counting_oracle(seed=DEFAULT_SEED):
    """Strickland's count of order-p^m subgroups against the brute-force
    lattice, for every (h, p, m) with p^(mh) within the ambient cap.

    For each (p, h) the lattice of (Z/p^M)^h is walked once, M the largest
    m with p^(Mh) within the cap, and level m is checked for every m <= M.
    An order-p^m subgroup is killed by p^m, so it lies in the p^m-torsion
    p^(M-m)(Z/p^M)^h, a copy of (Z/p^m)^h: level m of the walk lists the
    same subgroups as level m of (Z/p^m)^h.  Only the level lengths are
    kept, so no walk's levels are alive while the next one runs.
    """
    failures = []
    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        for h in range(1, 5):
            M = _walk_exponent(p, h)
            brute = [len(level) for level in abelian._subgroup_levels(Ambient(p, M, h), M)]
            for m in range(M + 1):
                formula = abelian.count_sublattices(h, p, m)
                checked += 1
                if formula != brute[m]:
                    failures.append("(%d,%d,%d): %d != %d" % (h, p, m, formula, brute[m]))
    ok = not failures
    return ok, "%d (h,p,m) triples cross-checked%s" % (
        checked, "" if ok else "; " + "; ".join(failures)
    )


CRITERIA = (
    (1, "hom-class counts", criterion_01_class_counts),
    (2, "centralizers in Sym(4)", criterion_02_centralizers),
    (3, "transfer-formula instances", criterion_03_mainthm),
    (4, "orbit/lift bijection", criterion_04_orbit_bijection),
    (5, "component-count rule", criterion_05_component_counts),
    (6, "degree accounting", criterion_06_degree_accounting),
    (7, "commutative triangle", criterion_07_triangle),
    (8, "zero-transfer fixtures", criterion_08_zero_transfer),
    (9, "annihilator duality", criterion_09_duality),
    (10, "weierstrass degree", criterion_10_weierstrass),
    (11, "sublattice counting oracle", criterion_11_counting_oracle),
)


def run_criterion(number: int, seed=DEFAULT_SEED) -> CriterionResult:
    for num, name, func in CRITERIA:
        if num == number:
            try:
                ok, detail = func(seed)
            except TranschromeError as exc:
                ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
            return CriterionResult(num, name, ok, detail)
    raise ValueError("no criterion %d" % number)


def run_all(seed=DEFAULT_SEED):
    return [run_criterion(num, seed) for num, _, _ in CRITERIA]
