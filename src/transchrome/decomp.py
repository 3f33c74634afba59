"""Component decomposition of the order-p^k subgroup count under splitting.

After splitting off an etale part of rank h = n - t, the scheme counting
order-p^k subgroups decomposes into components indexed by the isotypic
classes of actions of (Z/p^k)^h, each component labelled by a subgroup
L <= (Z/p^k)^h (the dual image) and carrying a fiber rank: the number of
order-p^k subgroups of (Z/p^k)^t + (Z/p^k)^h projecting exactly onto L, in
closed form from Goursat's lemma and Birkhoff's count of subgroups by type.

Triviality of each class's transfer ideal is decided twice, through the
transfer-orbit indices and through the diagonal-factorization test, and a
disagreement is a hard error.
"""

from __future__ import annotations

from . import abelian, classfun, homclass
from .abelian import Ambient, AbSubgroup
from .checks import Record, check_prime, power_exceeds
from .errors import BadParameters, InternalMismatch, ResourceLimit
from .perm import block_subgroup, symmetric_group

CONVENTION = "geometric-point-count"


class ComponentRecord(Record):
    __slots__ = _fields = (
        "hom_class", "isotypic", "m", "dual_image", "ideal_trivial", "fiber_rank",
        "centralizer_order",
    )

    def __init__(self, hom_class: homclass.HomClass, isotypic: bool, m: int,
                 dual_image: AbSubgroup, ideal_trivial: bool, fiber_rank,
                 centralizer_order: int):
        # fiber_rank: an int for surviving components, None otherwise
        self._set_fields(hom_class, isotypic, m, dual_image, ideal_trivial, fiber_rank,
                         centralizer_order)

    @property
    def class_id(self) -> str:
        return self.hom_class.class_id()


class DecompositionReport(Record):
    __slots__ = _fields = (
        "p", "n", "t", "k", "records", "total_degree", "rank_sum", "convention",
    )

    def __init__(self, p: int, n: int, t: int, k: int, records: tuple, total_degree: int,
                 rank_sum: int, convention: str = CONVENTION):
        self._set_fields(p, n, t, k, records, total_degree, rank_sum, convention)

    @property
    def nontrivial(self):
        return [r for r in self.records if not r.ideal_trivial]


def fiber_rank(L: AbSubgroup, p: int, n: int, t: int, k: int) -> int:
    """Order-p^k subgroups of T + E projecting onto L <= E, T = (Z/p^k)^t and
    E = (Z/p^k)^{n-t}, in closed form.  By Goursat's lemma each is a pair
    (N, phi): N <= T of order p^(k-l), |L| = p^l, and phi: L -> T/N any
    homomorphism.  T/N has order p^(kt-k+l) and cyclic factors of order at
    most p^k, so each of its t factors has order at least p^l >= exp(L), and
    |Hom(L, T/N)| = |L|^t.  The N are the order-p^(k-l) subgroups of
    (Q_p/Z_p)^t, [k-l+t-1 choose t-1]_p of them (Birkhoff's count by type,
    summed over types), so the rank depends on |L| alone.  The split model
    is never listed, yet one above the ambient cap is refused."""
    if L.ambient != Ambient(p, k, n - t):
        raise BadParameters("L lives in the wrong ambient group")
    if L.order > p ** k:
        raise BadParameters("label subgroup has order above p^k")
    if not 0 <= t < n:
        raise BadParameters("need 0 <= t < n")
    abelian._check_ambient_cap(Ambient(p, k, n))
    if t == 0:
        return int(L.order == p ** k)
    l = abelian._valuation(L.order, p)
    return L.order ** t * abelian._gaussian_binomial(k - l + t - 1, t - 1, p)


def _validate_params(p, n, t, k):
    check_prime(p)
    if not 0 <= t < n:
        raise BadParameters("need 0 <= t < n")
    if k < 1:
        raise BadParameters("need k >= 1")
    if power_exceeds(p, k, 9):
        raise ResourceLimit("p^k = %d^%d exceeds the desk-scale cap of 9" % (p, k))
    if n - t > 3:
        raise ResourceLimit("etale rank n - t exceeds 3")


def decompose(p: int, n: int, t: int, k: int) -> DecompositionReport:
    """One record per class; triviality cross-validated; ranks attached."""
    _validate_params(p, n, t, k)
    h = n - t
    abelian._check_ambient_cap(Ambient(p, k, n))
    classes = homclass.enumerate_hom_classes(p, h, k)
    G = symmetric_group(p ** k)
    H = block_subgroup(p ** (k - 1), p)
    records = []
    for hc in classes:
        trivial = classfun.transfer_datum(G, H, hc).ideal_trivial(p, t == 0)
        iso = homclass.is_isotypic(hc)
        if t == 0:
            # with p inverted, only classes with no stable coset survive;
            # for the p-block subgroup those are exactly the transitive ones
            transitive = iso and hc.orbit_types[0][1] == 1
            if trivial != (not transitive):
                raise InternalMismatch(
                    "p-inverted triviality disagrees with transitivity on %s"
                    % hc.class_id()
                )
        elif trivial != (not iso):
            raise InternalMismatch(
                "transfer-orbit criterion and diagonal criterion disagree on %s"
                % hc.class_id()
            )
        m = homclass.minimal_level(hc)
        L = homclass.dual_image(hc)
        if iso and L.order != p ** m:
            raise InternalMismatch("isotypic class with |L| != p^m: %s" % hc.class_id())
        records.append(
            ComponentRecord(
                hom_class=hc,
                isotypic=iso,
                m=m,
                dual_image=L,
                ideal_trivial=trivial,
                fiber_rank=None if trivial else fiber_rank(L, p, n, t, k),
                centralizer_order=homclass.centralizer_order(hc),
            )
        )
    degree = abelian.count_sublattices(n, p, k)
    rank_sum = sum(r.fiber_rank for r in records if r.fiber_rank is not None)
    report = DecompositionReport(
        p=p, n=n, t=t, k=k,
        records=tuple(records),
        total_degree=degree,
        rank_sum=rank_sum,
    )
    _validate_report(report)
    return report


def _validate_report(report: DecompositionReport):
    p, t, k = report.p, report.t, report.k
    h = report.n - report.t
    survivors = report.nontrivial
    if t > 0:
        expected = abelian.sub_leq_count(h, p, k)
    else:
        expected = abelian.count_sublattices(h, p, k)
    if len(survivors) != expected:
        raise InternalMismatch(
            "%d surviving components, expected %d" % (len(survivors), expected)
        )
    if report.rank_sum != report.total_degree:
        raise InternalMismatch(
            "rank sum %d != degree %d" % (report.rank_sum, report.total_degree)
        )


def triangle_failures(report: DecompositionReport):
    """Diagnostics for the commutative-triangle check; empty means it holds.

    (a) the surviving components map bijectively onto the subgroups of
        order <= p^k via the dual image, (b) the fiber ranks add up to the
        total degree, (c) per order the component count matches the closed
        form.  For a p-inverted report clause (a) restricts to order p^k.
    """
    p, k = report.p, report.k
    h = report.n - report.t
    failures = []
    survivors = report.nontrivial
    labels = [r.dual_image.elements for r in survivors]
    levels = abelian._subgroup_levels(Ambient(p, k, h), k)
    orders = range(k + 1) if report.t > 0 else [k]
    expected = [s.elements for m in orders for s in levels[m]]
    if sorted(labels) != sorted(expected):
        failures.append(
            "(a) dual images are not a bijective labelling by subgroups of order <= p^k"
        )
    total = sum(r.fiber_rank for r in survivors if r.fiber_rank is not None)
    if total != report.total_degree:
        failures.append(
            "(b) fiber ranks add to %d, degree is %d" % (total, report.total_degree)
        )
    if report.t > 0:
        for m in range(k + 1):
            got = sum(1 for r in survivors if r.dual_image.order == p ** m)
            want = abelian.count_sublattices(h, p, m)
            if got != want:
                failures.append(
                    "(c) %d components of label order p^%d, expected %d" % (got, m, want)
                )
    return failures


def verify_triangle(report: DecompositionReport) -> bool:
    return not triangle_failures(report)


# ---------------------------------------------------------------------------
# serialization


def report_to_dict(report: DecompositionReport) -> dict:
    return {
        "p": report.p,
        "n": report.n,
        "t": report.t,
        "k": report.k,
        "degree": report.total_degree,
        "rank_sum": report.rank_sum,
        "convention": report.convention,
        "components": [
            {
                "class_id": r.class_id,
                "isotypic": r.isotypic,
                "m": r.m,
                "L": {
                    "order": r.dual_image.order,
                    "generators": [list(g) for g in r.dual_image.generators()],
                },
                "ideal_trivial": r.ideal_trivial,
                "fiber_rank": r.fiber_rank,
                "centralizer_order": r.centralizer_order,
            }
            for r in report.records
        ],
    }


def render_table(report: DecompositionReport) -> str:
    head = "decomposition p=%d n=%d t=%d k=%d  degree=%d  convention=%s" % (
        report.p, report.n, report.t, report.k,
        report.total_degree, report.convention,
    )
    rows = [["class", "isotypic", "m", "|L|", "trivial", "fiber", "|C|"]]
    for r in report.records:
        rows.append(
            [
                r.class_id,
                "yes" if r.isotypic else "no",
                str(r.m),
                str(r.dual_image.order),
                "yes" if r.ideal_trivial else "no",
                "-" if r.fiber_rank is None else str(r.fiber_rank),
                str(r.centralizer_order),
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [head, ""]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    lines.append("")
    lines.append("rank sum = %d" % report.rank_sum)
    return "\n".join(lines)
