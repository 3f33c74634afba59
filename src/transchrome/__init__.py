"""Exact combinatorics of transfer maps on symmetric groups.

The package classifies actions of (Z/p^k)^h on p^k points, evaluates the
induction/transfer formula in a generalized class-function model, decides
transfer-ideal triviality, decomposes the order-p^k subgroup count into
components labelled by dual subgroups with verified fiber ranks, and checks
the prepared degree of p^k-series for truncated formal group laws.

The names below are re-exported from their layer modules on first access
(PEP 562), so ``import transchrome`` loads no layer module.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "abelian": (
        "Ambient",
        "AbSubgroup",
        "annihilator",
        "count_sublattices",
        "enumerate_subgroups",
        "sub_leq_count",
    ),
    "homclass": (
        "CommutingTuple",
        "HomClass",
        "classify",
        "centralizer_order",
        "coset_fiber",
        "dual_image",
        "enumerate_hom_classes",
        "is_isotypic",
        "lam_group",
        "minimal_level",
        "realize",
    ),
    "classfun": (
        "GenClassFunction",
        "TransferDatum",
        "class_table",
        "ideal_trivial",
        "induce",
        "induce_grouped",
        "inner_product",
        "restrict",
        "transfer_datum",
        "verify_mainthm_instance",
    ),
    "decomp": (
        "DecompositionReport",
        "decompose",
        "fiber_rank",
        "verify_triangle",
    ),
    "perm": (
        "Coset",
        "Perm",
        "PermGroup",
        "block_subgroup",
        "centralizer",
        "conjugating_element",
        "coset_orbits",
        "fixed_cosets",
        "generate",
        "left_cosets",
        "symmetric_group",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))
