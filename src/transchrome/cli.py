"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 resource limit,
4 verification failure (a reproduce or cross-check mismatch).

The layer modules are bound here as lazy modules: each one's code runs on
the first use of one of its names, inside the subcommand that needs it, so
an ``fgl`` request compiles no layer but ``fgl`` (and the leaf modules
``checks`` and ``errors``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys

from .checks import power_exceeds
from .errors import (
    DomainError,
    IntegralityFailure,
    InternalMismatch,
    ResourceLimit,
    TranschromeError,
)


def _lazy_module(name):
    """transchrome.<name>, registered as the import system would register
    it, but with its code run on first attribute access (LazyLoader).

    Unlike an import inside each handler, this keeps every layer in
    sys.modules once the CLI is imported, where ``perfbench/spans.py``
    looks the layers up to wrap them."""
    fullname = "%s.%s" % (__package__, name)
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


abelian, accept, classfun, decomp, fgl, homclass, perm = map(
    _lazy_module, ("abelian", "accept", "classfun", "decomp", "fgl", "homclass", "perm")
)


def __getattr__(name):
    # ``cli.class_table`` is still read as an alias of classfun's (the
    # tracer tests in perfbench); it resolves on use, not at import
    if name == "class_table":
        return classfun.class_table
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit_json(data):
    print(json.dumps(data, sort_keys=True, indent=2))


def _hom_records(p, h, k):
    records = []
    for hc in homclass.enumerate_hom_classes(p, h, k):
        L = homclass.dual_image(hc)
        records.append(
            {
                "class_id": hc.class_id(),
                "orbit_types": [
                    {
                        "index": kernel.index,
                        "multiplicity": mult,
                        "kernel_generators": [list(g) for g in kernel.generators()],
                    }
                    for kernel, mult in hc.orbit_types
                ],
                "centralizer_order": homclass.centralizer_order(hc),
                "minimal_level": homclass.minimal_level(hc),
                "isotypic": homclass.is_isotypic(hc),
                "dual_image": {
                    "order": L.order,
                    "generators": [list(g) for g in L.generators()],
                },
            }
        )
    return records


def _cmd_homs(args):
    records = _hom_records(args.p, args.h, args.k)
    if args.json:
        _emit_json({"p": args.p, "h": args.h, "k": args.k, "classes": records})
        return EXIT_OK
    print("hom classes for p=%d h=%d k=%d (%d total)" % (args.p, args.h, args.k, len(records)))
    for rec in records:
        print(
            "  %-46s |C|=%-6d m=%d isotypic=%-5s |L|=%d"
            % (
                rec["class_id"],
                rec["centralizer_order"],
                rec["minimal_level"],
                rec["isotypic"],
                rec["dual_image"]["order"],
            )
        )
    return EXIT_OK


def _cmd_decompose(args):
    report = decomp.decompose(args.p, args.n, args.t, args.k)
    ok = decomp.verify_triangle(report)
    if args.json:
        data = decomp.report_to_dict(report)
        data["triangle_ok"] = ok
        _emit_json(data)
    else:
        print(decomp.render_table(report))
        print("triangle check: %s" % ("ok" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_VERIFY


def _resolve_class(args, lam):
    """The class named by --class-id, else the one of --alpha; the caller
    has checked that one of the two is given, and the arity of --alpha."""
    table = classfun.class_table(perm.symmetric_group(lam.p ** lam.k), lam)
    if args.class_id:
        for key in table.classes:
            if table.class_id(key) == args.class_id:
                return key
        raise DomainError("unknown class id %r" % args.class_id)
    degree = lam.p ** lam.k
    perms = tuple(
        perm.Perm.from_cycles(part.strip(), degree) for part in args.alpha.split(";")
    )
    return table.key_of_images(tuple(p.images for p in perms))


def _young_pair(args):
    """(lam, m, Sym(p^k), its Young subgroup on blocks of p^m), m defaulting
    to k - 1.  The hom-class and index caps are checked before any group is
    built, and the subgroup's class table, with its own caps, is built
    before the caller reads the table of Sym(p^k)."""
    lam = homclass.lam_group(args.p, args.h, args.k)
    m = args.m if args.m is not None else args.k - 1
    if not 0 <= m <= args.k:
        raise DomainError("need 0 <= m <= k")
    homclass.enumerate_hom_classes(args.p, args.h, args.k)
    degree, block = args.p ** args.k, args.p ** m
    perm.check_index(perm.young_index(degree, block))
    H = perm.block_subgroup(block, degree // block)
    classfun.class_table(H, lam)
    return lam, m, perm.symmetric_group(degree), H


def _cmd_transfer(args):
    # refused before _young_pair lists the hom classes
    if not (args.class_id or args.alpha):
        raise DomainError("need --class-id or --alpha")
    if args.alpha and args.h >= 1 and len(args.alpha.split(";")) != args.h:
        raise DomainError("--alpha needs %d component(s)" % args.h)
    lam, m, G, H = _young_pair(args)
    key = _resolve_class(args, lam)
    datum = classfun.transfer_datum(G, H, key)
    h_table = classfun.class_table(H, lam)
    records = [
        {
            "coset_rep": rec.coset_rep.cycles(),
            "h_class": h_table.class_id(rec.h_key),
            "stabilizer_order": rec.stabilizer_order,
            "index": rec.index,
        }
        for rec in datum.records
    ]
    payload = {
        "class_id": key.class_id(),
        "block_exponent": m,
        "fixed_cosets": datum.fixed_count,
        "centralizer_order": datum.centralizer_order,
        "orbits": records,
        "trivial_if_t_zero": datum.ideal_trivial(args.p, True),
        "trivial_if_t_positive": datum.ideal_trivial(args.p, False),
    }
    if args.json:
        _emit_json(payload)
        return EXIT_OK
    print("transfer datum for %s over blocks of %d^%d" % (key.class_id(), args.p, m))
    print("  fixed cosets: %d, centralizer order: %d" % (datum.fixed_count, datum.centralizer_order))
    for rec in records:
        print(
            "  g=%-18s beta=%-24s |stab|=%-5d index=%d"
            % (rec["coset_rep"], rec["h_class"], rec["stabilizer_order"], rec["index"])
        )
    print("  ideal trivial: t=0 %s, t>0 %s"
          % (payload["trivial_if_t_zero"], payload["trivial_if_t_positive"]))
    return EXIT_OK


def _cmd_induce(args):
    lam, _, G, H = _young_pair(args)
    h_table = classfun.class_table(H, lam)
    with open(args.chi) as fh:
        data = json.load(fh)
    chi = classfun.GenClassFunction.from_json_dict(h_table, data)
    plain = classfun.induce(chi, G)
    grouped = classfun.induce_grouped(chi, G)
    agree = plain == grouped
    payload = {
        "induce": plain.to_json_dict(),
        "induce_grouped": grouped.to_json_dict(),
        "agree": agree,
    }
    if args.json:
        _emit_json(payload)
    else:
        g_table = plain.table
        print("induced class function (plain | grouped):")
        for key in g_table.classes:
            print("  %-46s %8s | %s" % (g_table.class_id(key), plain[key], grouped[key]))
        print("agree: %s" % agree)
    if not agree:
        raise InternalMismatch("plain and grouped induction disagree")
    return EXIT_OK


def _cmd_count_sub(args):
    formula = abelian.count_sublattices(args.h, args.p, args.m)
    brute = None
    if not power_exceeds(args.p, args.m * args.h, abelian.AMBIENT_CAP):
        brute = len(abelian.enumerate_subgroups(args.h, args.p, args.m, args.p ** args.m))
    payload = {
        "h": args.h,
        "p": args.p,
        "m": args.m,
        "count": formula,
        "bruteforce": brute,
        "match": None if brute is None else brute == formula,
    }
    if args.json:
        _emit_json(payload)
    else:
        print("count_sublattices(h=%d, p=%d, m=%d) = %d" % (args.h, args.p, args.m, formula))
        if brute is None:
            print("bruteforce: skipped (ambient exceeds cap)")
        else:
            print("bruteforce: %d (%s)" % (brute, "match" if brute == formula else "MISMATCH"))
    if brute is not None and brute != formula:
        raise InternalMismatch("closed form disagrees with enumeration")
    return EXIT_OK


def _series_terms(ctx, series):
    return [
        {"x_exponent": e, "coeff": ctx.ring.poly_str(c)}
        for e, c in series.term_list()
    ]


def _cmd_fgl(args):
    if args.law == "multiplicative":
        D = 8 if args.deg is None else args.deg
        fgl.check_work(args.p, 1, args.k, args.prec_p, 1, D, args.law)
        ctx = fgl.multiplicative_context(args.p, a=args.prec_p, D=D)
    else:
        fgl.check_work(args.p, args.n, args.k, args.prec_p, args.prec_u, args.deg)
        ctx = fgl.build_ptypical(args.p, args.n, a=args.prec_p, b=args.prec_u, D=args.deg)
    series, f, _ = fgl.prepare_p_series(ctx, args.k)
    rank = f.degree()
    payload = {
        "law": ctx.label,
        "precision": {"p_adic": ctx.ring.a, "u_degree": ctx.ring.b, "x_degree": ctx.D},
        "series": _series_terms(ctx, series),
        "torsion_rank": rank,
        "expected_rank": args.p ** (args.k * ctx.n),
    }
    if args.json:
        _emit_json(payload)
    else:
        print("%s at precision (p^%d, u^%d, x^%d)" % (ctx.label, ctx.ring.a, ctx.ring.b, ctx.D))
        print("[%d^%d](x) = %s" % (args.p, args.k, series.series_str()))
        print("torsion rank: %d (expected %d)" % (rank, payload["expected_rank"]))
    if rank != payload["expected_rank"]:
        raise InternalMismatch("torsion rank disagrees with p^{kn}")
    return EXIT_OK


def _cmd_reproduce(args):
    seed = accept.DEFAULT_SEED if args.seed is None else args.seed
    results = accept.run_all(seed=seed)
    if args.json:
        _emit_json(
            {
                "seed": seed,
                "criteria": [
                    {"number": r.number, "name": r.name, "ok": r.ok, "detail": r.detail}
                    for r in results
                ],
                "ok": all(r.ok for r in results),
            }
        )
    else:
        for r in results:
            print("[%s] %02d %-28s %s" % ("PASS" if r.ok else "FAIL", r.number, r.name, r.detail))
        print("%d/%d criteria passed" % (sum(r.ok for r in results), len(results)))
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(
        prog="transchrome",
        description="Exact transfer combinatorics on symmetric groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--json", action="store_true", help="canonical JSON output")

    sp = sub.add_parser("homs", help="enumerate hom classes with their invariants")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_homs)

    sp = sub.add_parser("decompose", help="component decomposition report")
    for flag in ("--p", "--n", "--t", "--k"):
        sp.add_argument(flag, type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("transfer", help="transfer datum for one class")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, default=None, help="block exponent (default k-1)")
    which = sp.add_mutually_exclusive_group()
    which.add_argument("--class-id", help="canonical class identifier")
    which.add_argument("--alpha", help="semicolon-separated cycle notation, e.g. '(0 1);(2 3)'")
    add_common(sp)
    sp.set_defaults(func=_cmd_transfer)

    sp = sub.add_parser("induce", help="apply plain and grouped induction to a class function file")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m", type=int, default=None, help="block exponent (default k-1)")
    sp.add_argument("--chi", required=True, help="JSON file {class_id: 'a/b'} on the block subgroup")
    add_common(sp)
    sp.set_defaults(func=_cmd_induce)

    sp = sub.add_parser("count-sub", help="closed-form sublattice count with brute-force cross-check")
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_count_sub)

    sp = sub.add_parser("fgl", help="build a formal group law, print the p^k-series and its prepared degree")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, default=1, help="height (ptypical law)")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--law", choices=("ptypical", "multiplicative"), default="ptypical")
    sp.add_argument("--prec-p", type=int, default=4, help="p-adic precision a")
    sp.add_argument("--prec-u", type=int, default=8, help="u-degree truncation b")
    sp.add_argument("--deg", type=int, default=None, help="x-degree truncation D")
    add_common(sp)
    sp.set_defaults(func=_cmd_fgl)

    sp = sub.add_parser("reproduce", help="run every acceptance criterion")
    sp.add_argument("--seed", type=int, default=None)
    add_common(sp)
    sp.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (InternalMismatch, IntegralityFailure) as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY
    except ResourceLimit as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, ValueError) as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except TranschromeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
