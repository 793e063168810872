"""Command line surface over the library, one subcommand per operation.

Every invocation prints a single report: {"command", "input", "result",
"checks"} as JSON (default) or an aligned text table.  Each check compares
the result with a second route to it, so the tool double-checks itself on
every call.  The checks live in `acceptance`, one `<subcommand>_checks`
function each (`flag_checks` for flag-check), which the acceptance battery
runs over its sweeps too; a handler here only computes its result, shapes
it for JSON and hands it to that function.  `isom`, `degrees` and `picard`
have no second route yet, so they print an empty check list.
`COMMANDS` names each subcommand's handler, help and arguments, from
which `_build_parser` builds the parser.  A handler checks an integer
argument whose library parameter has another name (`imax` for `i_max`,
`--random` for `count`, `n`, `i`, `t`, `k`, `a` and `b`) itself, with the
same `types.check_int` rule, so an error names the argument as the help
does; a bound that depends on a vector is checked once the library would
accept the vector, so a malformed one keeps the library's message.

Exit codes: 0 success, 1 a mathematical check failed, 2 invalid input,
3 a resource cap exceeded (also a result with an integer too long to
print).  Vectors are comma-separated integers with no
whitespace.  All randomness sits behind --seed (default 0).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance
from .fusion import (
    build_module,
    build_submodule,
    character,
    check_relations,
    exact_sequence_check,
)
from .schubert import (
    bundle_split,
    canonical_flag,
    coordinate_ring_dims,
    curve_degrees,
    isomorphic,
    line_bundle_exists,
    morphism_exists,
    picard_rank,
    sections_dim,
)
from .types import (
    Composition,
    DimensionCapError,
    check_int,
    leq,
    poincare,
    poincare_recursive_single,
    type_of,
    weakly_increasing,
)
from .verlinde import character_stabilization, fuse, limit_multiplicities

__all__ = ["main"]


def _comma_ints(text: str) -> tuple:
    if not text or any(ch.isspace() for ch in text):
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers with no whitespace")
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated integer list: {text!r}")


# --- handlers: each returns (result, the acceptance checks of it) ----------

def _cmd_dim(args):
    dim = build_module(args.A).dimension
    return dim, acceptance.dim_checks(args.A, dim)


def _cmd_char(args):
    char = character(args.A)
    entries = [{"weight": w, "energy": t, "mult": m}
               for (w, t), m in sorted(char.items(), key=lambda kv: (kv[0][1], kv[0][0]))]
    result = {"entries": entries, "dimension": sum(char.values())}
    return result, acceptance.char_checks(args.A, char)


def _cmd_relations(args):
    report = check_relations(check_int(args.n, "n", 1),
                             check_int(args.i, "i", 1))
    result = [{"power": i, "lowest_degree": k}
              for i, k in enumerate(report.lowest, start=1)]
    return result, acceptance.relations_checks(report)


def _pair_index(args) -> int:
    """`i` checked against the adjacent pairs of a well-formed A."""
    if len(weakly_increasing(args.A, minimum=1)) > 1:
        check_int(args.i, "i", 1, len(args.A) - 1)
    return args.i


def _cmd_submodule(args):
    sub = build_submodule(args.A, _pair_index(args))
    result = {"dimension": sub.dimension, "case": sub.case,
              "aprime": list(sub.aprime),
              "adoubleprime": list(sub.adoubleprime) if sub.adoubleprime else None}
    return result, acceptance.submodule_checks(args.A, args.i, sub.dimension)


def _cmd_exactseq(args):
    res = exact_sequence_check(args.A, _pair_index(args))
    result = {"submodule_dim": res.dim_submodule,
              "quotient_weights": list(res.quotient),
              "quotient_dim": res.dim_quotient,
              "parent_dim": res.dim_module}
    return result, acceptance.exactseq_checks(res)


def _cmd_type(args):
    comp = type_of(args.A)
    result = {"parts": list(comp.parts), "n": comp.n, "s": comp.s}
    return result, acceptance.type_checks(comp)


def _cmd_order(args):
    c1, c2 = Composition(args.C1), Composition(args.C2)
    lo_hi, hi_lo = leq(c1, c2), leq(c2, c1)
    result = {"leq": lo_hi, "geq": hi_lo, "comparable": lo_hi or hi_lo}
    return result, acceptance.order_checks(c1, c2, lo_hi, hi_lo)


def _cmd_poincare(args):
    comp = Composition(args.C)
    # the closed form comes first: it charges the n + 1 coefficients
    # before the quadratic recursive route runs
    poly = poincare(comp)
    if args.recursive:
        # a balanced product tree: each level multiplies neighbours, so
        # every factor is repacked once per level, not once per part
        polys = [poincare_recursive_single(p) for p in comp.parts]
        while len(polys) > 1:
            polys = [polys[i] * polys[i + 1] if i + 1 < len(polys) else polys[i]
                     for i in range(0, len(polys), 2)]
        (poly,) = polys
    result = {"coefficients": list(poly.even_coeffs), "degree": poly.degree}
    return result, acceptance.poincare_checks(comp, poly, args.recursive)


def _cmd_isom(args):
    return {"isomorphic": isomorphic(args.A, args.B)}, []


def _cmd_morphism(args):
    source, target = Composition(args.C1), Composition(args.C2)
    exists = morphism_exists(source, target)
    return {"exists": exists}, acceptance.morphism_checks(source, target, exists)


def _cmd_bundle_split(args):
    comp = Composition(args.C)
    if comp.s > 1:
        check_int(args.t, "t", 1, comp.s - 1)
    split = bundle_split(comp, args.t)
    total, fiber, base = map(poincare, (comp, split.fiber, split.base))
    result = {
        "fiber": list(split.fiber.parts),
        "base": list(split.base.parts),
        "total_poincare": list(total.even_coeffs),
        "fiber_poincare": list(fiber.even_coeffs),
        "base_poincare": list(base.even_coeffs),
    }
    return result, acceptance.bundle_split_checks(total, fiber, base)


def _cmd_bundle_exists(args):
    comp = Composition(args.C)
    exists = line_bundle_exists(args.B, comp)
    return {"exists": exists}, acceptance.bundle_exists_checks(args.B, comp, exists)


def _cmd_sections(args):
    dim = sections_dim(args.B, Composition(args.C))
    return dim, acceptance.sections_checks(args.B, dim)


def _cmd_degrees(args):
    return list(curve_degrees(args.B)), []


def _cmd_picard(args):
    return picard_rank(Composition(args.C)), []


def _cmd_coordring(args):
    dims = coordinate_ring_dims(args.A, check_int(args.imax, "imax", 0))
    return list(dims), acceptance.coordring_checks(args.A, dims)


def _cmd_flag_check(args):
    count = check_int(args.random, "--random", 0)
    comp = Composition(args.C)
    chain = canonical_flag(comp)
    checks = acceptance.flag_checks(chain, comp, count, args.seed)
    return {"dimensions": list(chain.dimensions())}, checks


def _cmd_verlinde_fuse(args):
    k = check_int(args.k, "k", 0)
    elt = fuse(k, check_int(args.a, "a", 0, k), check_int(args.b, "b", 0, k))
    result = {"coefficients": list(elt.coeffs), "support": list(elt.support())}
    return result, acceptance.verlinde_fuse_checks(args.a, args.b, elt)


def _cmd_verlinde_limit(args):
    decomp = limit_multiplicities(args.B)
    result = {"level": decomp.level,
              "multiplicities": list(decomp.multiplicities),
              "boundary_coefficient": decomp.boundary_coefficient,
              "boundary_nonzero": decomp.boundary_nonzero}
    return result, acceptance.verlinde_limit_checks(decomp)


def _cmd_stabilize(args):
    report = character_stabilization(args.B, check_int(args.imax, "imax", 1),
                                     check_int(args.degmax, "degmax", 0))
    tables = [
        {str(d): {str(w): m for w, m in sorted(stratum.items())}
         for d, stratum in sorted(table.items())}
        for table in report.tables
    ]
    result = {"tables": tables, "dims": list(report.dims),
              "stable_from": report.stable_from}
    return result, acceptance.stabilize_checks(report)


def _cmd_selftest(args):
    if args.max_n is not None:
        check_int(args.max_n, "--max-n", 1)
    results = acceptance.run_all(args.max_n)
    result = [{"number": r.number, "name": r.name, "passed": r.passed,
               "detail": r.detail} for r in results]
    return result, acceptance.selftest_checks(results)


_VECTOR = {"type": _comma_ints}
_INT = {"type": int}

# name -> (handler, help text, arguments); each argument is the name or flag
# and the keywords that add_argument takes, in declaration order
COMMANDS = {
    "dim": (_cmd_dim, "dimension of the fusion module on A", [("A", _VECTOR)]),
    "char": (_cmd_char, "bigraded character of the module on A",
             [("A", _VECTOR)]),
    "relations": (_cmd_relations, "current-series relation check",
                  [("n", _INT), ("i", _INT)]),
    "submodule": (_cmd_submodule, "kernel submodule at the i-th pair",
                  [("A", _VECTOR), ("i", _INT)]),
    "exactseq": (_cmd_exactseq, "kernel-quotient dimension additivity",
                 [("A", _VECTOR), ("i", _INT)]),
    "type": (_cmd_type, "run-length type of a weight vector", [("A", _VECTOR)]),
    "order": (_cmd_order, "compare two compositions in the type order",
              [("C1", _VECTOR), ("C2", _VECTOR)]),
    "poincare": (_cmd_poincare, "Poincare polynomial of a type",
                 [("C", _VECTOR),
                  ("--recursive", {"action": "store_true",
                                   "help": "compute via the single-row recursion"})]),
    "isom": (_cmd_isom, "do two weight vectors give isomorphic modules",
             [("A", _VECTOR), ("B", _VECTOR)]),
    "morphism": (_cmd_morphism, "does a morphism exist from C1 to C2",
                 [("C1", _VECTOR), ("C2", _VECTOR)]),
    "bundle-split": (_cmd_bundle_split, "fibration split of a type",
                     [("C", _VECTOR), ("t", _INT)]),
    "bundle-exists": (_cmd_bundle_exists, "line bundle existence",
                      [("B", _VECTOR), ("C", _VECTOR)]),
    "sections": (_cmd_sections, "dimension of the section space",
                 [("B", _VECTOR), ("C", _VECTOR)]),
    "degrees": (_cmd_degrees, "degrees on the standard curve chain",
                [("B", _VECTOR)]),
    "picard": (_cmd_picard, "Picard rank of a type", [("C", _VECTOR)]),
    "coordring": (_cmd_coordring, "coordinate ring strata dimensions",
                  [("A", _VECTOR), ("imax", _INT)]),
    "flag-check": (_cmd_flag_check, "canonical chain membership",
                   [("C", _VECTOR),
                    ("--random", {"type": int, "default": 0, "metavar": "N",
                                  "help": "also test N random group translates"}),
                    ("--seed", {"type": int, "default": 0})]),
    "verlinde-fuse": (_cmd_verlinde_fuse, "level-k fusion product",
                      [("k", _INT), ("a", _INT), ("b", _INT)]),
    "verlinde-limit": (_cmd_verlinde_limit,
                       "limit decomposition of a bundle product",
                       [("B", _VECTOR)]),
    "stabilize": (_cmd_stabilize, "top character strata along the chain",
                  [("B", _VECTOR), ("imax", _INT), ("degmax", _INT)]),
    "selftest": (_cmd_selftest, "run the acceptance battery",
                 [("--max-n", _INT)]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert-fusion",
        description="Fusion modules, Schubert chains, line bundles and "
                    "Verlinde limits with per-call consistency checks.")
    parser.add_argument("--format", choices=("json", "table"), default="json",
                        help="output rendering (default json)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _render_value(value, indent="  "):
    lines = []
    if isinstance(value, dict):
        for key, inner in value.items():
            if isinstance(inner, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_value(inner, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {inner}")
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            lines.append(f"{indent}{value}")
        else:
            for x in value:
                lines.extend(_render_value(x, indent + "  "))
    else:
        lines.append(f"{indent}{value}")
    return lines


def _render_table(report) -> str:
    lines = [f"command: {report['command']}"]
    for key, value in report["input"].items():
        lines.append(f"input {key}: {value}")
    lines.append("result:")
    lines.extend(_render_value(report["result"]))
    for chk in report["checks"]:
        status = "pass" if chk["pass"] else "FAIL"
        suffix = f"  ({chk['detail']})" if chk["detail"] else ""
        lines.append(f"check {chk['name']}: {status}{suffix}")
    return "\n".join(lines)


def _render(report, fmt) -> str:
    # The report is rendered whole before any of it is printed.  The one
    # ValueError either rendering raises is an int with more digits than
    # the interpreter converts to a string, a result too long to print.
    try:
        return json.dumps(report) if fmt == "json" else _render_table(report)
    except ValueError as exc:
        raise DimensionCapError(
            "result holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits") from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # the input echo is every subcommand argument, in declaration order
    echo = {key: list(value) if isinstance(value, tuple) else value
            for key, value in vars(args).items()
            if key not in ("format", "command", "handler")}
    try:
        result, checks = args.handler(args)
        text = _render({"command": args.command, "input": echo,
                        "result": result, "checks": checks}, args.format)
    except DimensionCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0 if all(chk["pass"] for chk in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
