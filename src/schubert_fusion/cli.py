"""Command line surface over the library, one subcommand per operation.

Every invocation prints a single report: {"command", "input", "result",
"checks"} as JSON (default) or an aligned text table.  Each check is an
independently recomputed consistency statement about the result, so the
tool double-checks itself on every call.

Exit codes: 0 success, 1 a mathematical check failed, 2 invalid input,
3 a resource cap exceeded (also a result with an integer too long to
print).  Vectors are comma-separated integers with no
whitespace.  All randomness sits behind --seed (default 0).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import acceptance
from .fusion import (
    DimensionCapError,
    build_module,
    build_submodule,
    character,
    character_recursive,
    check_relations,
    exact_sequence_check,
    kernel_dimension,
)
from .schubert import (
    bundle_split,
    canonical_flag,
    coordinate_ring_dims,
    curve_degrees,
    flag_conditions,
    flag_membership,
    group_act,
    isomorphic,
    line_bundle_exists,
    morphism_exists,
    picard_rank,
    random_group_element,
    sections_dim,
)
from .types import (
    Composition,
    PoincarePolynomial,
    _check_size,
    canonical_A,
    leq,
    leq_by_vectors,
    poincare,
    poincare_recursive_single,
    type_of,
)
from .verlinde import (
    character_stabilization,
    classical_limit_check,
    fuse,
    limit_multiplicities,
    product_chain,
    product_chain_right,
)

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


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


_ORACLE_LIMIT = 512  # largest module a per-call cross-check will build


def _module_oracle(name: str, weights, expected: int, detail: str) -> dict:
    """Check a closed-form count against the built fusion module on
    `weights`, or pass it as skipped when the module is too large."""
    if math.prod(weights) > _ORACLE_LIMIT:
        return _check(name, True, f"skipped, module larger than {_ORACLE_LIMIT}")
    return _check(name, build_module(weights).dimension == expected, detail)


# --- handlers: each returns (result, list of checks) -----------------------

def _cmd_dim(args):
    weights = args.A
    dim = build_module(weights).dimension
    expected = math.prod(weights)
    checks = [_check("product_formula", dim == expected,
                     f"product of weights is {expected}")]
    return dim, checks


def _cmd_char(args):
    weights = args.A
    char = character(weights)
    entries = [{"weight": w, "energy": t, "mult": m}
               for (w, t), m in sorted(char.items(), key=lambda kv: (kv[0][1], kv[0][0]))]
    total = sum(char.values())
    checks = [
        _check("total_dimension", total == math.prod(weights),
               f"character sums to {total}"),
        _check("peeling_recursion", char == character_recursive(weights),
               "matches the span-free recursion"),
    ]
    return {"entries": entries, "dimension": total}, checks


def _cmd_relations(args):
    report = check_relations(args.n, args.i)
    result = [{"power": c.power, "required_vanishing": c.required_vanishing,
               "ok": c.ok, "first_violation": c.first_violation}
              for c in report.checks]
    checks = [_check("series_vanishing", report.ok,
                     f"powers 2..{args.i} on truncation {args.n}")]
    return result, checks


def _cmd_submodule(args):
    weights, index = args.A, args.i
    sub = build_submodule(weights, index)
    expected = kernel_dimension(weights, index)
    result = {"dimension": sub.dimension, "case": sub.case,
              "aprime": list(sub.aprime),
              "adoubleprime": list(sub.adoubleprime) if sub.adoubleprime else None}
    if expected is not None:
        checks = [_check("closed_form", sub.dimension == expected,
                         f"boundary case predicts {expected}")]
    else:
        checks = [_check("proper_submodule",
                         0 < sub.dimension < math.prod(weights),
                         "strictly between 0 and the parent dimension")]
    return result, checks


def _cmd_exactseq(args):
    res = exact_sequence_check(args.A, args.i)
    result = {"submodule_dim": res.dim_submodule,
              "quotient_weights": list(res.quotient),
              "quotient_dim": res.dim_quotient,
              "parent_dim": res.dim_module}
    checks = [_check("dimension_additivity", res.holds,
                     f"{res.dim_submodule} + {res.dim_quotient} vs {res.dim_module}")]
    return result, checks


def _cmd_type(args):
    comp = type_of(args.A)
    checks = [_check("canonical_roundtrip", type_of(canonical_A(comp)) == comp,
                     "type survives the canonical weight vector")]
    return {"parts": list(comp.parts), "n": comp.n, "s": comp.s}, checks


def _cmd_order(args):
    c1, c2 = Composition(args.C1), Composition(args.C2)
    lo_hi, hi_lo = leq(c1, c2), leq(c2, c1)
    result = {"leq": lo_hi, "geq": hi_lo, "comparable": lo_hi or hi_lo}
    checks = [_check("antisymmetry", not (lo_hi and hi_lo and c1 != c2),
                     "both directions only for equal compositions")]
    return result, checks


def _cmd_poincare(args):
    comp = Composition(args.C)
    closed = poincare(comp)
    if args.recursive:
        poly = PoincarePolynomial((1,))
        for part in comp.parts:
            poly = poly * poincare_recursive_single(part)
        checks = [_check("matches_closed_form", poly == closed,
                         "single-row recursion, multiplied over parts")]
    else:
        poly = closed
        checks = [_check("euler_value",
                         poly.evaluate(1) == math.prod(i + 1 for i in comp.parts),
                         f"value at q=1 is {poly.evaluate(1)}")]
    result = {"coefficients": list(poly.even_coeffs), "degree": poly.degree}
    return result, checks


def _cmd_isom(args):
    iso = isomorphic(args.A, args.B)
    invariants_agree = (
        poincare(type_of(args.A)) == poincare(type_of(args.B))
        and picard_rank(type_of(args.A)) == picard_rank(type_of(args.B)))
    checks = [_check("invariants_consistent", invariants_agree or not iso,
                     "isomorphic varieties share Poincare data and Picard rank")]
    return {"isomorphic": iso}, checks


def _cmd_morphism(args):
    source, target = Composition(args.C1), Composition(args.C2)
    exists = morphism_exists(source, target)
    checks = [_check("vector_formulation",
                     exists == leq_by_vectors(target, source),
                     "agrees with the canonical-vector order")]
    return {"exists": exists}, checks


def _cmd_bundle_split(args):
    comp = Composition(args.C)
    split = bundle_split(comp, args.t)
    result = {
        "fiber": list(split.fiber.parts),
        "base": list(split.base.parts),
        "total_poincare": list(poincare(comp).even_coeffs),
        "fiber_poincare": list(poincare(split.fiber).even_coeffs),
        "base_poincare": list(poincare(split.base).even_coeffs),
    }
    checks = [_check("factorization", split.identity_holds,
                     "total polynomial is the product of the factors")]
    return result, checks


def _cmd_bundle_exists(args):
    comp = Composition(args.C)
    exists = line_bundle_exists(args.B, comp)
    blocks_ok, start = True, 0
    for part in comp.parts:
        block = args.B[start:start + part]
        blocks_ok = blocks_ok and len(set(block)) == 1
        start += part
    checks = [_check("blockwise_constant", exists == blocks_ok,
                     "existence means the bundle is constant on each block")]
    return {"exists": exists}, checks


def _cmd_sections(args):
    comp = Composition(args.C)
    dim = sections_dim(args.B, comp)
    checks = [_module_oracle("module_oracle", tuple(b + 1 for b in args.B), dim,
                             "matches the fusion module on weights b_i + 1")]
    return dim, checks


def _cmd_degrees(args):
    degs = curve_degrees(args.B)
    ok = all(x >= y for x, y in zip(degs, degs[1:])) and degs[-1] >= 0
    checks = [_check("weakly_decreasing", ok,
                     "partial sums of a nonnegative vector")]
    return list(degs), checks


def _cmd_picard(args):
    comp = Composition(args.C)
    rank = picard_rank(comp)
    checks = [_check("bounded", 1 <= rank <= comp.n,
                     "rank between 1 and n")]
    return rank, checks


def _cmd_coordring(args):
    dims = coordinate_ring_dims(args.A, args.imax)
    checks = [_check("unit_stratum", dims[0] == 1, "degree 0 is the constants")]
    if args.imax >= 1:
        checks.append(_module_oracle("module_dimension", args.A, dims[1],
                                     "degree 1 stratum matches the fusion module"))
    return list(dims), checks


def _cmd_flag_check(args):
    if args.random < 0:
        raise ValueError(f"--random must be nonnegative, got {args.random}")
    comp = Composition(args.C)
    # each membership check, of the canonical chain and of each translate,
    # tests about s * 2n vectors against the s subspaces
    _check_size((args.random + 1) * comp.s * 2 * comp.n,
                f"{args.random + 1} membership checks of {comp.s} subspaces "
                f"in dimension {2 * comp.n}")
    chain = canonical_flag(comp)
    conditions = flag_conditions(chain, comp)
    checks = [_check(name, ok, "canonical chain") for name, ok in conditions.items()]
    invariant, tested = True, 0
    if args.random:
        rng = random.Random(args.seed)
        for _ in range(args.random):
            g = random_group_element(comp.n, rng)
            if not flag_membership(group_act(g, chain), comp):
                invariant = False
                break
            tested += 1
        checks.append(_check("group_invariance", invariant,
                             f"{tested} elements at seed {args.seed}"))
    result = {"dimensions": list(chain.dimensions()),
              "conditions": dict(conditions)}
    return result, checks


def _cmd_verlinde_fuse(args):
    k, a, b = args.k, args.a, args.b
    elt = fuse(k, a, b)
    classical = elt.classical_dimension()
    bound = (a + 1) * (b + 1)
    classical_ok = classical == bound if k >= a + b else classical <= bound
    checks = [
        _check("commutative", fuse(k, b, a) == elt, "[b].[a] agrees"),
        _check("classical_bound", classical_ok,
               f"total dimension {classical} vs tensor product {bound}"),
    ]
    result = {"coefficients": list(elt.coeffs), "support": list(elt.support())}
    return result, checks


def _cmd_verlinde_limit(args):
    decomp = limit_multiplicities(args.B)
    level = decomp.level
    result = {"level": level,
              "multiplicities": list(decomp.multiplicities),
              "boundary_coefficient": decomp.boundary_coefficient,
              "boundary_nonzero": decomp.boundary_nonzero}
    checks = [
        _check("fold_independence",
               product_chain(level, args.B) == product_chain_right(level, args.B),
               "left and right folds of the product agree"),
        _check("classical_limit", classical_limit_check(args.B),
               "high-level product has the tensor dimension"),
    ]
    return result, checks


def _cmd_stabilize(args):
    report = character_stabilization(args.B, args.imax, args.degmax)
    tables = [
        {str(d): {str(w): m for w, m in sorted(stratum.items())}
         for d, stratum in sorted(table.items())}
        for table in report.tables
    ]
    result = {"tables": tables, "dims": list(report.dims),
              "expected_dims": list(report.expected_dims),
              "stable_from": report.stable_from}
    checks = [
        _check("dims_match", report.dims_match,
               "section dims follow the closed form"),
        _check("stabilized", report.stable_from is not None,
               f"top strata constant from i = {report.stable_from}"),
    ]
    return result, checks


def _cmd_selftest(args):
    results = acceptance.run_all(args.max_n)
    result = [{"number": r.number, "name": r.name, "passed": r.passed,
               "detail": r.detail} for r in results]
    checks = [_check(f"criterion_{r.number}", r.passed, r.name)
              for r in results]
    return result, checks


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubert-fusion",
        description="Fusion modules, Schubert chains, line bundles and "
                    "Verlinde limits with per-call consistency checks.")
    parser.add_argument("--format", choices=("json", "table"), default="json",
                        help="output rendering (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("dim", _cmd_dim, "dimension of the fusion module on A")
    p.add_argument("A", type=_comma_ints)

    p = add("char", _cmd_char, "bigraded character of the module on A")
    p.add_argument("A", type=_comma_ints)

    p = add("relations", _cmd_relations, "current-series relation check")
    p.add_argument("n", type=int)
    p.add_argument("i", type=int)

    p = add("submodule", _cmd_submodule, "kernel submodule at the i-th pair")
    p.add_argument("A", type=_comma_ints)
    p.add_argument("i", type=int)

    p = add("exactseq", _cmd_exactseq, "kernel-quotient dimension additivity")
    p.add_argument("A", type=_comma_ints)
    p.add_argument("i", type=int)

    p = add("type", _cmd_type, "run-length type of a weight vector")
    p.add_argument("A", type=_comma_ints)

    p = add("order", _cmd_order, "compare two compositions in the type order")
    p.add_argument("C1", type=_comma_ints)
    p.add_argument("C2", type=_comma_ints)

    p = add("poincare", _cmd_poincare, "Poincare polynomial of a type")
    p.add_argument("C", type=_comma_ints)
    p.add_argument("--recursive", action="store_true",
                   help="compute via the single-row recursion")

    p = add("isom", _cmd_isom, "do two weight vectors give isomorphic modules")
    p.add_argument("A", type=_comma_ints)
    p.add_argument("B", type=_comma_ints)

    p = add("morphism", _cmd_morphism, "does a morphism exist from C1 to C2")
    p.add_argument("C1", type=_comma_ints)
    p.add_argument("C2", type=_comma_ints)

    p = add("bundle-split", _cmd_bundle_split, "fibration split of a type")
    p.add_argument("C", type=_comma_ints)
    p.add_argument("t", type=int)

    p = add("bundle-exists", _cmd_bundle_exists, "line bundle existence")
    p.add_argument("B", type=_comma_ints)
    p.add_argument("C", type=_comma_ints)

    p = add("sections", _cmd_sections, "dimension of the section space")
    p.add_argument("B", type=_comma_ints)
    p.add_argument("C", type=_comma_ints)

    p = add("degrees", _cmd_degrees, "degrees on the standard curve chain")
    p.add_argument("B", type=_comma_ints)

    p = add("picard", _cmd_picard, "Picard rank of a type")
    p.add_argument("C", type=_comma_ints)

    p = add("coordring", _cmd_coordring, "coordinate ring strata dimensions")
    p.add_argument("A", type=_comma_ints)
    p.add_argument("imax", type=int)

    p = add("flag-check", _cmd_flag_check, "canonical chain membership")
    p.add_argument("C", type=_comma_ints)
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help="also test N random group translates")
    p.add_argument("--seed", type=int, default=0)

    p = add("verlinde-fuse", _cmd_verlinde_fuse, "level-k fusion product")
    p.add_argument("k", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = add("verlinde-limit", _cmd_verlinde_limit,
            "limit decomposition of a bundle product")
    p.add_argument("B", type=_comma_ints)

    p = add("stabilize", _cmd_stabilize, "top character strata along the chain")
    p.add_argument("B", type=_comma_ints)
    p.add_argument("imax", type=int)
    p.add_argument("degmax", type=int)

    p = add("selftest", _cmd_selftest, "run the acceptance battery")
    p.add_argument("--max-n", type=int, default=None, dest="max_n")

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
