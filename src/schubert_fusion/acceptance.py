"""Acceptance battery and the cross-checks of the CLI subcommands.

Each `<subcommand>_checks` function (`flag_checks` for `flag-check`) takes
that subcommand's result and checks it by a second route, returning the
{"name", "pass", "detail"} dicts that the CLI prints.  The ten criteria,
the headline properties at desk scale, call the same functions over their
sweeps, so each cross-check has one home and both front ends run it.  A
statement that holds by construction, whatever the first route computes,
is no second route and is not a check: `isom`, `degrees` and `picard`
have no function here until they get a real one, and a second route left
unrun, such as a module past the peeling cap, gives no check; nor does
rerunning one fold, so the Verlinde checks use `verlinde.kac_walton`.
The result records only compute; `fusion.ExactSequenceResult.holds` is
the one verdict a record keeps.

Each criterion is a self-contained exhaustive or seeded check returning a
CheckResult; run_all executes them in order.  Scales are chosen so the whole
battery finishes in about ten seconds; max_n trims the larger sweeps for a
quicker smoke run.  Everything is exact: integer elimination in the span
closures and the flag model, int numerators over one denominator in the
group elements, and floats only in the quantum-dimension check inside
criterion 9, which is numerical by nature and carries its own tolerance.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections import namedtuple

from .fock import mask_current, mask_grade
from .fusion import (build_module, character, character_recursive,
                     check_relations, exact_sequence_check, kernel_dimension,
                     monomial_basis)
from .linalg import SpanBasis
from .schubert import (bundle_split, canonical_flag, coordinate_ring_dims,
                       curve_degrees, flag_conditions, flag_membership,
                       group_act, line_bundle_exists, morphism_exists,
                       random_group_element, sections_dim)
from .types import (Composition, DimensionCapError, _check_size, canonical_A,
                    check_int, compositions, leq, leq_by_vectors, poincare,
                    poincare_recursive_single, type_of)
from .verlinde import (character_stabilization, fuse,
                       grassmannian_section_dims, grassmannian_weights,
                       kac_walton, limit_multiplicities, product_chain)

__all__ = [
    "CheckResult", "CRITERIA", "run_all", "weight_corpus", "dim_checks",
    "char_checks", "relations_checks", "submodule_checks", "exactseq_checks",
    "type_checks", "order_checks", "poincare_checks", "morphism_checks",
    "bundle_split_checks", "bundle_exists_checks", "sections_checks",
    "coordring_checks", "flag_checks", "verlinde_fuse_checks",
    "verlinde_limit_checks", "stabilize_checks", "selftest_checks",
]


class CheckResult(namedtuple("CheckResult", "number name passed detail")):
    """Outcome of criterion `number`: its name, pass flag and a detail line."""

    __slots__ = ()


def weight_corpus(bound: int, max_len: int | None = None) -> list:
    """Weakly increasing vectors with entries >= 2 and product <= bound.

    Entries equal to 1 are excluded: they multiply neither the dimension
    nor the model, so admitting them would make the corpus infinite.
    """
    out = []

    def grow(prefix, prod, last):
        if prefix:
            out.append(tuple(prefix))
        if max_len is not None and len(prefix) >= max_len:
            return
        a = last
        while prod * a <= bound:
            prefix.append(a)
            grow(prefix, prod * a, a)
            prefix.pop()
            a += 1

    grow([], 1, 2)
    return out


# --- cross-checks, one function per subcommand -----------------------------

def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


_ORACLE_LIMIT = 512  # largest module a per-call cross-check will build


def _module_oracle(name: str, weights, expected: int, detail: str) -> list:
    """Check a closed-form count against the fusion module on `weights`.

    Up to _ORACLE_LIMIT dimensions the module is built; above it the count
    is compared with the total of `character_recursive`, which builds no
    span.  A module past the peeling cap gives no check."""
    if math.prod(weights) <= _ORACLE_LIMIT:
        return [_check(name, build_module(weights).dimension == expected,
                       detail)]
    try:
        total = sum(character_recursive(weights).values())
    except DimensionCapError:
        return []
    return [_check(name, total == expected, f"{detail}, by peeling")]


def dim_checks(weights, dim: int) -> list:
    expected = math.prod(weights)
    return [_check("product_formula", dim == expected,
                   f"product of weights is {expected}")]


def char_checks(weights, char: dict) -> list:
    total = sum(char.values())
    return [
        _check("total_dimension", total == math.prod(weights),
               f"character sums to {total}"),
        _check("peeling_recursion", char == character_recursive(weights),
               "matches the span-free recursion"),
    ]


def relations_checks(report) -> list:
    """The i-th power must vanish below z^{n (i - 1)}: its lowest degree is
    None or at least that."""
    n = report.truncation
    ok = all(k is None or k >= n * (i - 1)
             for i, k in enumerate(report.lowest, start=1))
    return [_check("series_vanishing", ok,
                   f"powers 2..{report.max_power} on truncation "
                   f"{report.truncation}")]


def submodule_checks(weights, index: int, dim: int) -> list:
    """`dim` is the dimension of the kernel submodule at pair `index`."""
    expected = kernel_dimension(weights, index)
    return [_check("closed_form", dim == expected,
                   f"closed form predicts {expected}")]


def exactseq_checks(res) -> list:
    return [_check("dimension_additivity", res.holds,
                   f"{res.dim_submodule} + {res.dim_quotient} "
                   f"vs {res.dim_module}")]


def type_checks(comp) -> list:
    return [_check("canonical_roundtrip", type_of(canonical_A(comp)) == comp,
                   "type survives the canonical weight vector")]


def order_checks(c1, c2, lo_hi: bool, hi_lo: bool) -> list:
    """`lo_hi` is leq(c1, c2) and `hi_lo` is leq(c2, c1)."""
    return [_check("antisymmetry", not (lo_hi and hi_lo and c1 != c2),
                   "both directions only for equal compositions")]


def poincare_checks(comp, poly, recursive: bool = False) -> list:
    """`poly` is the closed form of `comp`, or with `recursive` the product
    of the single-row recursion over its parts."""
    if recursive:
        return [_check("matches_closed_form", poly == poincare(comp),
                       "single-row recursion, multiplied over parts")]
    value = poly.evaluate(1)
    try:
        detail = f"value at q=1 is {value}"
    except ValueError:  # more digits than the interpreter prints
        detail = f"value at q=1 has more than {sys.get_int_max_str_digits()} digits"
    return [_check("euler_value", value == math.prod(i + 1 for i in comp.parts),
                   detail)]


def morphism_checks(source, target, exists: bool) -> list:
    return [_check("vector_formulation",
                   exists == leq_by_vectors(target, source),
                   "agrees with the canonical-vector order")]


def bundle_split_checks(total, fiber, base) -> list:
    """`total`, `fiber` and `base` are the closed forms of a composition
    and of the two halves of one of its bundle splits."""
    return [_check("factorization", fiber * base == total,
                   "total polynomial is the product of the factors")]


def bundle_exists_checks(bundle, comp, exists: bool) -> list:
    blocks_ok, start = True, 0
    for part in comp.parts:
        blocks_ok = blocks_ok and len(set(bundle[start:start + part])) == 1
        start += part
    return [_check("blockwise_constant", exists == blocks_ok,
                   "existence means the bundle is constant on each block")]


def sections_checks(bundle, dim: int) -> list:
    return _module_oracle("module_oracle", tuple(b + 1 for b in bundle), dim,
                          "matches the fusion module on weights b_i + 1")


def coordring_checks(weights, dims) -> list:
    """`dims` are the graded pieces 0 .. i_max of the ring on `weights`;
    degree 0 is the constants whatever the weights, so only a degree 1
    piece has a second route."""
    if len(dims) < 2:
        return []
    return _module_oracle("module_dimension", weights, dims[1],
                          "degree 1 stratum matches the fusion module")


def _translates(draws, rng) -> tuple:
    """Act on the chain of each (composition, chain) of `draws` by a random
    group element from `rng`; return how many translates stay in their
    variety before the first that leaves, and that composition (None when
    every one stays)."""
    tested = 0
    for comp, chain in draws:
        g = random_group_element(comp.n, rng)
        if not flag_membership(group_act(g, chain), comp):
            return tested, comp
        tested += 1
    return tested, None


def flag_checks(chain, comp, count: int = 0, seed: int = 0) -> list:
    """The membership conditions of `chain`, the canonical chain of `comp`,
    and, for a positive `count`, that many translates by group elements
    drawn at `seed`, all of which must stay in the variety.  A negative
    `count` raises ValueError."""
    check_int(count, "count", 0)
    # each membership check, of the canonical chain and of each translate,
    # tests about s * 2n vectors against the s subspaces
    _check_size((count + 1) * comp.s * 2 * comp.n,
                f"{count + 1} membership checks of {comp.s} subspaces "
                f"in dimension {2 * comp.n}")
    checks = [_check(name, ok, "canonical chain")
              for name, ok in flag_conditions(chain, comp).items()]
    if count:
        tested, left = _translates(itertools.repeat((comp, chain), count),
                                   random.Random(seed))
        checks.append(_check("group_invariance", left is None,
                             f"{tested} elements at seed {seed}"))
    return checks


def verlinde_fuse_checks(a: int, b: int, elt) -> list:
    """`elt` is the level-k product [a] . [b], which the Kac-Walton formula
    reaches by reflecting the Clebsch-Gordan range |a - b| .. a + b."""
    classical = elt.classical_dimension()
    bound = (a + 1) * (b + 1)
    classical_ok = classical == bound if elt.level >= a + b else classical <= bound
    reflected = kac_walton(elt.level,
                           {c: 1 for c in range(abs(a - b), a + b + 1, 2)})
    return [
        _check("kac_walton", reflected == elt.coeffs,
               "the reflected Clebsch-Gordan range agrees"),
        _check("classical_bound", classical_ok,
               f"total dimension {classical} vs tensor product {bound}"),
    ]


def verlinde_limit_checks(decomp) -> list:
    """At level sum(b_i) no class reaches the wall, so the fold there is
    the classical product: its Kac-Walton reflection must be the reported
    multiplicities and boundary coefficient, and it must have the tensor
    dimension.  That fold is charged its coefficient updates, so a long
    bundle raises DimensionCapError well below the level cap."""
    bundle = decomp.bundle
    fold = product_chain(sum(bundle), bundle)
    reported = decomp.multiplicities + (decomp.boundary_coefficient,)
    return [
        _check("kac_walton",
               kac_walton(decomp.level, dict(enumerate(fold.coeffs))) == reported,
               "the reflected classical product agrees"),
        _check("classical_limit",
               fold.classical_dimension() == math.prod(b + 1 for b in bundle),
               "high-level product has the tensor dimension"),
    ]


def stabilize_checks(report) -> list:
    expected = tuple(grassmannian_section_dims(report.bundle, i)
                     for i in range(len(report.dims)))
    return [
        _check("dims_match", report.dims == expected,
               "section dims follow the closed form"),
    ]


def selftest_checks(results) -> list:
    """One check per criterion of `results`, the CheckResults of run_all."""
    return [_check(f"criterion_{r.number}", r.passed, r.name) for r in results]


# --- the criteria -----------------------------------------------------------

def _trim(max_n: int | None, full: int | None = None) -> int | None:
    """Upper end of a sweep: `full` (None if unbounded) lowered to `max_n`
    when one is given.  A `max_n` below 1 raises ValueError."""
    if max_n is None:
        return full
    check_int(max_n, "max_n", 1)
    return max_n if full is None else min(full, max_n)


def _all_compositions(n_max: int):
    for n in range(1, n_max + 1):
        yield from compositions(n)


def _failures(checks, where) -> list:
    """One problem line for each failed check, naming `where` it failed."""
    return [f"{chk['name']} fails at {where}: {chk['detail']}"
            for chk in checks if not chk["pass"]]


def _result(number: int, name: str, problems: list, detail: str) -> CheckResult:
    """Criterion `number` passes without problems; the first one found is
    appended to its detail line."""
    if problems:
        detail += "; " + problems[0]
    return CheckResult(number, name, not problems, detail)


def criterion_1_dimensions(max_n: int | None = None) -> CheckResult:
    corpus = weight_corpus(256, _trim(max_n))
    problems = []
    for weights in corpus:
        problems += _failures(
            dim_checks(weights, build_module(weights).dimension), weights)
    n_ladder = _trim(max_n, 6)
    powers = all(build_module((2,) * n).dimension == 2 ** n
                 for n in range(1, n_ladder + 1))
    if not powers:
        problems.append("the 2^n ladder fails")
    if len(corpus) < 60:
        problems.append(f"only {len(corpus)} modules in the corpus")
    detail = (f"{len(corpus)} modules with product <= 256; "
              f"2^n ladder n <= {n_ladder} {'ok' if powers else 'FAILED'}")
    return _result(1, "dimension product formula", problems, detail)


def criterion_2_relations(max_n: int | None = None) -> CheckResult:
    n_top = _trim(max_n, 4)
    problems = []
    for n in range(1, n_top + 1):
        problems += _failures(relations_checks(check_relations(n, 3)), f"n={n}")
    return _result(2, "vanishing of current-series coefficients", problems,
                   f"series powers i <= 3 on truncations n <= {n_top}")


def criterion_3_monomial_basis(max_n: int | None = None) -> CheckResult:
    n_top = _trim(max_n, 6)
    problems = []
    for n in range(1, n_top + 1):
        words = monomial_basis(n)
        by_len = {k: sum(1 for w in words if len(w) == k) for k in range(n + 1)}
        if any(by_len[k] != math.comb(n, k) for k in range(n + 1)):
            problems.append(f"n={n}: word counts differ from binomials")
            continue
        moves = [{} for _ in range(n)]  # per mode, the memoized bit moves
        basis = SpanBasis()
        for word in words:
            image = {(1 << n) - 1: 1}  # the top wedge
            for j in word:
                image = mask_current(j, image, n, moves[j])
            if not image:
                problems.append(f"n={n}: word {word} annihilates the top wedge")
                break
            grades = {mask_grade(mask, n) for mask in image}
            if grades != {next(iter(grades))} or next(iter(grades))[0] != -n + 2 * len(word):
                problems.append(f"n={n}: word {word} has wrong weight")
                break
            if not basis.insert(image):
                problems.append(f"n={n}: word {word} is dependent")
                break
        if basis.dimension != 2 ** n:
            problems.append(f"n={n}: span {basis.dimension} != {2 ** n}")
        if build_module((2,) * n).dimension != 2 ** n:
            problems.append(f"n={n}: module dimension mismatch")
    return _result(3, "monomial basis of the hypercube module", problems,
                   f"binomial refinement and independence up to n = {n_top}")


def criterion_4_exact_sequences(max_n: int | None = None) -> CheckResult:
    corpus = [A for A in weight_corpus(128, _trim(max_n)) if len(A) >= 2]
    problems = []
    pairs = 0
    for weights in corpus:
        for index in range(1, len(weights)):
            pairs += 1
            res = exact_sequence_check(weights, index)
            problems += _failures(
                exactseq_checks(res)
                + submodule_checks(weights, index, res.dim_submodule),
                f"{weights}, i={index}")
    for weights in corpus:
        problems += _failures(char_checks(weights, character(weights)), weights)
    detail = (f"{pairs} (A, i) pairs with product <= 128; closed kernel form "
              f"at every pair; peeling recursion cross-checked "
              f"on {len(corpus)} characters")
    return _result(4, "kernel-quotient dimension additivity", problems, detail)


def criterion_5_poincare(max_n: int | None = None) -> CheckResult:
    problems = []
    n_rec = _trim(max_n, 12)
    if poincare_recursive_single(0).even_coeffs != (1,):
        problems.append("recursion has the wrong empty-variety value")
    for n in range(1, n_rec + 1):
        problems += _failures(poincare_checks(
            Composition((n,)), poincare_recursive_single(n), True), f"n={n}")
    n_split = _trim(max_n, 8)
    splits = 0
    for comp in _all_compositions(n_split):
        total = poincare(comp)
        problems += _failures(poincare_checks(comp, total), comp.parts)
        for cut in range(1, comp.s):
            splits += 1
            split = bundle_split(comp, cut)
            problems += _failures(
                bundle_split_checks(total, poincare(split.fiber),
                                    poincare(split.base)),
                f"{comp.parts}, t={cut}")
    detail = (f"recursion vs closed form n <= {n_rec}; {splits} bundle "
              f"factorizations n <= {n_split}; Euler characteristic values")
    return _result(5, "Poincare polynomial identities", problems, detail)


def criterion_6_type_lattice(max_n: int | None = None) -> CheckResult:
    problems = []
    n_order = _trim(max_n, 7)
    for n in range(1, n_order + 1):
        comps = list(compositions(n))
        for a in comps:
            if not leq(a, a):
                problems.append(f"not reflexive at {a.parts}")
            problems += _failures(type_checks(a), a.parts)
        for a, b in itertools.permutations(comps, 2):
            problems += _failures(order_checks(a, b, leq(a, b), leq(b, a)),
                                  f"{a.parts}, {b.parts}")
        for a, b, c in itertools.product(comps, repeat=3):
            if leq(a, b) and leq(b, c) and not leq(a, c):
                problems.append(f"transitivity fails at {a.parts},{b.parts},{c.parts}")
                break
        top, bottom = Composition((1,) * n), Composition((n,))
        if not all(leq(c, top) and leq(bottom, c) for c in comps):
            problems.append(f"extremes wrong at n={n}")
        if any(leq(top, c) for c in comps if c != top) or \
           any(leq(c, bottom) for c in comps if c != bottom):
            problems.append(f"extremes not unique at n={n}")

    n_morph = _trim(max_n, 6)
    pairs = 0
    for n in range(1, n_morph + 1):
        comps = list(compositions(n))
        for lo, hi in itertools.product(comps, repeat=2):
            pairs += 1
            problems += _failures(
                morphism_checks(hi, lo, morphism_exists(hi, lo)),
                f"{lo.parts} vs {hi.parts}")
    detail = (f"order axioms and unique extremes n <= {n_order}; "
              f"{pairs} pairs cross-checked against the canonical-vector "
              f"formulation n <= {n_morph}")
    return _result(6, "type lattice and morphism order", problems, detail)


def criterion_7_line_bundles(max_n: int | None = None) -> CheckResult:
    problems = []
    n_mono = _trim(max_n, 5)
    checked = 0
    for n in range(1, n_mono + 1):
        bundles = [b for b in itertools.combinations_with_replacement(range(4), n)]
        comps = list(compositions(n))
        for b in bundles:
            holders = []
            for c in comps:
                exists = line_bundle_exists(b, c)
                problems += _failures(bundle_exists_checks(b, c, exists),
                                      f"{b} on {c.parts}")
                if exists:
                    holders.append(c)
            for c in holders:
                for c2 in comps:
                    if leq(c, c2):
                        checked += 1
                        if not line_bundle_exists(b, c2):
                            problems.append(f"monotonicity fails: {b} on {c2.parts}")
    oracle_checked = 0
    for b_plus_one in weight_corpus(128, _trim(max_n)):
        bundle = tuple(x - 1 for x in b_plus_one)
        problems += _failures(
            sections_checks(bundle, sections_dim(bundle, type_of(bundle)))
            + coordring_checks(b_plus_one, coordinate_ring_dims(b_plus_one, 1)),
            bundle)
        oracle_checked += 1
    hand_cases = [((1, 2), (3, 1)), ((0, 0, 0), (0, 0, 0)), ((1, 1, 1), (3, 2, 1))]
    for bundle, expected in hand_cases:
        if curve_degrees(bundle) != expected:
            problems.append(f"curve degrees wrong for {bundle}")
    detail = (f"{checked} monotonicity pairs (entries <= 3, n <= {n_mono}); "
              f"{oracle_checked} section counts against the module builder; "
              f"3 hand curve-degree cases")
    return _result(7, "line bundle existence and sections", problems, detail)


def criterion_8_flag_model(max_n: int | None = None) -> CheckResult:
    problems = []
    n_canon = _trim(max_n, 5)
    count = 0
    for comp in _all_compositions(n_canon):
        count += 1
        problems += _failures(flag_checks(canonical_flag(comp), comp),
                              comp.parts)
    n_rand = _trim(max_n, 4)
    comps = list(_all_compositions(n_rand))
    rng = random.Random(0)
    draws = (comps[rng.randrange(len(comps))] for _ in range(200))
    actions, left = _translates(((c, canonical_flag(c)) for c in draws), rng)
    if left is not None:
        problems.append(f"group action leaves the variety at {left.parts}")
    detail = (f"{count} canonical chains n <= {n_canon}; {actions} seeded "
              f"group actions n <= {n_rand}")
    return _result(8, "flag chain membership and group invariance",
                   problems, detail)


def criterion_9_verlinde(max_n: int | None = None) -> CheckResult:
    problems = []
    for k in range(1, 6):
        for a in range(k + 1):
            for b in range(k + 1):
                problems += _failures(verlinde_fuse_checks(a, b, fuse(k, a, b)),
                                      f"k={k}, [{a}].[{b}]")
        # the reflection is a ring map from the classical product, so this
        # holds commutativity and associativity of the fold at once
        for triple in itertools.product(range(k + 1), repeat=3):
            classical = product_chain(sum(triple), triple).coeffs
            if (kac_walton(k, dict(enumerate(classical)))
                    != product_chain(k, triple).coeffs):
                problems.append(f"kac_walton fails at k={k}, {triple}")
    for k in range(1, 7):
        if fuse(k, k, k).coeffs != (1,) + (0,) * k:
            problems.append(f"boundary involution fails k={k}")
    bundles = [tuple(x - 1 for x in w) for w in weight_corpus(64, _trim(max_n))]
    bundles += [(0,), (0, 1), (0, 0, 2)]
    for bundle in bundles:
        problems += _failures(verlinde_limit_checks(limit_multiplicities(bundle)),
                              bundle)
    qdim_err = 0.0
    for k in range(1, 6):
        def qdim(c):
            return math.sin((c + 1) * math.pi / (k + 2)) / math.sin(math.pi / (k + 2))
        for a in range(k + 1):
            for b in range(k + 1):
                total = sum(m * qdim(c) for c, m in enumerate(fuse(k, a, b).coeffs))
                qdim_err = max(qdim_err, abs(total - qdim(a) * qdim(b)))
    if qdim_err > 1e-9:
        problems.append(f"quantum dimension error {qdim_err:.2e}")
    detail = (f"Kac-Walton reflection of every triple k <= 5; involution "
              f"k <= 6; {len(bundles)} limit decompositions reflected; qdim "
              f"homomorphism off by {qdim_err:.1e} (tol 1e-9)")
    return _result(9, "Verlinde algebra consistency", problems, detail)


def criterion_10_stabilization(max_n: int | None = None) -> CheckResult:
    _trim(max_n)  # no sweep here to trim, but a bad max_n is still rejected
    problems = []
    details = []
    for bundle in [(1,), (1, 1), (1, 2)]:
        report = character_stabilization(bundle, 3, 2)
        problems += _failures(stabilize_checks(report), bundle)
        if report.stable_from is None or report.stable_from > 2:
            problems.append(f"no stabilization by i=2 for {bundle}")
        details.append(f"{bundle}: i0={report.stable_from}")
        for i in range(3):
            built = build_module(grassmannian_weights(bundle, i)).dimension
            if built != grassmannian_section_dims(bundle, i):
                problems.append(f"section dims wrong for {bundle} at i={i}")
    detail = ("top-anchored tables at co-energy <= 2 for i <= 3 ("
              + ", ".join(details) + "); built dims match the closed form for i <= 2")
    return _result(10, "affine Grassmannian stabilization", problems, detail)


CRITERIA = (
    criterion_1_dimensions,
    criterion_2_relations,
    criterion_3_monomial_basis,
    criterion_4_exact_sequences,
    criterion_5_poincare,
    criterion_6_type_lattice,
    criterion_7_line_bundles,
    criterion_8_flag_model,
    criterion_9_verlinde,
    criterion_10_stabilization,
)


def run_all(max_n: int | None = None) -> list:
    _trim(max_n)  # reject a bad max_n before any criterion runs
    return [criterion(max_n) for criterion in CRITERIA]
