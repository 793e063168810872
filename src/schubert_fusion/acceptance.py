"""Acceptance battery: the ten headline properties at desk scale.

Each criterion is a self-contained exhaustive or seeded check returning a
CheckResult; run_all executes them in order.  Scales are chosen so the whole
battery finishes in a couple of minutes; max_n trims the larger sweeps for a
quicker smoke run.  Everything is exact: integer elimination in the span
closures and the flag model, int numerators over one denominator in the
group elements, and floats only in the quantum-dimension check inside
criterion 9, which is numerical by nature and carries its own tolerance.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple

from .fusion import (
    apply_monomial,
    build_module,
    character,
    character_recursive,
    check_relations,
    exact_sequence_check,
    kernel_dimension,
    monomial_basis,
    top_wedge,
)
from .linalg import SpanBasis
from .schubert import (
    bundle_split,
    canonical_flag,
    curve_degrees,
    flag_membership,
    group_act,
    line_bundle_exists,
    morphism_exists,
    random_group_element,
    sections_dim,
)
from .types import (
    Composition,
    canonical_A,
    compositions,
    leq,
    leq_by_vectors,
    poincare,
    poincare_recursive_single,
    type_of,
)
from .verlinde import (
    FusionRingElement,
    character_stabilization,
    classical_limit_check,
    fuse,
    grassmannian_section_dims,
    grassmannian_weights,
    product_chain,
    product_chain_right,
)

__all__ = ["CheckResult", "CRITERIA", "run_all", "weight_corpus"]


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


def _trim(max_n: int | None, full: int | None = None) -> int | None:
    """Upper end of a sweep: `full` (None if unbounded) lowered to `max_n`
    when one is given.  A `max_n` below 1 raises ValueError."""
    if max_n is None:
        return full
    if not isinstance(max_n, int) or max_n < 1:
        raise ValueError(f"max_n must be a positive integer, got {max_n!r}")
    return max_n if full is None else min(full, max_n)


def _all_compositions(n_max: int):
    for n in range(1, n_max + 1):
        yield from compositions(n)


def criterion_1_dimensions(max_n: int | None = None) -> CheckResult:
    corpus = weight_corpus(256, _trim(max_n))
    failures = []
    for weights in corpus:
        expected = math.prod(weights)
        got = build_module(weights).dimension
        if got != expected:
            failures.append((weights, got, expected))
    n_ladder = _trim(max_n, 6)
    powers = all(build_module((2,) * n).dimension == 2 ** n
                 for n in range(1, n_ladder + 1))
    passed = not failures and powers and len(corpus) >= 60
    detail = (f"{len(corpus)} modules with product <= 256; "
              f"2^n ladder n <= {n_ladder} {'ok' if powers else 'FAILED'}")
    if failures:
        detail += f"; first failure {failures[0]}"
    return CheckResult(1, "dimension product formula", passed, detail)


def criterion_2_relations(max_n: int | None = None) -> CheckResult:
    n_top = _trim(max_n, 4)
    reports = [check_relations(n, 3) for n in range(1, n_top + 1)]
    bad = [r for r in reports if not r.ok]
    detail = f"series powers i <= 3 on truncations n <= {n_top}"
    if bad:
        detail += f"; violation at n={bad[0].truncation}"
    return CheckResult(2, "vanishing of current-series coefficients",
                       not bad, detail)


def criterion_3_monomial_basis(max_n: int | None = None) -> CheckResult:
    n_top = _trim(max_n, 6)
    problems = []
    for n in range(1, n_top + 1):
        words = monomial_basis(n)
        by_len = {k: sum(1 for w in words if len(w) == k) for k in range(n + 1)}
        if any(by_len[k] != math.comb(n, k) for k in range(n + 1)):
            problems.append(f"n={n}: word counts differ from binomials")
            continue
        top = top_wedge((n,))
        basis = SpanBasis()
        for word in words:
            image = apply_monomial(word, top)
            if not image.coeffs:
                problems.append(f"n={n}: word {word} annihilates the top wedge")
                break
            grades = {top.model.bigrade(idx) for idx in image.coeffs}
            if grades != {next(iter(grades))} or next(iter(grades))[0] != -n + 2 * len(word):
                problems.append(f"n={n}: word {word} has wrong weight")
                break
            if not basis.insert(image.coeffs):
                problems.append(f"n={n}: word {word} is dependent")
                break
        if basis.dimension != 2 ** n:
            problems.append(f"n={n}: span {basis.dimension} != {2 ** n}")
        if build_module((2,) * n).dimension != 2 ** n:
            problems.append(f"n={n}: module dimension mismatch")
    detail = f"binomial refinement and independence up to n = {n_top}"
    if problems:
        detail += "; " + problems[0]
    return CheckResult(3, "monomial basis of the hypercube module",
                       not problems, detail)


def criterion_4_exact_sequences(max_n: int | None = None) -> CheckResult:
    corpus = [A for A in weight_corpus(128, _trim(max_n)) if len(A) >= 2]
    problems = []
    pairs = 0
    for weights in corpus:
        for index in range(1, len(weights)):
            pairs += 1
            res = exact_sequence_check(weights, index)
            if not res.holds:
                problems.append(f"additivity fails at {weights}, i={index}")
                continue
            expected = kernel_dimension(weights, index)
            if expected is not None and res.dim_submodule != expected:
                problems.append(f"kernel at {weights}, i={index}: "
                                f"{res.dim_submodule} != {expected}")
    chars_checked = 0
    for weights in corpus:
        if character(weights) != character_recursive(weights):
            problems.append(f"peeled character differs at {weights}")
        chars_checked += 1
    passed = not problems
    detail = (f"{pairs} (A, i) pairs with product <= 128; closed kernel forms "
              f"at both ends and equal pairs; peeling recursion cross-checked "
              f"on {chars_checked} characters")
    if problems:
        detail += "; " + problems[0]
    return CheckResult(4, "kernel-quotient dimension additivity", passed, detail)


def criterion_5_poincare(max_n: int | None = None) -> CheckResult:
    problems = []
    n_rec = _trim(max_n, 12)
    if poincare_recursive_single(0).even_coeffs != (1,):
        problems.append("recursion has the wrong empty-variety value")
    for n in range(1, n_rec + 1):
        if poincare_recursive_single(n) != poincare(Composition((n,))):
            problems.append(f"recursion differs from closed form at n={n}")
    n_split = _trim(max_n, 8)
    splits = 0
    for comp in _all_compositions(n_split):
        for cut in range(1, comp.s):
            splits += 1
            if not bundle_split(comp, cut).identity_holds:
                problems.append(f"factorization fails at {comp.parts}, t={cut}")
    for comp in _all_compositions(n_split):
        if poincare(comp).evaluate(1) != math.prod(i + 1 for i in comp.parts):
            problems.append(f"Euler count fails at {comp.parts}")
    detail = (f"recursion vs closed form n <= {n_rec}; {splits} bundle "
              f"factorizations n <= {n_split}; Euler characteristic values")
    if problems:
        detail += "; " + problems[0]
    return CheckResult(5, "Poincare polynomial identities", not problems, detail)


def criterion_6_type_lattice(max_n: int | None = None) -> CheckResult:
    problems = []
    n_order = _trim(max_n, 7)
    for n in range(1, n_order + 1):
        comps = list(compositions(n))
        for a in comps:
            if not leq(a, a):
                problems.append(f"not reflexive at {a.parts}")
        for a, b in itertools.permutations(comps, 2):
            if leq(a, b) and leq(b, a):
                problems.append(f"antisymmetry fails at {a.parts}, {b.parts}")
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
            blockwise = leq(lo, hi)
            if blockwise != leq_by_vectors(lo, hi):
                problems.append(
                    f"order formulations disagree at {lo.parts} vs {hi.parts}")
            if morphism_exists(hi, lo) != blockwise:
                problems.append(
                    f"morphism predicate disagrees at {lo.parts} vs {hi.parts}")
            if type_of(canonical_A(lo)) != lo:
                problems.append(f"canonical vector loses the type {lo.parts}")
    detail = (f"order axioms and unique extremes n <= {n_order}; "
              f"{pairs} pairs cross-checked against the canonical-vector "
              f"formulation n <= {n_morph}")
    if problems:
        detail += "; " + problems[0]
    return CheckResult(6, "type lattice and morphism order", not problems, detail)


def criterion_7_line_bundles(max_n: int | None = None) -> CheckResult:
    problems = []
    n_mono = _trim(max_n, 5)
    checked = 0
    for n in range(1, n_mono + 1):
        bundles = [b for b in itertools.combinations_with_replacement(range(4), n)]
        comps = list(compositions(n))
        for b in bundles:
            holders = [c for c in comps if line_bundle_exists(b, c)]
            for c in holders:
                for c2 in comps:
                    if leq(c, c2):
                        checked += 1
                        if not line_bundle_exists(b, c2):
                            problems.append(f"monotonicity fails: {b} on {c2.parts}")
    oracle_checked = 0
    for b_plus_one in weight_corpus(128, _trim(max_n)):
        bundle = tuple(x - 1 for x in b_plus_one)
        comp = type_of(bundle)
        expected = build_module(b_plus_one).dimension
        if sections_dim(bundle, comp) != expected:
            problems.append(f"sections mismatch at {bundle}")
        oracle_checked += 1
    hand_cases = [((1, 2), (3, 1)), ((0, 0, 0), (0, 0, 0)), ((1, 1, 1), (3, 2, 1))]
    for bundle, expected in hand_cases:
        if curve_degrees(bundle) != expected:
            problems.append(f"curve degrees wrong for {bundle}")
    detail = (f"{checked} monotonicity pairs (entries <= 3, n <= {n_mono}); "
              f"{oracle_checked} section counts against the module builder; "
              f"3 hand curve-degree cases")
    if problems:
        detail += "; " + problems[0]
    return CheckResult(7, "line bundle existence and sections", not problems, detail)


def criterion_8_flag_model(max_n: int | None = None) -> CheckResult:
    problems = []
    n_canon = _trim(max_n, 5)
    count = 0
    for comp in _all_compositions(n_canon):
        count += 1
        if not flag_membership(canonical_flag(comp), comp):
            problems.append(f"canonical chain rejected for {comp.parts}")
    n_rand = _trim(max_n, 4)
    comps = list(_all_compositions(n_rand))
    rng = random.Random(0)
    actions = 0
    for _ in range(200):
        comp = comps[rng.randrange(len(comps))]
        g = random_group_element(comp.n, rng)
        if not flag_membership(group_act(g, canonical_flag(comp)), comp):
            problems.append(f"group action leaves the variety at {comp.parts}")
            break
        actions += 1
    detail = (f"{count} canonical chains n <= {n_canon}; {actions} seeded "
              f"group actions n <= {n_rand}")
    if problems:
        detail += "; " + problems[0]
    return CheckResult(8, "flag chain membership and group invariance",
                       not problems, detail)


def criterion_9_verlinde(max_n: int | None = None) -> CheckResult:
    problems = []
    for k in range(1, 6):
        for a in range(k + 1):
            for b in range(k + 1):
                if fuse(k, a, b) != fuse(k, b, a):
                    problems.append(f"commutativity fails k={k}")
                for c in range(k + 1):
                    lhs = (fuse(k, a, b) * FusionRingElement.basis(k, c))
                    rhs = (FusionRingElement.basis(k, a) * fuse(k, b, c))
                    if lhs != rhs:
                        problems.append(f"associativity fails k={k}")
    for k in range(1, 7):
        if fuse(k, k, k).coeffs != (1,) + (0,) * k:
            problems.append(f"boundary involution fails k={k}")
    bundles = [tuple(x - 1 for x in w) for w in weight_corpus(64, _trim(max_n))]
    bundles += [(0,), (0, 1), (0, 0, 2)]
    folds = 0
    for bundle in bundles:
        if not classical_limit_check(bundle):
            problems.append(f"classical limit fails for {bundle}")
        level = bundle[-1] + 1
        if product_chain(level, bundle) != product_chain_right(level, bundle):
            problems.append(f"fold order changes the product for {bundle}")
        folds += 1
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
    detail = (f"ring axioms k <= 5; involution k <= 6; {folds} classical and "
              f"fold checks; qdim homomorphism off by {qdim_err:.1e} (tol 1e-9)")
    if problems:
        detail += "; " + problems[0]
    return CheckResult(9, "Verlinde algebra consistency", not problems, detail)


def criterion_10_stabilization(max_n: int | None = None) -> CheckResult:
    _trim(max_n)  # no sweep here to trim, but a bad max_n is still rejected
    problems = []
    details = []
    for bundle in [(1,), (1, 1), (1, 2)]:
        report = character_stabilization(bundle, 3, 2)
        if report.stable_from is None or report.stable_from > 2:
            problems.append(f"no stabilization by i=2 for {bundle}")
        details.append(f"{bundle}: i0={report.stable_from}")
        for i in range(3):
            built = build_module(grassmannian_weights(bundle, i)).dimension
            if built != grassmannian_section_dims(bundle, i):
                problems.append(f"section dims wrong for {bundle} at i={i}")
    detail = ("top-anchored tables at co-energy <= 2 for i <= 3 ("
              + ", ".join(details) + "); built dims match the closed form for i <= 2")
    if problems:
        detail += "; " + problems[0]
    return CheckResult(10, "affine Grassmannian stabilization", not problems, detail)


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
