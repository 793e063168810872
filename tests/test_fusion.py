"""Fusion modules: dimensions, characters, relations, submodules."""

import gc
import math
import sys
import time
import weakref
from collections import Counter, deque
from contextlib import contextmanager
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubert_fusion import fock, fusion
from schubert_fusion.fock import WedgeState, apply_current
from schubert_fusion.fusion import (
    DimensionCapError,
    _build_module_cached,
    apply_monomial,
    build_module,
    build_submodule,
    character,
    character_recursive,
    check_relations,
    exact_sequence_check,
    factor_shapes,
    kernel_dimension,
    monomial_basis,
    quotient_weights,
)
from schubert_fusion.linalg import SpanBasis

weight_vectors = st.lists(
    st.integers(min_value=1, max_value=5), min_size=1, max_size=4
).map(lambda xs: tuple(sorted(xs))).filter(lambda a: math.prod(a) <= 64)


def test_factor_shapes():
    assert factor_shapes((2, 2, 2)) == (3,)
    assert factor_shapes((3,)) == (1, 1)
    assert factor_shapes((2, 3, 3)) == (3, 2)
    assert factor_shapes((1, 1)) == ()


def test_dimension_examples():
    assert build_module((2, 2, 2)).dimension == 8
    assert build_module((2, 3)).dimension == 6
    assert build_module(()).dimension == 1
    assert build_module((2, 3, 4)).dimension == 24


def test_single_entry_module_is_sl2():
    module = build_module((4,))
    assert module.dimension == 4
    assert module.character == {(w, 0): 1 for w in (-3, -1, 1, 3)}


def test_character_of_2_2():
    char = character((2, 2))
    assert sum(char.values()) == 4
    assert char[(-2, 0)] == 1
    assert min(char) == (-2, 0)


def test_character_of_2_3():
    assert character((2, 3)) == {
        (-3, 0): 1, (-1, 0): 1, (1, 0): 1, (3, 0): 1, (-1, 1): 1, (1, 1): 1,
    }


def test_lowest_weight_stratum_is_cyclic():
    for weights in ((2, 2), (2, 3), (2, 2, 3)):
        char = character(weights)
        low = -sum(a - 1 for a in weights)
        assert char[(low, 0)] == 1
        assert all(w > low for (w, t) in char if (w, t) != (low, 0))


def test_weights_must_be_monotone():
    with pytest.raises(ValueError):
        build_module((3, 2))
    with pytest.raises(ValueError):
        build_module((2, 0))


def test_dimension_cap(monkeypatch):
    with pytest.raises(DimensionCapError):
        build_module((7,) * 7)
    monkeypatch.setattr(fusion, "DEFAULT_DIMENSION_CAP", 4)
    with pytest.raises(DimensionCapError):
        build_module((2, 2, 2))
    # past the preflight, the closure's own guard reads the constant too
    with pytest.raises(DimensionCapError, match="cap of 4"):
        _build_module_cached.__wrapped__((2, 2, 2))


def test_block_budget_is_read_at_call_time(monkeypatch):
    # (2, 3, 4) interns 21 blocks: within a budget of 32, past one of 16;
    # the kernel at the first pair of (2, 4, 4) interns 18
    monkeypatch.setattr(fock, "WEDGE_BLOCK_BUDGET", 32)
    assert _build_module_cached.__wrapped__((2, 3, 4)).dimension == 24
    monkeypatch.setattr(fock, "WEDGE_BLOCK_BUDGET", 16)
    _build_module_cached.cache_clear()
    with pytest.raises(DimensionCapError, match="budget of 16 blocks"):
        build_module((2, 3, 4))
    with pytest.raises(DimensionCapError, match="budget of 16 blocks"):
        build_submodule((2, 4, 4), 1)


def test_closures_drop_their_wedge_models(monkeypatch):
    # FusionModule and SubmoduleS keep results only: each closure's model
    # (its interned blocks and moves) is freed when the closure returns
    refs = []

    def recording(shapes):
        state = fock.top_wedge(shapes)
        refs.append(weakref.ref(state.model))
        return state

    monkeypatch.setattr(fusion, "top_wedge", recording)
    _build_module_cached.cache_clear()
    assert build_module((2, 3, 4)).dimension == 24
    assert build_submodule((2, 3, 5), 1).dimension > 0
    assert check_relations(3, 2).ok
    assert len(refs) == 3
    assert all(ref() is None for ref in refs)


def test_relations_small():
    assert check_relations(1, 2).ok
    assert check_relations(2, 2).ok
    assert check_relations(3, 3).ok


def test_relations_within_the_particle_cap():
    # the series carries 506 740 particles: past DEFAULT_DIMENSION_CAP, but
    # within the relation budget of its own
    assert check_relations(10, 4).ok


def test_relations_stop_at_the_span_cap():
    # ran past a minute uncapped; with a million particles in all it stops
    # within seconds.  Its blocks die with its wedge model.  The default cap
    # on `relations 1000 1`, whose blocks hold 1000 particles each, runs in
    # a fresh process in test_cli.
    start = time.perf_counter()
    with pytest.raises(DimensionCapError, match="cap of 1000000 particles"):
        check_relations(20, 4)
    assert time.perf_counter() - start < 60


def test_relations_read_the_cap_at_call_time(monkeypatch):
    assert check_relations(4, 3).ok
    monkeypatch.setattr(fusion, "RELATION_PARTICLE_CAP", 10)
    with pytest.raises(DimensionCapError, match="cap of 10 particles"):
        check_relations(4, 3)
    # a long truncation trips the count within its first power
    monkeypatch.setattr(fusion, "RELATION_PARTICLE_CAP", 1000)
    with pytest.raises(DimensionCapError, match="truncation 1000"):
        check_relations(1000, 1)
    # every power costs n particles, also once e(z)^i has vanished: on
    # truncation 1 the first power charges 1 + 1 and every later one 1
    monkeypatch.setattr(fusion, "RELATION_PARTICLE_CAP", 5)
    assert check_relations(1, 4).ok
    with pytest.raises(DimensionCapError, match="cap of 5 particles"):
        check_relations(1, 5)


def test_relations_report_shape():
    report = check_relations(2, 3)
    assert report.ok
    assert [c.power for c in report.checks] == [1, 2, 3]
    assert report.checks[1].required_vanishing == 2
    assert report.checks[2].required_vanishing == 4


def test_monomial_basis_counts():
    assert monomial_basis(1) == [(), (0,)]
    assert len(monomial_basis(2)) == 4
    assert len(monomial_basis(3)) == 8
    counts = {}
    for word in monomial_basis(3):
        counts[len(word)] = counts.get(len(word), 0) + 1
    assert counts == {0: 1, 1: 3, 2: 3, 3: 1}


def test_monomials_span_the_hypercube():
    from schubert_fusion.fock import top_wedge

    n = 4
    top = top_wedge((n,))
    basis = SpanBasis()
    for word in monomial_basis(n):
        image = apply_monomial(word, top)
        assert basis.insert(image.coeffs)
    assert basis.dimension == 2 ** n


def test_submodule_general_case():
    sub = build_submodule((2, 3), 1)
    assert sub.case == "general"
    assert sub.dimension == 2


def test_submodule_equal_case():
    sub = build_submodule((2, 2, 3), 1)
    assert sub.case == "equal"
    assert sub.dimension == 3


def test_submodule_last_pair():
    # kernel at the top pair of (2,2,4) factors through a 3-dim multiplicity
    # space over the module on the remaining entries
    sub = build_submodule((2, 2, 4), 2)
    assert sub.dimension == build_module((2,)).dimension * 3 == 6


def _live_span_bases() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, SpanBasis))


def test_built_modules_keep_no_span_basis():
    # an empty module cache makes every build below run its closure
    _build_module_cached.cache_clear()
    before = _live_span_bases()
    kept = [build_module(w) for w in ((2, 5), (3, 3, 3))]
    kept += [build_submodule((2, 5, 5), i) for i in (1, 2)]
    kept.append(build_submodule((3, 3, 4), 1))
    assert [m.dimension for m in kept] == [10, 27, 20, 2, 4]
    assert _live_span_bases() == before


def test_cached_results_are_read_only():
    module = build_module((2, 3))
    with pytest.raises(AttributeError):
        module.dimension = 5
    with pytest.raises(TypeError):
        module.character[(-3, 0)] = 2
    sub = build_submodule((2, 3), 1)
    with pytest.raises(AttributeError):
        sub.dimension = 3
    assert build_module((2, 3)).character == character_recursive((2, 3))


def test_closure_runs_on_ints(monkeypatch):
    # the span closure feeds its stored rows back into the currents, so
    # int rows keep every coefficient on the path an int, never a Fraction
    seen = []
    insert_reduced = SpanBasis.insert_reduced

    def recording(self, vec):
        row = insert_reduced(self, vec)
        seen.append(vec)
        if row is not None:
            seen.append(row)
        return row

    monkeypatch.setattr(SpanBasis, "insert_reduced", recording)
    _build_module_cached.cache_clear()
    assert build_module((3, 4, 5)).dimension == 60
    assert build_submodule((2, 3, 5), 1).dimension > 0
    assert len(seen) > 60
    assert all(type(c) is int for vec in seen for c in vec.values())


def _fifo_closure_oracle(seeds, operators) -> SpanBasis:
    # The breadth-first closure that the degree-ordered one replaced, kept
    # as the reference: every accepted row is hit with every operator.
    basis = SpanBasis()
    queue = deque()
    for seed in seeds:
        row = basis.insert_reduced(seed.coeffs) if seed.coeffs else None
        if row is not None:
            queue.append(WedgeState(seed.model, row))
    while queue:
        state = queue.popleft()
        for op in operators:
            image = op(state)
            if not image.coeffs:
                continue
            row = basis.insert_reduced(image.coeffs)
            if row is not None:
                queue.append(WedgeState(image.model, row))
    return basis


@contextmanager
def _closed_by_fifo_oracle():
    # routes build_module and build_submodule through the oracle closure;
    # call _build_module_cached.__wrapped__ under it, so no oracle result
    # lands in the module cache
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "_close_under",
                   lambda seed, operators: _fifo_closure_oracle([seed], operators))
        yield


oracle_vectors = st.lists(
    st.integers(min_value=1, max_value=7), min_size=1, max_size=6
).map(lambda xs: tuple(sorted(xs))).filter(lambda a: math.prod(a) <= 150)


@settings(max_examples=30, deadline=None)
@given(oracle_vectors)
@example((2, 3, 4, 5))
@example((2,) * 7)
@example((1, 3, 7, 7))
def test_degree_ordered_closure_matches_fifo_oracle(weights):
    # a module's character is read off the pivots of its closure's basis
    module = _build_module_cached.__wrapped__(weights)
    with _closed_by_fifo_oracle():
        expected = _build_module_cached.__wrapped__(weights)
    assert module.dimension == expected.dimension == math.prod(weights)
    assert module.character == expected.character


@pytest.mark.parametrize("weights", [
    (2, 3, 4), (3, 4, 5), (2, 2, 3, 4), (2, 3, 4, 5), (2, 3, 5, 6)])
def test_submodules_match_fifo_oracle(weights):
    # unequal interior pairs such as ((2, 3, 4, 5), 2) have no closed-form
    # kernel dimension: this oracle and the exact sequence check them
    for index in range(1, len(weights)):
        sub = build_submodule(weights, index)
        with _closed_by_fifo_oracle():
            expected = build_submodule(weights, index)
        assert sub == expected
        quotient = math.prod(quotient_weights(weights, index))
        assert sub.dimension + quotient == math.prod(weights)


def test_closure_skips_unsorted_words(monkeypatch):
    # a row born from e_i meets only e_j with j >= i, so the closure makes
    # fewer than (number of operators) x dimension applications
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return apply_current(*args, **kwargs)

    monkeypatch.setattr(fusion, "apply_current", counting)
    _build_module_cached.cache_clear()
    for weights in ((3, 4, 5), (2,) * 8):
        calls.clear()
        dim = build_module(weights).dimension
        assert 1 < len(calls) < len(weights) * dim
    calls.clear()
    dim = build_submodule((2, 3, 5), 1).dimension
    # the three currents and the extra one on the high factors
    assert 1 < len(calls) < 4 * dim


def test_kernel_dimension_closed_forms():
    # boundary pairs, equal pairs, and no closed form for interior unequal ones
    for weights, index in (((2, 3, 4), 1), ((2, 3, 4), 2), ((2, 2, 4), 1),
                           ((2, 3, 3, 4), 2), ((3, 3), 1), ((2, 5), 1)):
        expected = kernel_dimension(weights, index)
        assert expected == build_submodule(weights, index).dimension
    assert kernel_dimension((2, 3, 4, 5), 2) is None
    with pytest.raises(ValueError):
        kernel_dimension((2, 3), 2)


@pytest.mark.parametrize("call", [build_submodule, kernel_dimension,
                                  quotient_weights, exact_sequence_check])
def test_one_entry_vector_has_no_pair(call):
    with pytest.raises(ValueError, match="a one-entry vector has no adjacent pair"):
        call((2,), 1)


def test_exact_sequences():
    res = exact_sequence_check((2, 3), 1)
    assert res.holds and (res.dim_submodule, res.dim_quotient) == (2, 4)
    res = exact_sequence_check((2, 2), 1)
    assert res.holds and (res.dim_submodule, res.dim_quotient) == (1, 3)
    res = exact_sequence_check((2, 2, 2), 2)
    assert res.holds and (res.dim_submodule, res.dim_quotient) == (2, 6)


def test_quotient_weights_sorted():
    assert quotient_weights((2, 3), 1) == (1, 4)
    assert quotient_weights((2, 2, 4), 2) == (1, 2, 5)
    with pytest.raises(ValueError):
        quotient_weights((1, 3), 1)


def test_character_recursion_matches_builder():
    for weights in ((2,), (3,), (2, 2), (2, 3), (2, 2, 3), (3, 3), (2, 3, 4)):
        assert character_recursive(weights) == character(weights)


def test_character_recursion_base_cases():
    assert character_recursive(()) == {(0, 0): 1}
    assert character_recursive((1, 1, 1)) == {(0, 0): 1}
    assert character_recursive((5,)) == {(-4 + 2 * k, 0): 1 for k in range(5)}
    assert character_recursive((1, 1, 2)) == character_recursive((2,))
    assert character_recursive((2, 2)) == {
        (-2, 0): 1, (0, 0): 1, (2, 0): 1, (0, 1): 1}
    assert character_recursive((3, 3)) == {
        (-4, 0): 1, (-2, 0): 1, (0, 0): 1, (2, 0): 1, (4, 0): 1,
        (-2, 1): 1, (0, 1): 1, (2, 1): 1, (0, 2): 1}
    for m in range(1, 9):
        assert character_recursive((m,)) == {
            (-m + 1 + 2 * k, 0): 1 for k in range(m)}
        # equal pair: peels to (m - 1, m + 1) and the empty kernel stratum
        assert character_recursive((m, m)) == {
            (w, t): 1 for t in range(m)
            for w in range(-2 * (m - 1 - t), 2 * (m - 1 - t) + 1, 2)}


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_long_vectors_stay_within_recursion_limit():
    # the peeling walk keeps its own stack, so Python's nesting depth does
    # not grow with the length of the weight vector
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        char = character_recursive((2,) * 40, cap=10 ** 30)
    finally:
        sys.setrecursionlimit(limit)
    assert sum(char.values()) == 2 ** 40


def test_character_embeds_when_last_entry_grows():
    # growing the last entry embeds the module: anchored at the top weight,
    # no multiplicity shrinks
    def anchored(ch):
        top = max(w for w, _ in ch)
        return {(top - w, t): m for (w, t), m in ch.items()}

    for weights in ((2, 2), (2, 3), (2, 2, 3), (3, 3), (2, 3, 3)):
        grown = weights[:-1] + (weights[-1] + 1,)
        small, big = anchored(character(weights)), anchored(character(grown))
        for key, mult in small.items():
            assert big.get(key, 0) >= mult


@settings(max_examples=25, deadline=None)
@given(weight_vectors)
def test_dimension_is_product(weights):
    assert build_module(weights).dimension == math.prod(weights)


@settings(max_examples=25, deadline=None)
@given(weight_vectors)
def test_recursion_agrees_with_span(weights):
    assert character_recursive(weights) == character(weights)


@settings(max_examples=15, deadline=None)
@given(weight_vectors.filter(
    lambda a: len(a) >= 2 and a[0] >= 2 and math.prod(a) <= 48),
       st.integers(min_value=0, max_value=10))
def test_additivity_random(weights, raw_index):
    index = 1 + raw_index % (len(weights) - 1)
    assert exact_sequence_check(weights, index).holds


@lru_cache(maxsize=None)
def _peeled_oracle(weights):
    # The dict-based peeling recursion that character_recursive packed into
    # ints, kept as the reference: one Counter merge per stratum.
    if not weights:
        return {(0, 0): 1}
    if len(weights) == 1:
        m = weights[0]
        return {(-m + 1 + 2 * k, 0): 1 for k in range(m)}
    a1, a2, rest = weights[0], weights[1], weights[2:]
    shapes = factor_shapes(weights)
    energy_shift = sum(shapes[j] - 1 for j in range(a1 - 1))
    quotient = tuple(sorted(a for a in (a1 - 1, a2 + 1) + rest if a > 1))
    kernel = ((a2 - a1 + 1,) + rest) if a1 < a2 else rest
    char = Counter(_peeled_oracle(quotient))
    for (w, t), mult in _peeled_oracle(kernel).items():
        char[(w, t + energy_shift)] += mult
    return dict(char)


peel_vectors = st.one_of(
    # 1s and equal neighbours, which reach the empty kernel stratum
    st.lists(st.integers(min_value=1, max_value=6), max_size=8),
    # long tails of 2s under a few larger weights, as in the benchmark
    st.builds(lambda k, tail: [2] * k + tail,
              st.integers(min_value=0, max_value=20),
              st.lists(st.integers(min_value=3, max_value=30), max_size=2)),
    # power-of-two products: the field width steps up at 2**8, 2**16, ...
    st.builds(lambda i, j: [2] * i + [4] * j,
              st.integers(min_value=0, max_value=24),
              st.integers(min_value=0, max_value=6)),
).map(lambda xs: tuple(sorted(xs)))


@settings(max_examples=60, deadline=None)
@given(peel_vectors)
@example((2,) * 13 + (28,))  # the benchmark's long vectors
@example((3, 5, 17, 257))  # product 2**16 - 1: two-byte fields
@example((2,) * 16)  # product 2**16: three-byte fields
@example((2,) * 32)  # product 2**32: five-byte fields
def test_packed_recursion_matches_dict_oracle(weights):
    try:
        expected = _peeled_oracle(tuple(a for a in weights if a > 1))
    finally:
        _peeled_oracle.cache_clear()
    assert character_recursive(weights, cap=10 ** 60) == expected


def _q_binomial_character(n):
    # (2,) * n: k raisings at energy d are the partitions of d that fit in a
    # k x (n - k) box, the coefficients of the q-binomial [n choose k]_q
    rows = [[1]]
    for m in range(1, n + 1):
        grown = []
        for k in range(m + 1):
            keep = rows[k] if k < m else []
            raise_ = rows[k - 1] if k else []
            coeffs = [0] * max(len(keep), len(raise_) + m - k)
            for d, c in enumerate(keep):
                coeffs[d] += c
            for d, c in enumerate(raise_):
                coeffs[d + m - k] += c
            grown.append(coeffs)
        rows = grown
    return {(2 * k - n, d): c for k, coeffs in enumerate(rows)
            for d, c in enumerate(coeffs) if c}


@pytest.mark.parametrize("n", [7, 8, 64])
def test_recursion_of_twos_is_q_binomial(n):
    # products 2**n around one-byte and eight-byte field widths, the
    # last with multiplicities far past 2**32
    char = character_recursive((2,) * n, cap=2 ** n)
    assert char == _q_binomial_character(n)


def test_chain_peeling_matches_one_target_peeling():
    # one layout for the chain, sized by its last step: every step's full
    # character reads back as its own peeling gives it
    chain = [(2, 3) + (3,) * (2 * i) for i in range(4)]
    reads = fusion._peel_packed(
        chain, lambda p, top, field: (fusion._unpack(p, top, field), top, field))
    # 6 * 3**6 needs 13 bits
    assert {(top, field) for _, top, field in reads} == {(3 + 2 * 6, 16)}
    assert [char for char, _, _ in reads] == \
        [character_recursive(w, cap=10 ** 9) for w in chain]


def test_chain_peeling_reads_repeated_and_nested_targets():
    # (2, 4) is the quotient of (3, 3), so it is packed inside the first
    # target's strata; it and the repeated (3, 3) must still be read out
    chain = [(3, 3), (2, 4), (3, 3)]
    chars = fusion._peel_packed(chain, fusion._unpack)
    assert chars == [character_recursive(w) for w in chain]


def test_chain_total_at_the_modular_edge():
    # 3 * 5 * 17 = 255 = 2**8 - 1 fills the one-byte field, so the packed
    # int is 0 modulo 255; 3 * 5 = 15 shares the layout and the parity
    chain = [(3, 5), (3, 5, 17)]
    steps = fusion._top_strata(chain, 0, cap=255)
    assert [total for _, total in steps] == [15, 255]
    for (strata, _), weights in zip(steps, chain):
        char = character_recursive(weights, cap=255)
        high = max(t for _, t in char)
        assert strata == {0: {w: m for (w, t), m in char.items() if t == high}}


def test_chain_peeling_rejects_mixed_parities():
    # sum(a - 1) is 1 for (2,) and 2 for (2, 2): no one layout holds both
    with pytest.raises(ValueError, match="parity"):
        fusion._peel_packed([(2,), (2, 2)], fusion._unpack)
