"""Fusion modules: dimensions, characters, relations, submodules."""

import gc
import math
import random
import sys
import time
import weakref
from collections import Counter, deque
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubert_fusion import acceptance, fock, fusion, types
from schubert_fusion.fock import WedgeState, apply_current
from schubert_fusion.fusion import (
    DimensionCapError,
    _build_module_cached,
    _top_energy,
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
from schubert_fusion.linalg import SpanBasis, closure_layers

weight_vectors = st.lists(
    st.integers(min_value=1, max_value=5), min_size=1, max_size=4
).map(lambda xs: tuple(sorted(xs))).filter(lambda a: math.prod(a) <= 64)


def _relations_hold(report):
    return all(chk["pass"] for chk in acceptance.relations_checks(report))


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


def test_a_bool_weight_is_refused_and_leaves_the_cache_alone():
    # (True, 2) == (1, 2) and both hash the same: a record built for the
    # bool weights was cached and handed back for (1, 2) afterwards
    with pytest.raises(ValueError,
                       match="^entry must be a positive integer, got True$"):
        build_module((True, 2))
    weights = build_module((1, 2)).weights
    assert weights == (1, 2)
    assert all(type(a) is int for a in weights)


def test_dimension_cap(monkeypatch):
    with pytest.raises(DimensionCapError):
        build_module((7,) * 7)
    monkeypatch.setattr(types, "DEFAULT_DIMENSION_CAP", 4)
    with pytest.raises(DimensionCapError):
        build_module((2, 2, 2))
    # past the preflight, the closure's own guard reads the constant too
    with pytest.raises(DimensionCapError, match="cap of 4"):
        _build_module_cached.__wrapped__((2, 2, 2))


def test_block_budget_is_read_at_call_time(monkeypatch):
    # every model a closure makes reads the budget when it is made.  The
    # factor model of (3, 4, 5) interns 38 blocks, and its factor bases
    # meet 14, 5 and 2 monomials, every mask of F_3, F_2 and F_1; the
    # kernel at the second pair of (2, 2, 4), closed to h-weight 0,
    # interns 5 blocks, and its basis of F_3 meets 13 monomials, the masks
    # of its images: 12 trips it, which a charge of the 7 masks it moves
    # would pass
    monkeypatch.setattr(fock, "WEDGE_BLOCK_BUDGET", 40)
    assert _build_module_cached.__wrapped__((3, 4, 5)).dimension == 60
    assert build_submodule((2, 2, 4), 2).dimension == 6
    monkeypatch.setattr(fock, "WEDGE_BLOCK_BUDGET", 32)
    _build_module_cached.cache_clear()
    with pytest.raises(DimensionCapError,
                       match=r"on \(3, 3, 2, 1\) .* budget of 32 blocks"):
        build_module((3, 4, 5))
    monkeypatch.setattr(fock, "WEDGE_BLOCK_BUDGET", 12)
    with pytest.raises(DimensionCapError,
                       match="F_3 met more than the budget of 12 monomials"):
        build_submodule((2, 2, 4), 2)


def test_factor_basis_charges_the_images_it_meets(monkeypatch):
    # a factor basis charges every mask of the images it makes, as a model
    # charges every block its moves reach, so a lone factor trips the
    # budget in its basis: F_5, built to layer 2 for (2,) * 5, meets 66
    # monomials, the top wedge and every mask of its images
    monkeypatch.setattr(fock, "WEDGE_BLOCK_BUDGET", 66)
    assert _build_module_cached.__wrapped__((2,) * 5).dimension == 32
    monkeypatch.setattr(fock, "WEDGE_BLOCK_BUDGET", 65)
    with pytest.raises(DimensionCapError,
                       match="F_5 met more than the budget of 65 monomials"):
        _build_module_cached.__wrapped__((2,) * 5)


def test_closures_drop_their_wedge_models(monkeypatch):
    # FusionModule and SubmoduleS keep results only: every model a closure
    # makes (its interned blocks and moves, and its factor bases, one per
    # truncation) is freed when it returns
    refs = []

    def recording(cls):
        init = cls.__init__

        def __init__(self, *args):
            init(self, *args)
            refs.append(weakref.ref(self))
        monkeypatch.setattr(cls, "__init__", __init__)

    recording(fock.WedgeModel)
    recording(fock.FactorBasis)
    _build_module_cached.cache_clear()
    assert build_module((2, 3, 4)).dimension == 24
    assert build_submodule((2, 3, 5), 1).dimension > 0
    assert build_module((2, 2)).dimension == 4
    assert _relations_hold(check_relations(3, 2))
    # a factor model and a basis per truncation 3, 2 and 1, twice, and
    # the model and basis of the lone factor of (2, 2); the relation
    # series runs on rows of masks and makes neither
    assert len(refs) == 10
    assert all(ref() is None for ref in refs)


def test_relations_small():
    assert _relations_hold(check_relations(1, 2))
    assert _relations_hold(check_relations(2, 2))
    assert _relations_hold(check_relations(3, 3))


def test_relations_within_the_particle_cap():
    # the series carries 506 740 particles: past DEFAULT_DIMENSION_CAP, but
    # within the relation budget of its own
    assert _relations_hold(check_relations(10, 4))


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
    assert _relations_hold(check_relations(4, 3))
    monkeypatch.setattr(types, "RELATION_PARTICLE_CAP", 10)
    with pytest.raises(DimensionCapError, match="cap of 10 particles"):
        check_relations(4, 3)
    # a long truncation trips the count within its first power
    monkeypatch.setattr(types, "RELATION_PARTICLE_CAP", 1000)
    with pytest.raises(DimensionCapError, match="truncation 1000"):
        check_relations(1000, 1)
    # every power costs n particles, also once e(z)^i has vanished: on
    # truncation 1 the first power charges 1 + 1 and every later one 1
    monkeypatch.setattr(types, "RELATION_PARTICLE_CAP", 5)
    assert _relations_hold(check_relations(1, 4))
    with pytest.raises(DimensionCapError, match="cap of 5 particles"):
        check_relations(1, 5)


def test_relations_need_an_int_power():
    for power in (2.5, 2.0, "2", None, 0):
        with pytest.raises(ValueError, match="max power must be a positive"):
            check_relations(2, power)


def test_relations_report_shape():
    report = check_relations(2, 3)
    assert _relations_hold(report)
    assert report._fields == ("truncation", "max_power", "lowest")
    # e(z)^3 vanishes on truncation 2
    assert (report.truncation, report.max_power) == (2, 3)
    assert report.lowest == (0, 2, None)
    # elsewhere the i-th power starts exactly at z^{n (i - 1)}
    assert check_relations(3, 3).lowest == (0, 3, 6)
    assert check_relations(4, 3).lowest == (0, 4, 8)


def test_monomial_basis_counts():
    assert monomial_basis(1) == [(), (0,)]
    assert len(monomial_basis(2)) == 4
    assert len(monomial_basis(3)) == 8
    counts = {}
    for word in monomial_basis(3):
        counts[len(word)] = counts.get(len(word), 0) + 1
    assert counts == {0: 1, 1: 3, 2: 3, 3: 1}


def test_monomials_span_the_hypercube():
    n = 4
    moves = [{} for _ in range(n)]
    basis = SpanBasis()
    for word in monomial_basis(n):
        image = {(1 << n) - 1: 1}  # the top wedge, a row of masks
        for j in word:
            image = fock.mask_current(j, image, n, moves[j])
        assert basis.insert(image)
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


def _closed_to_the_end(seed, operators) -> list:
    # the pivots of every layer of the span, where `_close_under` keeps
    # the first few layers only
    on_rows = [lambda row, op=op: op(WedgeState(seed.model, row)).coeffs
               for op in operators]
    return [p for basis in closure_layers(seed.coeffs, on_rows)
            for p in basis.pivots()]


@contextmanager
def _whole_factor_bases():
    # build_module and build_submodule build each factor basis only as deep
    # as their closure reaches; under this, every factor basis may reach
    # its last layer, so a closure of the whole span may run in the model
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "cyclic_vector",
                   lambda shapes, depth:
                   fock.cyclic_vector(shapes, max(shapes, default=0)))
        yield


@contextmanager
def _closed_by_fifo_oracle():
    # routes build_module and build_submodule through the oracle closure;
    # call _build_module_cached.__wrapped__ under it, so no oracle result
    # lands in the module cache.  The oracle ignores a layer limit and
    # closes the whole span, so the mirrored half that build_module and
    # build_submodule read meets the full character.
    with pytest.MonkeyPatch.context() as mp, _whole_factor_bases():
        mp.setattr(fusion, "_close_under",
                   lambda seed, operators, layers:
                   _fifo_closure_oracle([seed], operators).pivots())
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


@contextmanager
def _recorded_closures():
    # yields a list that gets (seed, operators, layers, pivots) for every
    # closure run
    closures = []
    close = fusion._close_under

    def recording(seed, operators, layers):
        pivots = close(seed, operators, layers)
        closures.append((seed, operators, layers, pivots))
        return pivots

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "_close_under", recording)
        yield closures


@pytest.mark.parametrize("weights", [
    (2,), (3,), (2, 2), (2, 3), (1, 3, 3), (2, 3, 4), (2,) * 7, (3, 3, 4)])
def test_module_closure_stops_at_weight_zero(weights):
    # the closure keeps only rows of h-weight <= 0; the rest are mirrored.
    # Lone factors ((2,), (2, 2) and (2,) * 7) run on the labels of their
    # factor basis too, and every basis is built only as deep as the
    # closure reaches
    with _recorded_closures() as closures:
        module = _build_module_cached.__wrapped__(weights)
    ((seed, _, layers, pivots),) = closures
    n = sum(a - 1 for a in weights)
    assert layers == n // 2
    assert ([(basis.truncation, basis.depth) for basis in seed.model.factors]
            == [(m, min(m, layers)) for m, _ in seed.model.groups])
    assert max(seed.model.bigrade(p)[0] for p in pivots) == -(n % 2)
    assert len(pivots) < module.dimension == math.prod(weights)
    assert module.character == character_recursive(weights)


def test_submodule_closure_stops_at_weight_zero():
    # every unequal pair of weight_corpus(64): the kernel's closure keeps
    # only rows of h-weight <= 0, the full closure of the same generator
    # under the same operators is an sl2-module of the halved dimension,
    # and the halved rows count the weights w <= 0 of the kernel's
    # h-character, V(a_{i+1} - a_i + 1) times the modules on `aprime`
    pairs = [(w, i) for w in acceptance.weight_corpus(64)
             for i in range(1, len(w)) if w[i - 1] < w[i]]
    assert len(pairs) > 100
    for weights, index in pairs:
        with _recorded_closures() as closures:
            sub = build_submodule(weights, index)
        ((seed, operators, layers, pivots),) = closures
        bigrade = seed.model.bigrade
        w_gen = bigrade(next(iter(seed.coeffs)))[0]
        assert layers == -w_gen // 2
        assert max(bigrade(p)[0] for p in pivots) <= 0
        # the same generator and operators, in a model whose factor bases
        # reach their last layers
        with _recorded_closures() as closures, _whole_factor_bases():
            build_submodule(weights, index)
        ((seed, operators, _, _),) = closures
        bigrade = seed.model.bigrade
        full = _closed_to_the_end(seed, operators)
        assert len(full) == sub.dimension == kernel_dimension(weights, index)
        char = Counter(bigrade(p) for p in full)
        assert char == Counter({(-w, t): m for (w, t), m in char.items()})
        left, right = weights[index - 1], weights[index]
        kernel = tuple(sorted(sub.aprime + (right - left + 1,)))
        peeled = character_recursive(kernel)
        assert len(pivots) == sum(m for (w, _), m in peeled.items()
                                  if w <= 0)


@pytest.mark.parametrize("weights", [
    (2, 3, 4), (3, 4, 5), (2, 2, 3, 4), (2, 3, 4, 5), (2, 3, 5, 6)])
def test_submodules_match_fifo_oracle(weights):
    # unequal interior pairs such as ((2, 3, 4, 5), 2) are built by the
    # general closure: this oracle and the exact sequence check them too
    for index in range(1, len(weights)):
        sub = build_submodule(weights, index)
        with _closed_by_fifo_oracle():
            expected = build_submodule(weights, index)
        assert sub == expected
        quotient = math.prod(quotient_weights(weights, index))
        assert sub.dimension + quotient == math.prod(weights)


def test_sampled_closures_match_the_recursion():
    # a seeded sample of the criterion-1 corpus, every module of two or
    # more factors: the closure's character equals the span-free
    # recursion's, module by module.  Lone factors are compared with the
    # recursion in test_module_closure_stops_at_weight_zero
    corpus = acceptance.weight_corpus(256)
    sample = random.Random(38).sample(corpus, 80)
    for weights in sample:
        module = _build_module_cached.__wrapped__(weights)
        assert dict(module.character) == character_recursive(weights)


@pytest.mark.parametrize("weights", [(6, 6, 6, 6), (3,) * 7, (3, 4, 4, 5, 5)],
                         ids=["6,6,6,6", "3*7", "3,4,4,5,5"])
def test_large_factor_closures_match_the_recursion(weights):
    # the first two tripped the block budget in wedge coordinates, and
    # the third took 3-4 s there; each takes 0.2-0.4 s in factor coordinates
    module = _build_module_cached.__wrapped__(weights)
    assert module.dimension == math.prod(weights)
    assert dict(module.character) == character_recursive(weights)


def test_closure_past_its_factor_depth_raises():
    # the module closure of (2, 2, 2, 3), on factors of truncation 4 and
    # 1, stops after N // 2 = 2 layers and needs layer 2 of F_4 at most;
    # closed to the end, past h-weight 0, it needs layer 3
    weights = (2, 2, 2, 3)
    cyclic = fock.cyclic_vector(factor_shapes(weights), 2)
    operators = [(lambda s, j=j: apply_current(j, s)) for j in range(4)]
    below = sum(m for (w, _), m in character_recursive(weights).items()
                if w <= 0)
    assert len(fusion._close_under(cyclic, operators, 2)) == below == 12
    with pytest.raises(RuntimeError, match="F_4 is built to layer 2"):
        _closed_to_the_end(cyclic, operators)


def test_closure_skips_unsorted_words(monkeypatch):
    # a row born from e_i meets only e_j with j >= i, so the closure makes
    # fewer than (number of operators) x dimension applications
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return apply_current(*args, **kwargs)

    monkeypatch.setattr(fusion, "apply_current", counting)
    _build_module_cached.cache_clear()
    # factors in three groups, and a lone factor
    for weights in ((3, 4, 5), (2,) * 8):
        calls.clear()
        dim = build_module(weights).dimension
        assert 1 < len(calls) < len(weights) * dim
    calls.clear()
    dim = build_submodule((2, 3, 5), 1).dimension
    # the three currents and the extra one on the high factors
    assert 1 < len(calls) < 4 * dim


def test_kernel_dimension_closed_forms():
    # boundary pairs, equal pairs, and interior unequal ones: one closed form
    for weights, index in (((2, 3, 4), 1), ((2, 3, 4), 2), ((2, 2, 4), 1),
                           ((2, 3, 3, 4), 2), ((3, 3), 1), ((2, 5), 1)):
        expected = kernel_dimension(weights, index)
        assert expected == build_submodule(weights, index).dimension
    assert kernel_dimension((2, 3, 4, 5), 2) == 20
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
    # power-of-two bounds on the weight spaces: the field width steps up at
    # 2**8, 2**16 and 2**32
    st.builds(lambda i, j: [2] * i + [4] * j,
              st.integers(min_value=0, max_value=24),
              st.integers(min_value=0, max_value=6)),
).map(lambda xs: tuple(sorted(xs)))


@settings(max_examples=60, deadline=None)
@given(peel_vectors)
@example((2,) * 13 + (28,))  # the benchmark's long vectors
@example((3, 5, 17, 257))  # bound 3 * 5 * 17 = 2**8 - 1: one-byte fields
@example((2,) * 16)  # bound 2**15: two-byte fields
@example((2,) * 32)  # bound 2**31: four-byte fields
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
    # weight-space bounds 2**(n - 1) in one-byte and eight-byte fields, the
    # last with multiplicities far past 2**32
    char = character_recursive((2,) * n, cap=2 ** n)
    assert char == _q_binomial_character(n)


def _recording_unpack(monkeypatch):
    # the (top, field) layout of each read `_peel_packed` makes
    unpack = fusion._unpack
    layouts = []

    def recording(packed, top, field):
        layouts.append((top, field))
        return unpack(packed, top, field)

    monkeypatch.setattr(fusion, "_unpack", recording)
    return layouts


def test_chain_peeling_matches_one_target_peeling(monkeypatch):
    # one layout for the chain, sized by its last step: every step's full
    # character reads back as its own peeling gives it
    chain = [(2, 3) + (3,) * (2 * i) for i in range(4)]
    layouts = _recording_unpack(monkeypatch)
    chars = fusion._peel_packed(chain)
    # its weight spaces are bounded by 2 * 3**6, which needs 11 bits
    assert layouts == [(3 + 2 * 6, 16)] * len(chain)
    assert chars == [character_recursive(w, cap=10 ** 9) for w in chain]


def test_chain_peeling_reads_repeated_and_nested_targets():
    # (2, 4) is the quotient of (3, 3), so it is packed inside the first
    # target's strata; it and the repeated (3, 3) must still be read out
    chain = [(3, 3), (2, 4), (3, 3)]
    chars = fusion._peel_packed(chain)
    assert chars == [character_recursive(w) for w in chain]


def test_chain_total_at_the_modular_edge(monkeypatch):
    # the bound on the weight spaces of (3, 5, 17, 17) is 3 * 5 * 17 = 255
    # = 2**8 - 1, which exactly fills a one-byte field; (3, 5) shares the
    # layout and the parity.  Full reads and top-row windows both hold.
    chain = [(3, 5), (3, 5, 17, 17)]
    layouts = _recording_unpack(monkeypatch)
    try:
        expected = [_peeled_oracle(w) for w in chain]
    finally:
        _peeled_oracle.cache_clear()
    assert fusion._peel_packed(chain) == expected
    assert [field for _, field in layouts] == [8, 8]
    for depth in (0, 3):
        _assert_windows_read(chain, depth)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6)
       .map(sorted))
def test_weight_spaces_are_bounded_by_prod_over_max(weights):
    # dim M_w is a coefficient of the product of the 1 + z + ... + z^(a - 1),
    # the character of the tensor product of the V_(a - 1): at most
    # prod // max, the bound `_peel_packed` sizes its fields by
    coeffs = [1]
    for a in weights:
        grown = [0] * (len(coeffs) + a - 1)
        for i, c in enumerate(coeffs):
            for j in range(a):
                grown[i + j] += c
        coeffs = grown
    assert max(coeffs) <= math.prod(weights) // max(weights)
    # and these are the weight spaces of the peeled character
    spaces = Counter()
    for (w, _), mult in character_recursive(weights, cap=10 ** 9).items():
        spaces[w] += mult
    top = len(coeffs) - 1
    assert spaces == {2 * k - top: c for k, c in enumerate(coeffs)}


def _trace_peel(targets, depth, read):
    # one `_peel_packed` run, with read(names, event) called on each trace
    # event of its frame, `names` the frame's locals
    code = fusion._peel_packed.__code__

    def local(frame, event, arg):
        read(frame.f_locals, event)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is code else None)
    try:
        fusion._peel_packed(targets, depth)
    finally:
        sys.settrace(previous)


def _traced_memo(targets, depth=None):
    # every value the memo of one `_peel_packed` run holds, by stratum
    # (None for id 0, which packs to 0), and the run's (top, field) layout.
    # The memo is a list indexed by stratum id, None where no stratum is
    # held, and `strata` maps each id back to its stratum; each stratum is
    # packed once, so a new value shows as one more entry held
    values, layout, run = {}, [], {"held": 0}

    def read(names, event):
        memo = names.get("memo")
        if memo is not None:
            held = len(memo) - memo.count(None)
            if held > run["held"]:
                for i, packed in enumerate(memo):
                    if packed is not None:
                        values.setdefault(i, packed)
            run["held"] = held
            run["strata"] = names["strata"]
        if "field" in names and not layout:
            layout.extend((names["top"], names["field"]))

    _trace_peel(targets, depth, read)
    return {run["strata"][i]: packed for i, packed in values.items()}, layout


def _traced_liveness(targets, depth=None):
    # the most strata the memo of one `_peel_packed` run holds at once
    # besides id 0, and the (stratum, value) pairs it still holds when the
    # run returns
    run = {"peak": 0}

    def read(names, event):
        memo = names.get("memo")
        if memo is not None:
            run["peak"] = max(run["peak"], len(memo) - memo.count(None) - 1)
            if event == "return":
                run["left"] = [(names["strata"][i], packed)
                               for i, packed in enumerate(memo)
                               if packed is not None]

    _trace_peel(targets, depth, read)
    return run["peak"], run["left"]


@pytest.mark.parametrize("targets", [
    [(3, 5), (3, 5, 17, 17)],  # bound 255 in one byte
    [(2,) * 9],  # bound 2**8 in two bytes
    [(2, 3) + (3,) * (2 * i) for i in range(4)],
    [(2,) * 11 + (9,), (2,) * 13 + (9,)],
])
@pytest.mark.parametrize("depth", [None, 0, 3])
def test_every_packed_field_holds_its_multiplicity(targets, depth):
    # no field carries into the next: every field of every stratum the run
    # packs is at most the bound on the targets' weight spaces, below
    # 2**field, and a fully packed stratum reads back as its own character
    values, (top, field) = _traced_memo(targets, depth)
    bound = max(math.prod(t) // max(t) for t in targets)
    assert bound < 2 ** field
    mask = (1 << field) - 1
    try:
        for stratum, packed in values.items():
            assert packed >= 0
            fields = [packed >> i & mask
                      for i in range(0, packed.bit_length(), field)]
            assert max(fields, default=0) <= bound
            if depth is None and stratum is not None:
                assert fusion._unpack(packed, top, field) == \
                    _peeled_oracle(stratum)
    finally:
        _peeled_oracle.cache_clear()
    assert len(values) > len(targets)


@pytest.mark.parametrize("targets, depth", [
    ([(2,) * 9], None),
    ([(3, 3), (2, 4), (3, 3)], None),
    ([(3, 3), (2, 4), (3, 3)], 1),
    ([(3,) * (2 * i + 1) for i in range(5)], 3),
    ([(2, 2, 3) + (3,) * (2 * i) for i in range(4)], 0),
])
def test_only_id_0_outlives_the_call(targets, depth):
    # each stratum is dropped after its last user, a repeated target after
    # its last read: when the call returns only id 0 is left, still 0
    _, left = _traced_liveness(targets, depth)
    assert left == [(None, 0)]


def test_live_strata_do_not_grow_with_the_chain():
    # on the chain of bundle (1,), the strata alive at once at depth 3 do
    # not grow with its length: each step's strata are dropped once the
    # next step has used them
    peaks = []
    for i_max in (15, 30, 60):
        chain = [(2,) * (2 * i + 1) for i in range(i_max + 1)]
        peaks.append(_traced_liveness(chain, 3)[0])
    assert peaks == [4] * 3


@pytest.mark.parametrize("n", [3, 10, 40, 80])
def test_full_read_of_twos_keeps_few_strata(n):
    # the quotient's subtree is packed before the kernel's, so a full read
    # of (2,) * n holds at most n strata at once (n // 2 + 2 of them; 650
    # on (2,) * 80 when the kernel's subtree went first)
    assert _traced_liveness([(2,) * n])[0] <= n


def _top_rows(weights, depth):
    # The reference read-out: the full character of one call of
    # character_recursive, filtered to its top depth + 1 energies, d
    # descending and h-weights ascending
    char = character_recursive(weights, cap=10 ** 60)
    high = max(t for _, t in char)
    strata = {}
    for (w, t), mult in sorted(char.items(), key=lambda e: e[0][::-1]):
        if high - t <= depth:
            strata.setdefault(high - t, {})[w] = mult
    return strata


def _assert_windows_read(chain, depth):
    steps = fusion._top_strata(chain, depth, cap=10 ** 60)
    expected = [_top_rows(w, depth) for w in chain]
    assert steps == expected
    assert repr(steps) == repr(expected)  # the same insertion order


def test_window_past_the_top_reads_every_row():
    # each step's top energy (1, 2, 4 and 5) is at most the depth, so every
    # floor clamps at 0 and the window holds the whole character
    chain = [(2, 2), (3, 3), (2, 2, 2, 2), (2, 2, 3, 3)]
    for depth in (5, 40):
        _assert_windows_read(chain, depth)
    steps = fusion._top_strata(chain, 5, cap=10 ** 60)
    for strata, weights in zip(steps, chain):
        assert sum(sum(s.values()) for s in strata.values()) == \
            math.prod(weights)


def _packed_windows(monkeypatch):
    # the strata each `_top_windows` call leaves to be packed, call by call,
    # with the number of strata planned: the packing loop packs exactly the
    # strata of the batches it returns
    windows = fusion._top_windows
    calls = []

    def counting(steps, batches, targets, depth, row):
        steps, kept, widths = windows(steps, batches, targets, depth, row)
        calls.append((sum(map(len, batches)), [s for b in kept for s in b]))
        return steps, kept, widths

    monkeypatch.setattr(fusion, "_top_windows", counting)
    return calls


def test_top_row_window_skips_kernel_subtrees(monkeypatch):
    # at depth 0 every quotient below its user's top is left unwalked, and
    # each stratum the walk plans is packed; the top rows still match
    calls = _packed_windows(monkeypatch)
    chain = [(2, 2) + (2,) * (2 * i) for i in range(8)]
    _assert_windows_read(chain, 0)
    ((planned, packed),) = calls
    assert planned == len(packed)


def test_no_stratum_is_packed_twice(monkeypatch):
    # on the chain of bundle (2,) at depth 3, six strata are asked for more
    # than one width by their users; each is packed once, as wide as its
    # widest user keeps, so 18 strata make 18 windows (26 when a stratum
    # was packed once for each floor asked of it).  The walk plans 70
    # strata, leaving out each quotient more than 3 rows below its user's
    # top with its subtree (127 when it walked every stratum).
    calls = _packed_windows(monkeypatch)
    _assert_windows_read([(3,) * (2 * i + 1) for i in range(5)], 3)
    ((planned, packed),) = calls
    assert len(packed) == len(set(packed)) == 18
    assert planned == 70


@pytest.mark.parametrize("depth", [2, 3])
def test_window_of_a_stratum_asked_two_floors(depth):
    # on the chain of bundle (2,) some strata are asked for more than one
    # width by their users (2 strata at depth 2, 6 at depth 3): each is
    # packed once at the widest, and a narrower user masks off the rows
    # above its own width
    _assert_windows_read([(3,) * (2 * i + 1) for i in range(5)], depth)


@pytest.mark.parametrize("depth", [0, 1, 5])
def test_windows_of_repeated_and_nested_targets(depth):
    # (2, 4) is the quotient of (3, 3) and a target of its own: at depths
    # 1 and 5 the first target and its own read ask it for different
    # widths, and it is packed once, at the wider.  The repeated (3, 3) is
    # read out again.
    _assert_windows_read([(3, 3), (2, 4), (3, 3)], depth)


@pytest.mark.parametrize("depth", range(5))
@pytest.mark.parametrize("bundle",
                         list(combinations_with_replacement(range(4), 3)))
def test_windows_read_on_schubert_chains(bundle, depth):
    # the Schubert chain of the bundle: (b + 1 for b in bundle) grown by
    # two more copies of its last entry per step
    base = tuple(b + 1 for b in bundle)
    _assert_windows_read([base + base[-1:] * (2 * i) for i in range(4)],
                         depth)


def _highest_energy(weights):
    return max(t for _, t in character_recursive(weights, cap=10 ** 30))


def test_top_energy_closed_forms():
    assert _top_energy(()) == _top_energy((1, 1, 1)) == 0
    for n in range(20):
        assert _top_energy((2,) * n) == n * n // 4
    for a in range(1, 9):
        assert _top_energy((a,)) == 0
        for b in range(a, 9):
            assert _top_energy((a, b)) == min(a, b) - 1
    # the order of the entries does not matter
    assert _top_energy((4, 2, 3)) == _top_energy((2, 3, 4)) == 3


def test_top_energy_is_the_highest_peeled_energy():
    for length in range(6):
        for weights in combinations_with_replacement(range(1, 9), length):
            assert _top_energy(weights) == _highest_energy(weights), weights


@pytest.mark.parametrize("m", range(2, 11))
def test_top_energy_of_twos_under_one_weight(m):
    for n in range(25):
        weights = (2,) * n + (m,)
        assert _top_energy(weights) == _highest_energy(weights)


sorted_vectors = st.lists(st.integers(min_value=2, max_value=40),
                          min_size=2, max_size=12).map(lambda xs: tuple(sorted(xs)))


@settings(max_examples=200, deadline=None)
@given(sorted_vectors)
def test_top_energy_kernel_lemma(weights):
    # the kernel's top, raised by its energy shift, is its module's top
    a1, a2, rest = weights[0], weights[1], weights[2:]
    kernel = ((a2 - a1 + 1,) + rest) if a1 < a2 else rest
    shift = (a1 - 1) * (len(weights) - 1)
    assert _top_energy(weights) == _top_energy(kernel) + shift


@settings(max_examples=200, deadline=None)
@given(sorted_vectors, st.integers(min_value=0, max_value=10))
def test_top_energy_quotient_lemma(weights, raw_index):
    # the quotient's parts majorize the module's, and its top is no higher
    index = 1 + raw_index % (len(weights) - 1)
    quotient = quotient_weights(weights, index)

    def partial_sums(vector):
        parts = sorted((a - 1 for a in vector), reverse=True)
        return [sum(parts[:j]) for j in range(1, len(parts) + 1)]

    big, small = partial_sums(quotient), partial_sums(weights)
    assert big[-1] == small[-1]
    assert all(q >= a for q, a in zip(big, small))
    assert _top_energy(quotient) <= _top_energy(weights)


@pytest.mark.parametrize("weights, size", [
    ((2, 3), 1),
    ((3, 5, 17), 1),  # bound 15
    ((2,) * 9, 2),  # 2**8 needs two
    ((2, 3, 5, 17, 257), 2),  # 2 * 255
    ((2,) * 17, 4),  # three bytes round up to four
    ((2,) * 33, 8),  # five bytes round up to eight
    ((2,) * 64, 8),  # 2**63 needs all 64 bits
    ((2,) * 65, 9),  # 65 bits: wider than a C integer, whole bytes
    ((2,) * 70, 9),
])
def test_unpack_reads_every_field_width(weights, size, monkeypatch):
    # a field holds the largest weight space, at most prod // max: (2,) * n
    # needs 2**(n - 1).  Fields of a C integer's width are read through a
    # memoryview cast, wider ones with from_bytes; both read back the
    # peeled character
    layouts = _recording_unpack(monkeypatch)
    (char,) = fusion._peel_packed([weights])
    ((_, field),) = layouts
    assert field == 8 * size
    if set(weights) == {2}:
        expected = _q_binomial_character(len(weights))
    else:
        expected = _peeled_oracle(weights)
        _peeled_oracle.cache_clear()
    assert char == expected
    if size > 8:
        assert character_recursive(weights, cap=10 ** 80) == expected


def test_field_formats_are_their_widths():
    # every width up to 8 bytes rounds up to one that has a format
    rounded = {1 << (size - 1).bit_length() for size in range(1, 9)}
    assert rounded == set(fusion._FIELD_FORMATS)
    for size, fmt in fusion._FIELD_FORMATS.items():
        assert memoryview(bytes(8)).cast(fmt).itemsize == size


def test_chain_peeling_rejects_mixed_parities():
    # sum(a - 1) is 1 for (2,) and 2 for (2, 2): no one layout holds both
    with pytest.raises(ValueError, match="parity"):
        fusion._peel_packed([(2,), (2, 2)])
