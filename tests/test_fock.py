"""Wedge model sanity: signs, gradings, packed indices, and the current action."""

import random
from itertools import permutations, product

import pytest

from schubert_fusion import fock
from schubert_fusion.fock import (
    WedgeState,
    _intern_block,
    apply_current,
    bigrade,
    block_ids,
    factor_groups,
    pack_index,
    top_wedge,
)

V, U = 0, 1


def only_term(state):
    (index, coeff), = state.coeffs.items()
    return index, coeff


def test_top_wedge_single_particle():
    state = top_wedge((1,))
    index, coeff = only_term(state)
    assert coeff == 1
    assert bigrade(index, 1) == (-1, 0)


def test_top_wedge_shapes():
    assert bigrade(only_term(top_wedge((2,)))[0], 1) == (-2, 1)
    assert bigrade(only_term(top_wedge((3, 1)))[0], 2) == (-4, 3)
    assert bigrade(only_term(top_wedge((2, 2, 1)))[0], 2) == (-5, 2)


def test_e0_on_single_v():
    state = apply_current(0, top_wedge((1,)))
    index, coeff = only_term(state)
    assert coeff == 1
    assert bigrade(index, 1) == (1, 0)


def test_e1_on_two_wedge_and_nilpotence():
    top = top_wedge((2,))
    once = apply_current(1, top)
    index, coeff = only_term(once)
    # u_1 ^ v_1 reorders to -(v_1 ^ u_1)
    assert bigrade(index, 1) == (0, 2)
    assert coeff == -1
    assert not apply_current(1, once).coeffs


def test_mode_past_truncation_dies():
    top = top_wedge((2,))
    assert not apply_current(5, top).coeffs


def test_e_raises_weight_by_two():
    state = apply_current(0, top_wedge((3, 2)))
    for index in state.coeffs:
        assert bigrade(index, 2) == (-3, 4)  # +2 weight, +0 energy over (-5, 4)


def particle_grade(monos):
    """(h-weight, t-degree) summed over the particles of some monomials."""
    return (sum(1 if kind == U else -1 for mono in monos for kind, _ in mono),
            sum(i for mono in monos for _, i in mono))


def random_state(rng, shapes, terms=3):
    # canonical orbit-sum terms with random monomials: each factor's m
    # particles sorted (every v before every u), each block's monomials
    # sorted, so the state need not be reachable from a top wedge
    out = WedgeState(shapes, {})
    for _ in range(terms):
        bids = []
        for m, count in factor_groups(shapes):
            particles = [(V, i) for i in range(m)] + [(U, i) for i in range(m)]
            block = tuple(sorted(tuple(sorted(rng.sample(particles, m)))
                                 for _ in range(count)))
            bids.append(_intern_block(block, particle_grade(block)))
        out = out + WedgeState(shapes, {pack_index(bids): rng.randint(1, 5)})
    return out


def test_raising_operators_commute():
    rng = random.Random(1)
    for shapes in ((3,), (3, 2), (4, 2)):
        state = random_state(rng, shapes)
        for i, j in ((0, 1), (1, 2), (0, 2)):
            ij = apply_current(i, apply_current(j, state))
            ji = apply_current(j, apply_current(i, state))
            assert ij.coeffs == ji.coeffs


def test_block_scopes_add_up_to_the_whole_current():
    # the diagonal action is the sum of its actions on single blocks
    rng = random.Random(2)
    for shapes in ((4, 2), (3, 3, 1), (2, 2, 1, 1)):
        blocks = range(len(factor_groups(shapes)))
        for _ in range(3):
            state = random_state(rng, shapes)
            for j in range(max(shapes) + 1):
                whole = apply_current(j, state)
                total = WedgeState(shapes, {})
                for g in blocks:
                    total = total + apply_current(j, state, blocks=(g,))
                assert total.coeffs == whole.coeffs
                assert apply_current(j, state, blocks=blocks).coeffs == whole.coeffs


@pytest.mark.parametrize("bad", [-1, 2, 5])
def test_block_index_out_of_range_raises(bad):
    # top_wedge((3, 2)) has two blocks; -1 would shift past the top field
    state = top_wedge((3, 2))
    assert len(factor_groups(state.shapes)) == 2
    with pytest.raises(ValueError, match="block index"):
        apply_current(0, state, blocks=(bad,))
    with pytest.raises(ValueError, match="block index"):
        apply_current(0, state, blocks=(0, bad))


def test_single_factor_nilpotence():
    m = 3
    state = top_wedge((m,))
    for _ in range(m):
        state = apply_current(0, state)
    assert not apply_current(0, state).coeffs


def test_zero_factor_shapes_rejected():
    with pytest.raises(ValueError):
        top_wedge((0,))


# An independent model of the same action: explicit particle tuples, one per
# tensor factor, with every arrangement of an orbit sum spelled out, and
# wedge signs found by sorting.  It shares no code with `fock` beyond reading
# the block contents an index names.

def explicit(state):
    """Expand orbit sums into {tuple of per-factor particle tuples: coeff}."""
    count = len(factor_groups(state.shapes))
    out = {}
    for index, coeff in state.coeffs.items():
        blocks = [fock._BLOCKS[b] for b in block_ids(index, count)]
        for parts in product(*(set(permutations(block)) for block in blocks)):
            word = tuple(mono for part in parts for mono in part)
            assert word not in out
            out[word] = coeff
    return out


def sort_sign(particles):
    """(sign of the sorting permutation, sorted tuple); sign 0 on a repeat."""
    items = list(particles)
    if len(set(items)) < len(items):
        return 0, None
    sign = 1
    for i in range(len(items)):  # bubble sort, one sign flip per swap
        for k in range(len(items) - 1 - i):
            if items[k] > items[k + 1]:
                items[k], items[k + 1] = items[k + 1], items[k]
                sign = -sign
    return sign, tuple(items)


def oracle_current(mode, shapes, vec, factors):
    """e_mode on explicit words, as a derivation on each factor in `factors`."""
    out = {}
    for word, coeff in vec.items():
        for f in factors:
            m = shapes[f]
            for pos, (kind, i) in enumerate(word[f]):
                if kind != V or i + mode >= m:
                    continue
                moved = word[f][:pos] + ((U, i + mode),) + word[f][pos + 1:]
                sign, mono = sort_sign(moved)
                if sign:
                    image = word[:f] + (mono,) + word[f + 1:]
                    out[image] = out.get(image, 0) + sign * coeff
    return {w: c for w, c in out.items() if c}


def block_factors(shapes, g):
    start = sum(count for _, count in factor_groups(shapes)[:g])
    return range(start, start + factor_groups(shapes)[g][1])


@pytest.mark.parametrize("shapes", [(3,), (2, 1), (4, 2), (3, 3, 1), (2, 2, 1, 1)])
def test_current_matches_explicit_particle_model(shapes):
    rng = random.Random(str(shapes))
    count = len(factor_groups(shapes))
    for _ in range(4):
        state = random_state(rng, shapes, terms=4)
        vec = explicit(state)
        for mode in range(max(shapes) + 1):
            image = apply_current(mode, state)
            assert (explicit(image)
                    == oracle_current(mode, shapes, vec, range(len(shapes))))
            for index in image.coeffs:  # grades carried through the moves
                word = next(iter(explicit(WedgeState(shapes, {index: 1}))))
                assert bigrade(index, count) == particle_grade(word)
            for g in range(len(factor_groups(shapes))):
                assert (explicit(apply_current(mode, state, blocks=(g,)))
                        == oracle_current(mode, shapes, vec,
                                          block_factors(shapes, g)))


def test_explicit_model_signs():
    # u_1 ^ v_1 sorts to -(v_1 ^ u_1); a repeated particle kills the wedge
    assert sort_sign(((U, 1), (V, 1))) == (-1, ((V, 1), (U, 1)))
    assert sort_sign(((V, 0), (U, 2), (V, 1))) == (-1, ((V, 0), (V, 1), (U, 2)))
    assert sort_sign(((U, 0), (U, 0))) == (0, None)


def test_index_order_is_block_tuple_order():
    rng = random.Random(5)
    shapes = (3, 3, 1)
    count = len(factor_groups(shapes))
    indices = list(random_state(rng, shapes, terms=40).coeffs)
    top = (1 << fock._FIELD_BITS) - 1
    for _ in range(200):  # ids across the whole field, edges included
        bids = [rng.choice((0, 1, top - 1, top, rng.randrange(top + 1)))
                for _ in range(count)]
        index = pack_index(bids)
        assert block_ids(index, count) == tuple(bids)
        indices.append(index)
    assert (sorted(indices)
            == sorted(indices, key=lambda idx: block_ids(idx, count)))


def test_block_id_past_its_field_is_refused(monkeypatch):
    # a fresh table with 2-bit fields holds ids 0..3 and refuses a fifth block
    monkeypatch.setattr(fock, "_FIELD_BITS", 2)
    for table in ("_BLOCKS", "_BLOCK_GRADES"):
        monkeypatch.setattr(fock, table, [])
    for table in ("_BLOCK_IDS", "_MOVES"):
        monkeypatch.setattr(fock, table, {})
    state = top_wedge((3,))
    state = apply_current(0, state)  # u_0, u_1, u_2 each replace one v
    assert len(fock._BLOCKS) == 4
    with pytest.raises(OverflowError, match="no longer fit"):
        apply_current(0, state)
    assert len(fock._BLOCKS) == len(fock._BLOCK_GRADES) == len(fock._BLOCK_IDS) == 4
