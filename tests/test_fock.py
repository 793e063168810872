"""Wedge model sanity: signs, gradings, and the current action."""

import random

import pytest

from schubert_fusion.fock import (
    WedgeState,
    _intern_block,
    apply_current,
    bigrade,
    factor_groups,
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
    assert bigrade(index) == (-1, 0)


def test_top_wedge_shapes():
    assert bigrade(only_term(top_wedge((2,)))[0]) == (-2, 1)
    assert bigrade(only_term(top_wedge((3, 1)))[0]) == (-4, 3)


def test_e0_on_single_v():
    state = apply_current(0, top_wedge((1,)))
    index, coeff = only_term(state)
    assert coeff == 1
    assert bigrade(index) == (1, 0)


def test_e1_on_two_wedge_and_nilpotence():
    top = top_wedge((2,))
    once = apply_current(1, top)
    index, coeff = only_term(once)
    # u_1 ^ v_1 reorders to -(v_1 ^ u_1)
    assert bigrade(index) == (0, 2)
    assert coeff == -1
    assert not apply_current(1, once).coeffs


def test_mode_past_truncation_dies():
    top = top_wedge((2,))
    assert not apply_current(5, top).coeffs


def test_e_raises_weight_by_two():
    state = apply_current(0, top_wedge((3, 2)))
    for index in state.coeffs:
        assert bigrade(index) == (-3, 4)  # +2 weight, +0 energy over (-5, 4)


def random_state(rng, shapes):
    # three canonical orbit-sum terms with random monomials: each factor's
    # m particles sorted (every v before every u), each block's monomials
    # sorted, so the state need not be reachable from a top wedge
    out = WedgeState(shapes, {})
    for _ in range(3):
        index = []
        for m, count in factor_groups(shapes):
            particles = [(V, i) for i in range(m)] + [(U, i) for i in range(m)]
            monos = (tuple(sorted(rng.sample(particles, m))) for _ in range(count))
            index.append(_intern_block(tuple(sorted(monos))))
        out = out + WedgeState(shapes, {tuple(index): rng.randint(1, 5)})
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


def test_single_factor_nilpotence():
    m = 3
    state = top_wedge((m,))
    for _ in range(m):
        state = apply_current(0, state)
    assert not apply_current(0, state).coeffs


def test_zero_factor_shapes_rejected():
    with pytest.raises(ValueError):
        top_wedge((0,))
