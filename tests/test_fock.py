"""Wedge model sanity: signs, gradings, and the current action."""

import random

import pytest

from schubert_fusion.fock import (
    E,
    F,
    H,
    WedgeState,
    apply_current,
    bigrade,
    top_wedge,
    wedge_state,
)
from schubert_fusion.linalg import rational

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
    state = apply_current(E, 0, top_wedge((1,)))
    index, coeff = only_term(state)
    assert coeff == 1
    assert bigrade(index) == (1, 0)


def test_f_kills_top_wedge():
    for shapes in ((1,), (2,), (3,), (3, 2), (4, 2, 1)):
        top = top_wedge(shapes)
        for j in range(4):
            assert apply_current(F, j, top).is_zero()


def test_e1_on_two_wedge_and_nilpotence():
    top = top_wedge((2,))
    once = apply_current(E, 1, top)
    index, coeff = only_term(once)
    # u_1 ^ v_1 reorders to -(v_1 ^ u_1)
    assert bigrade(index) == (0, 2)
    assert coeff == -1
    assert apply_current(E, 1, once).is_zero()


def test_sign_of_reordered_particles():
    shapes = (2,)
    straight = wedge_state(shapes, [((V, 0), (V, 1))])
    swapped = wedge_state(shapes, [((V, 1), (V, 0))])
    assert (straight + swapped).is_zero()
    assert not (straight - swapped).is_zero()


def test_duplicate_particle_vanishes():
    state = wedge_state((2,), [((V, 0), (V, 0))])
    assert state.is_zero()


def test_mode_past_truncation_dies():
    top = top_wedge((2,))
    assert apply_current(E, 5, top).is_zero()


def test_e_raises_weight_by_two():
    state = apply_current(E, 0, top_wedge((3, 2)))
    for index in state.coeffs:
        assert bigrade(index) == (-3, 4)  # +2 weight, +0 energy over (-5, 4)


def test_h_preserves_weight():
    top = top_wedge((3,))
    moved = apply_current(H, 1, top)
    for index in moved.coeffs:
        assert bigrade(index)[0] == bigrade(only_term(top)[0])[0]


def random_state(rng, shapes):
    out = WedgeState(shapes, {})
    for _ in range(3):
        factors = []
        ok = True
        for m in shapes:
            picks = rng.sample(
                [(V, i) for i in range(m)] + [(U, i) for i in range(m)], m)
            factors.append(tuple(picks))
        out = out + wedge_state(shapes, factors, rational(rng.randint(1, 5)))
    return out


def test_raising_operators_commute():
    rng = random.Random(1)
    for shapes in ((3,), (3, 2), (4, 2)):
        state = random_state(rng, shapes)
        for i, j in ((0, 1), (1, 2), (0, 2)):
            ij = apply_current(E, i, apply_current(E, j, state))
            ji = apply_current(E, j, apply_current(E, i, state))
            assert (ij - ji).is_zero()


def test_single_factor_nilpotence():
    m = 3
    state = top_wedge((m,))
    for _ in range(m):
        state = apply_current(E, 0, state)
    assert apply_current(E, 0, state).is_zero()


def test_scope_must_match_shapes():
    with pytest.raises(ValueError):
        wedge_state((2,), [((V, 0),)])


def test_zero_factor_shapes_rejected():
    with pytest.raises(ValueError):
        top_wedge((0,))
