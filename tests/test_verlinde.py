"""Level-k fusion ring and the large-weight limit bookkeeping."""

import math
import random

import pytest

from schubert_fusion.verlinde import (
    FusionRingElement,
    character_stabilization,
    classical_limit_check,
    fuse,
    grassmannian_section_dims,
    grassmannian_weights,
    limit_multiplicities,
    product_chain,
)


def elt(k, *coeffs):
    return FusionRingElement(k, tuple(coeffs))


def test_fuse_examples():
    for k in range(1, 5):
        for b in range(k + 1):
            assert fuse(k, 0, b) == FusionRingElement.basis(k, b)
    assert fuse(2, 1, 1) == elt(2, 1, 0, 1)
    assert fuse(3, 2, 2) == elt(3, 1, 0, 1, 0)


def test_fuse_validates_weights():
    with pytest.raises(ValueError):
        fuse(2, 3, 0)
    with pytest.raises(ValueError):
        fuse(-1, 0, 0)


def test_top_weight_is_involution():
    for k in range(1, 7):
        assert fuse(k, k, k) == FusionRingElement.unit(k)


def test_product_chain_examples():
    assert product_chain(3, [2, 2]) == elt(3, 1, 0, 1, 0)
    assert product_chain(2, [1, 1, 1]) == elt(2, 0, 2, 0)
    assert product_chain(4, [3]) == FusionRingElement.basis(4, 3)
    assert product_chain(4, []) == FusionRingElement.unit(4)


def test_product_chain_permutation_invariant():
    rng = random.Random(2)
    for _ in range(30):
        k = rng.randint(1, 5)
        weights = [rng.randint(0, k) for _ in range(rng.randint(1, 5))]
        shuffled = weights[:]
        rng.shuffle(shuffled)
        assert product_chain(k, weights) == product_chain(k, shuffled)


def test_ring_axioms_small_levels():
    for k in range(1, 5):
        basis = [FusionRingElement.basis(k, a) for a in range(k + 1)]
        for a in range(k + 1):
            for b in range(k + 1):
                assert fuse(k, a, b) == fuse(k, b, a)
                for c in range(k + 1):
                    assert (fuse(k, a, b) * basis[c]) == (basis[a] * fuse(k, b, c))


def test_limit_multiplicities_single():
    decomp = limit_multiplicities((3,))
    assert decomp.level == 4
    assert decomp.multiplicities == (0, 0, 0, 1)
    assert not decomp.boundary_nonzero


def test_limit_multiplicities_2_2():
    decomp = limit_multiplicities((2, 2))
    assert decomp.level == 3
    assert decomp.multiplicities == (1, 0, 1)
    assert decomp.boundary_coefficient == 0


def test_limit_multiplicities_boundary_flag():
    # [1].[1] at level 2 spills into the boundary class [2]
    decomp = limit_multiplicities((1, 1))
    assert decomp.level == 2
    assert decomp.multiplicities == (1, 0)
    assert decomp.boundary_coefficient == 1
    assert decomp.boundary_nonzero


def test_limit_rejects_bad_bundles():
    with pytest.raises(ValueError):
        limit_multiplicities((2, 1))
    with pytest.raises(ValueError):
        limit_multiplicities((-1, 2))


def test_classical_limit_examples():
    assert classical_limit_check((1, 1))
    assert classical_limit_check((2, 2))
    assert classical_limit_check((1, 2, 2))


def test_classical_limit_sweep():
    bundles = [(0,), (1,), (0, 3), (1, 1, 1), (1, 2, 3), (2, 2, 2)]
    for bundle in bundles:
        assert classical_limit_check(bundle)


def test_grassmannian_weights_and_dims():
    assert grassmannian_weights((1,), 1) == (2, 2, 2)
    assert grassmannian_weights((1, 2), 0) == (2, 3)
    assert grassmannian_section_dims((1,), 1) == 8
    assert grassmannian_section_dims((1, 2), 0) == 6
    for bundle in ((1,), (1, 2), (0, 2, 2)):
        assert grassmannian_section_dims(bundle, 0) == \
            math.prod(b + 1 for b in bundle)


def test_stabilization_report():
    report = character_stabilization((1,), 3, 2)
    assert report.dims == (2, 8, 32, 128)
    assert report.dims_match
    assert report.stable_from == 2
    for table in report.tables:
        # the top stratum carries the cyclic top vector with multiplicity 1
        assert table[0][max(table[0])] == 1


def test_stabilization_needs_two_tables():
    with pytest.raises(ValueError):
        character_stabilization((1,), 0, 2)


def test_stabilization_two_entry_bundles():
    report = character_stabilization((1, 1), 3, 2)
    assert report.stable_from == 1
    report = character_stabilization((1, 2), 3, 2)
    assert report.stable_from == 2
    assert report.dims == (6, 54, 486, 4374)
    assert report.tables[2] == report.tables[3]


@pytest.mark.quarantined_numerics
def test_quantum_dimension_homomorphism():
    """The one float check: qdim turns fusion into multiplication."""
    for k in range(1, 6):
        def qdim(c):
            return math.sin((c + 1) * math.pi / (k + 2)) / \
                math.sin(math.pi / (k + 2))
        for a in range(k + 1):
            for b in range(k + 1):
                total = sum(m * qdim(c)
                            for c, m in enumerate(fuse(k, a, b).coeffs))
                assert abs(total - qdim(a) * qdim(b)) < 1e-9
