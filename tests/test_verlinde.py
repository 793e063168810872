"""Level-k fusion ring and the large-weight limit bookkeeping."""

import math
import random
from itertools import combinations_with_replacement

import pytest

from schubert_fusion import acceptance, fusion, types, verlinde
from schubert_fusion.fusion import DimensionCapError, character_recursive
from schubert_fusion.verlinde import (
    FusionRingElement,
    StabilizationReport,
    character_stabilization,
    fuse,
    grassmannian_section_dims,
    grassmannian_weights,
    limit_multiplicities,
    product_chain,
)


def elt(k, *coeffs):
    return FusionRingElement(k, tuple(coeffs))


def basis(k, a):
    # the class [a] of the level-k ring
    return elt(k, *(int(c == a) for c in range(k + 1)))


def test_fuse_examples():
    for k in range(1, 5):
        for b in range(k + 1):
            assert fuse(k, 0, b) == basis(k, b)
    assert fuse(2, 1, 1) == elt(2, 1, 0, 1)
    assert fuse(3, 2, 2) == elt(3, 1, 0, 1, 0)


def test_fuse_validates_weights():
    with pytest.raises(ValueError):
        fuse(2, 3, 0)
    with pytest.raises(ValueError):
        fuse(-1, 0, 0)


def test_level_past_the_dimension_cap(monkeypatch):
    # a level-k element holds k + 1 coefficients, so every path that builds
    # one checks k + 1 against types.DEFAULT_DIMENSION_CAP, read at call time
    monkeypatch.setattr(types, "DEFAULT_DIMENSION_CAP", 6)
    assert fuse(5, 2, 3) == elt(5, 0, 1, 0, 1, 0, 1)
    assert limit_multiplicities((0, 4)).level == 5
    assert product_chain(5, (2, 3)).classical_dimension() == 12
    over_cap = [
        lambda: fuse(6, 0, 0),
        lambda: elt(6, *[0] * 7),
        lambda: product_chain(6, []),
        lambda: product_chain(6, [1, 2]),
        lambda: limit_multiplicities((0, 5)),  # level 6
        lambda: product_chain(6, (3, 3)),  # the classical fold of (3, 3)
    ]
    for call in over_cap:
        with pytest.raises(DimensionCapError, match="cap of 6"):
            call()
    # one line names the level, the cap and the class count
    with pytest.raises(DimensionCapError,
                       match="^level 6 would exceed the cap of 6: its ring "
                             "has 7 classes$"):
        fuse(6, 0, 0)


def test_peeling_reads_the_default_cap_at_call_time(monkeypatch):
    # with no cap given, the peeling routes read the dimension cap when
    # called, as the span builder does, not when the module was loaded
    monkeypatch.setattr(types, "DEFAULT_DIMENSION_CAP", 4)
    with pytest.raises(DimensionCapError, match="^character of \\(2, 3\\) "
                                                "would exceed the cap of 4$"):
        character_recursive((2, 3))
    with pytest.raises(DimensionCapError, match="cap of 4"):
        character_stabilization((1,), 2, 1)  # dims 2, 8, 32
    # a cap of the caller's own still wins
    assert sum(character_recursive((2, 3), 6).values()) == 6
    assert character_stabilization((1,), 2, 1, 32).dims == (2, 8, 32)


def test_folds_are_charged_their_updates(monkeypatch):
    # a fold step is charged the running product's support times the w + 1
    # classes one [w] reaches, and the total is held to the cap at call time
    monkeypatch.setattr(types, "DEFAULT_DIMENSION_CAP", 10)
    # [2].[3] charges 1 * 4 and has support {1, 3, 5}; times [1], 3 * 2 more
    assert product_chain(5, [2, 3, 1]) == elt(5, 1, 0, 2, 0, 2, 0)
    over_cap = [
        lambda: product_chain(5, [2, 3, 2]),  # 4 + 3 * 3
        # the classical fold of (1,) * 5: 2 + 4 + 4 + 6 at level 5
        lambda: product_chain(5, (1,) * 5),
        lambda: limit_multiplicities((0,) * 12),  # eleven steps of 1
    ]
    for call in over_cap:
        with pytest.raises(DimensionCapError,
                           match="exceed the cap of 10 coefficient updates"):
            call()
    monkeypatch.setattr(types, "DEFAULT_DIMENSION_CAP", 9)
    with pytest.raises(DimensionCapError):
        product_chain(5, [2, 3, 1])


def test_top_weight_is_involution():
    for k in range(1, 7):
        assert fuse(k, k, k) == basis(k, 0)


def test_product_chain_examples():
    assert product_chain(3, [2, 2]) == elt(3, 1, 0, 1, 0)
    assert product_chain(2, [1, 1, 1]) == elt(2, 0, 2, 0)
    assert product_chain(4, [3]) == basis(4, 3)
    assert product_chain(4, []) == basis(4, 0)


def test_product_chain_permutation_invariant():
    rng = random.Random(2)
    for _ in range(30):
        k = rng.randint(1, 5)
        weights = [rng.randint(0, k) for _ in range(rng.randint(1, 5))]
        shuffled = weights[:]
        rng.shuffle(shuffled)
        assert product_chain(k, weights) == product_chain(k, shuffled)


def _clebsch_gordan(weights):
    # the untruncated sl2 product of [w] over `weights`, as the reference
    out = {0: 1}
    for w in weights:
        step = {}
        for a, m in out.items():
            for c in range(abs(a - w), a + w + 1, 2):
                step[c] = step.get(c, 0) + m
        out = step
    return out


def test_kac_walton_equals_the_fold():
    # the reflected classical product is the level-k fold, for every
    # bundle of 1..4 classes at levels 0..6
    for k in range(7):
        for length in range(1, 5):
            for bundle in combinations_with_replacement(range(k + 1), length):
                assert verlinde.kac_walton(k, _clebsch_gordan(bundle)) == \
                    product_chain(k, bundle).coeffs


def test_kac_walton_returns_signed_coefficients():
    # [3] at level 1 reflects to -[1], and [2] lies on the wall; a wrong
    # input's negative entry is returned for a check to compare, not refused
    assert verlinde.kac_walton(1, {3: 1, 2: 5}) == (0, -1)
    assert verlinde.kac_walton(2, {0: 1, 2: 1, 4: 1}) == (1, 0, 0)


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


def _classical_limit_holds(bundle):
    checks = acceptance.verlinde_limit_checks(limit_multiplicities(bundle))
    return {chk["name"]: chk["pass"] for chk in checks}["classical_limit"]


def test_classical_limit_examples():
    assert _classical_limit_holds((1, 1))
    assert _classical_limit_holds((2, 2))
    assert _classical_limit_holds((1, 2, 2))


def test_classical_limit_sweep():
    bundles = [(0,), (1,), (0, 3), (1, 1, 1), (1, 2, 3), (2, 2, 2)]
    for bundle in bundles:
        assert _classical_limit_holds(bundle)


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
    assert all(chk["pass"] for chk in acceptance.stabilize_checks(report))
    assert report.stable_from == 2
    for table in report.tables:
        # the top stratum carries the cyclic top vector with multiplicity 1
        assert table[0][max(table[0])] == 1


def test_stabilization_tables_are_read_only():
    report = character_stabilization((1,), 2, 1)
    assert report.tables[0][0] == {-1: 1, 1: 1}
    with pytest.raises(TypeError):
        report.tables[0][0][1] = 99
    with pytest.raises(TypeError):
        report.tables[0][0] = {}
    assert report.tables[0][0] == {-1: 1, 1: 1}
    # _replace goes through __new__ and freezes new tables too
    replaced = report._replace(tables=({0: {1: 2}},))
    with pytest.raises(TypeError):
        replaced.tables[0][0][1] = 99
    # like FusionModule, a report is not hashable
    with pytest.raises(TypeError):
        hash(report)


def test_stabilization_depth_past_every_top_energy():
    # the chain (2,), (2, 2, 2), (2,) * 5, (2,) * 7 tops out at energy 12,
    # so depth 12 reads whole characters and any deeper depth the same; a
    # depth of 10**11 sized a mask of that many rows and ended in a
    # MemoryError
    whole = character_stabilization((1,), 3, 12)
    deep = character_stabilization((1,), 3, 10 ** 11)
    assert deep.tables == whole.tables and deep.deg_max == 10 ** 11
    assert [sum(sum(row.values()) for row in table.values())
            for table in whole.tables] == list(whole.dims)
    assert whole.stable_from is None


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


def _stabilization_oracle(bundle, i_max, deg_max, chars):
    # The step-by-step loop that character_stabilization replaced, kept as
    # the reference: chars[i] is the full character of step i from its own
    # character_recursive call, filtered here to the top deg_max + 1
    # energies.
    tables, dims = [], []
    for char in chars[:i_max + 1]:
        top_energy = max(t for _, t in char)
        table = {}
        for (w, t), mult in char.items():
            d = top_energy - t
            if d <= deg_max:
                stratum = table.setdefault(d, {})
                stratum[w] = stratum.get(w, 0) + mult
        tables.append(table)
        dims.append(sum(char.values()))
    stable_from = None
    for i in range(i_max, 0, -1):
        if tables[i] != tables[i - 1]:
            break
        stable_from = i - 1
    return StabilizationReport(bundle, deg_max, tuple(tables), tuple(dims),
                               stable_from)


@pytest.mark.parametrize("top", range(5))
def test_stabilization_matches_step_by_step_oracle(top):
    cap = 10 ** 40
    for length in (1, 2, 3):
        for head in combinations_with_replacement(range(top + 1), length - 1):
            bundle = head + (top,)
            chars = [character_recursive(grassmannian_weights(bundle, i), cap)
                     for i in range(7)]
            for i_max in (1, 3, 6):
                for deg_max in (0, 1, 3):
                    report = character_stabilization(bundle, i_max, deg_max,
                                                     cap)
                    expected = _stabilization_oracle(bundle, i_max, deg_max,
                                                     chars)
                    assert report.tables == expected.tables
                    assert report.dims == expected.dims
                    assert report.stable_from == expected.stable_from
                    # the same insertion order: d descending, h-weight
                    # ascending
                    assert repr(report) == repr(expected)


_LONG_CHAIN_CHILD = """\
from schubert_fusion import acceptance
from schubert_fusion.verlinde import character_stabilization
report = character_stabilization((1,), 60, 3, cap=10 ** 40)
print(report.stable_from,
      all(c["pass"] for c in acceptance.stabilize_checks(report)))
"""


def test_long_chain_packs_only_its_top_rows(run_child):
    # packing every row of every step took 10-13 s at a 1.2 GB peak;
    # packing the top four energy rows of each takes a fraction of a second
    child = run_child(_LONG_CHAIN_CHILD)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["3", "True"]
    assert child.seconds < 10
    assert child.rss_kib < 200 * 1024


def test_stabilization_cap_names_the_first_step_over_it(monkeypatch):
    # 12 * 9**3 = 8748 fits under the cap and 12 * 9**4 does not
    first = grassmannian_weights((1, 1, 2), 4)

    def no_peeling(*args):
        raise AssertionError("peeled before the cap check")

    def recording_weights(bundle, steps):
        built.append(steps)
        return grassmannian_weights(bundle, steps)

    built = []
    monkeypatch.setattr(fusion, "_peel_packed", no_peeling)
    monkeypatch.setattr(verlinde, "grassmannian_weights", recording_weights)
    with pytest.raises(DimensionCapError) as info:
        character_stabilization((1, 1, 2), 6, 3, cap=10 ** 4)
    assert str(info.value) == \
        f"character of {first} would exceed the cap of 10000"
    # the steps after the first one over the cap are never built
    assert built == [0, 1, 2, 3, 4]
    # the control: under a cap every step passes, the chain reaches the
    # peeling, and the stub stops it there
    built.clear()
    with pytest.raises(AssertionError, match="peeled before the cap check"):
        character_stabilization((1, 1, 2), 6, 3, cap=10 ** 9)
    assert built == list(range(7))


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
