"""SpanBasis against a dense Gaussian-elimination oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_fusion.linalg import SpanBasis, _cross_scale


class _RrefOracle:
    """Reduced row-echelon SpanBasis: every new pivot is cleared from the
    older rows, so no row is supported on another row's pivot."""

    def __init__(self):
        self._rows = {}  # pivot index -> row dict

    @property
    def dimension(self):
        return len(self._rows)

    def pivots(self):
        return sorted(self._rows)

    def row_vectors(self):
        return [dict(self._rows[p]) for p in sorted(self._rows)]

    def reduce(self, vec):
        residual = dict(vec)
        for p in sorted(i for i in residual if i in self._rows):
            c = residual.pop(p)
            row = self._rows[p]
            c = _cross_scale(residual, c, row[p])
            for q, rc in row.items():
                if q != p:
                    nv = residual.get(q, 0) - c * rc
                    if nv:
                        residual[q] = nv
                    else:
                        residual.pop(q, None)
        return residual

    def insert_reduced(self, vec):
        residual = self.reduce(vec)
        if not residual:
            return None
        pivot = min(residual)
        content = math.gcd(*residual.values())
        if residual[pivot] < 0:
            content = -content
        row = {q: c // content for q, c in residual.items()}
        for other in self._rows.values():
            factor = other.pop(pivot, 0)
            if not factor:
                continue
            factor = _cross_scale(other, factor, row[pivot])
            for q, c in row.items():
                if q != pivot:
                    nv = other.get(q, 0) - factor * c
                    if nv:
                        other[q] = nv
                    else:
                        other.pop(q, None)
            content = math.gcd(*other.values())
            for q in other:
                other[q] //= content
        self._rows[pivot] = row
        return dict(row)


def dense_rank(rows, width):
    """Textbook elimination over Fraction, independent of the sparse code."""
    matrix = [[Fraction(row.get(j, 0)) for j in range(width)] for row in rows]
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [x * inv for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def assert_integer_echelon(basis):
    """Stored rows are primitive int vectors with positive, distinct pivots."""
    pivots = basis.pivots()
    for pivot, row in zip(pivots, basis.row_vectors()):
        assert all(type(c) is int and c for c in row.values())
        assert min(row) == pivot and row[pivot] > 0
        assert math.gcd(*row.values()) == 1


def test_unknown_module_attribute_is_an_attribute_error():
    from schubert_fusion import linalg
    with pytest.raises(AttributeError, match="no_such_name"):
        linalg.no_such_name


def test_empty_basis():
    basis = SpanBasis()
    assert basis.dimension == 0
    assert basis.pivots() == []
    assert basis.contains({})


def test_unit_vectors():
    basis = SpanBasis()
    assert basis.insert({1: 1})
    assert basis.insert({2: 1})
    assert basis.dimension == 2
    assert not basis.insert({1: 3, 2: -5})


def test_insert_idempotent():
    basis = SpanBasis()
    vec = {0: 2, 3: -1}
    assert basis.insert(vec)
    assert not basis.insert(vec)
    assert basis.dimension == 1


def test_reduce_clears_pivots():
    basis = SpanBasis()
    basis.insert({0: 1, 1: 2})
    basis.insert({1: 1, 2: 1})
    residual = basis.reduce({0: 7, 1: 7, 2: 7})
    assert all(idx not in basis.pivots() for idx in residual)


def test_insert_reduced_returns_stored_row():
    basis = SpanBasis()
    basis.insert({0: 1, 1: 1})
    row = basis.insert_reduced({0: 2, 1: 2, 2: 6})
    assert row is not None
    assert row[min(row)] > 0 and math.gcd(*row.values()) == 1  # primitive
    assert basis.insert_reduced(dict(row)) is None


def test_reduce_clears_fill_in_pivots():
    # subtracting the row of pivot 0 brings in index 1, itself a pivot
    basis = SpanBasis()
    basis.insert({0: 1, 1: 1})
    basis.insert({1: 1})
    assert basis.row_vectors() == [{0: 1, 1: 1}, {1: 1}]
    assert basis.contains({0: 1})
    assert basis.reduce({0: 1}) == {}


int_row_lists = st.lists(
    st.dictionaries(st.integers(min_value=0, max_value=7),
                    st.integers(min_value=-5, max_value=5).filter(bool),
                    max_size=6),
    max_size=12)


@settings(max_examples=150, deadline=None)
@given(int_row_lists, st.lists(st.integers(min_value=-5, max_value=5),
                               min_size=8, max_size=8))
def test_insert_reduced_matches_rref_oracle(rows, probe):
    basis, oracle = SpanBasis(), _RrefOracle()
    for vec in rows:
        assert basis.insert_reduced(dict(vec)) == oracle.insert_reduced(dict(vec))
        assert basis.pivots() == oracle.pivots()
        assert basis.dimension == oracle.dimension
    pivots = oracle.pivots()
    for pivot, row in zip(pivots, oracle.row_vectors()):
        assert not [p for p in pivots if p in row and p != pivot]
    vec = {j: x for j, x in enumerate(probe) if x}
    assert basis.contains(vec) == (not oracle.reduce(vec))


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=5, max_size=5),
    min_size=0, max_size=12))
def test_dimension_matches_dense_rank(rows):
    sparse_rows = [
        {j: x for j, x in enumerate(row) if x} for row in rows
    ]
    basis = SpanBasis()
    grew = 0
    for vec in sparse_rows:
        if basis.insert(dict(vec)):
            grew += 1
    assert basis.dimension == grew == dense_rank(sparse_rows, 5)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    min_size=1, max_size=8),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
def test_reduce_residual_is_outside_span(rows, probe):
    basis = SpanBasis()
    for row in rows:
        basis.insert({j: x for j, x in enumerate(row) if x})
    vec = {j: x for j, x in enumerate(probe) if x}
    residual = basis.reduce(vec)
    if residual:
        assert not basis.contains(vec)
        assert min(residual) not in basis.pivots()
    else:
        assert basis.contains(vec)


def test_random_full_rank():
    import random
    rng = random.Random(5)
    for n in (3, 5, 8):
        while True:
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            if dense_rank([{j: x for j, x in enumerate(r) if x} for r in rows], n) == n:
                break
        basis = SpanBasis()
        for row in rows:
            basis.insert({j: x for j, x in enumerate(row) if x})
        assert basis.dimension == n
        assert basis.pivots() == list(range(n))


def test_mixed_index_kinds_order():
    basis = SpanBasis()
    basis.insert({(1, 0): 1, (0, 1): 1})
    assert basis.pivots() == [(0, 1)]


def check_inserts(rows, width):
    sparse_rows = [{j: x for j, x in enumerate(row) if x} for row in rows]
    basis = SpanBasis()
    for vec in sparse_rows:
        basis.insert(dict(vec))
        assert_integer_echelon(basis)
        assert basis.contains(vec)
    assert basis.dimension == dense_rank(sparse_rows, width)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.lists(st.sampled_from([-3, -2, 0, 2, 3]), min_size=4, max_size=4),
    min_size=0, max_size=8))
def test_non_unit_pivots_match_dense_rank(rows):
    check_inserts(rows, 4)


def test_non_unit_pivot_elimination():
    basis = SpanBasis()
    assert basis.insert_reduced({0: 2, 1: 3}) == {0: 2, 1: 3}
    # the residual is a nonzero multiple of {1: -3/2}
    residual = basis.reduce({0: 1})
    assert list(residual) == [1] and type(residual[1]) is int
    assert basis.insert_reduced({0: 3, 1: 1}) == {1: 1}
    assert_integer_echelon(basis)
    assert basis.row_vectors() == [{0: 2, 1: 3}, {1: 1}]
    assert basis.insert_reduced({0: -9, 2: 2}) == {2: 1}
    assert_integer_echelon(basis)


def test_copy_is_independent_both_ways():
    basis = SpanBasis()
    basis.insert({0: 2, 3: 1})
    basis.insert({1: 1, 2: -1})
    twin = basis.copy()
    assert twin.row_vectors() == basis.row_vectors()
    assert twin.pivots() == basis.pivots() == [0, 1]
    rows = basis.row_vectors()
    assert twin.insert({2: 1})
    assert basis.row_vectors() == rows and basis.dimension == 2
    assert not basis.contains({2: 1}) and twin.contains({2: 1})
    twin_rows = twin.row_vectors()
    assert basis.insert({3: 5, 4: 1})
    assert twin.row_vectors() == twin_rows and twin.dimension == 3
    assert not twin.contains({3: 5, 4: 1}) and basis.contains({3: 5, 4: 1})
    assert basis.copy().row_vectors() == basis.row_vectors()
    assert SpanBasis().copy().dimension == 0


def _combination(rows, coeffs):
    vec = {}
    for row, c in zip(rows, coeffs):
        for q, x in row.items():
            nv = vec.get(q, 0) + c * x
            if nv:
                vec[q] = nv
            else:
                vec.pop(q, None)
    return vec


def _assert_contains_matches_reduce(basis, vec):
    before = dict(vec)
    assert basis.contains(vec) == (not basis.reduce(vec))
    assert vec == before  # neither call changes its argument


def test_contains_stops_at_a_non_pivot_below_later_pivots():
    basis = SpanBasis()
    for vec in ({0: 1, 1: 2}, {3: 1, 4: 1}, {5: 2, 6: -1}):
        basis.insert(vec)
    # index 2 is no pivot and lies below the pivots 3 and 5
    for vec in ({2: 1, 3: 1, 5: 1}, {0: 1, 1: 2, 2: -4, 5: 2, 6: -1},
                {1: 3, 3: 1, 4: 1}):
        assert not basis.contains(vec)
        _assert_contains_matches_reduce(basis, vec)


def test_contains_when_the_first_non_pivot_cancels():
    # index 1 is the smallest non-pivot of vec, and clearing pivot 0 cancels
    # it: a test that exits on the first non-pivot it saw would answer False
    basis = SpanBasis()
    basis.insert({0: 1, 1: 1})
    basis.insert({2: 1})
    assert basis.contains({0: 1, 1: 1, 2: 1})
    assert not basis.contains({0: 1, 1: 1, 2: 1, 3: 1})
    # the same with a non-unit pivot, so the residual is cross-scaled first
    basis = SpanBasis()
    basis.insert({0: 2, 1: 3, 4: 1})
    basis.insert({3: 1})
    assert basis.contains({0: 4, 1: 6, 3: -7, 4: 2})
    assert not basis.contains({0: 4, 1: 5, 3: -7, 4: 2})
    for vec in ({0: 4, 1: 6, 3: -7, 4: 2}, {0: 1, 1: 1}, {1: 3, 4: 1}):
        _assert_contains_matches_reduce(basis, vec)


@settings(max_examples=150, deadline=None)
@given(int_row_lists,
       st.lists(st.integers(min_value=-3, max_value=3), max_size=12),
       st.integers(min_value=0, max_value=7),
       st.integers(min_value=-2, max_value=2))
def test_contains_matches_reduce_on_combinations(rows, coeffs, extra, value):
    # combinations of the stored rows lie in the span, and every non-pivot
    # entry in their support cancels at some step of the reduction; adding
    # one more entry, often at a non-pivot below later pivots, may leave it
    basis = SpanBasis()
    for vec in rows:
        basis.insert(dict(vec))
    member = _combination(basis.row_vectors(), coeffs)
    assert basis.contains(member)
    _assert_contains_matches_reduce(basis, member)
    probe = dict(member)
    if value:
        probe[extra] = probe.get(extra, 0) + value
        if not probe[extra]:
            del probe[extra]
    _assert_contains_matches_reduce(basis, probe)


def test_contains_matches_reduce_on_long_vectors():
    import random
    rng = random.Random(13)
    width = 400
    for _ in range(6):
        basis = SpanBasis()
        for _ in range(60):
            basis.insert({rng.randrange(width): rng.randint(-4, 4) or 1
                          for _ in range(rng.randint(1, 30))})
        rows = basis.row_vectors()
        pivots = set(basis.pivots())
        for _ in range(10):
            member = _combination(rows, [rng.randint(-3, 3) for _ in rows])
            assert len(member) >= 200
            assert basis.contains(member)
            _assert_contains_matches_reduce(basis, member)
            m = rng.choice([i for i in range(width) if i not in pivots])
            probe = dict(member)
            probe[m] = probe.get(m, 0) + 1 or 1
            assert not basis.contains(probe)
            _assert_contains_matches_reduce(basis, probe)
            noise = {i: rng.randint(1, 5) for i in rng.sample(range(width), 250)}
            _assert_contains_matches_reduce(basis, noise)
