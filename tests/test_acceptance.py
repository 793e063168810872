"""Acceptance battery: one test per headline criterion, full scale.

Each case prints a single pass/fail line with the criterion's summary, so
the suite log doubles as the acceptance report.
"""

import pytest

from schubert_fusion.acceptance import CRITERIA


@pytest.mark.parametrize(
    "criterion", CRITERIA, ids=[fn.__name__ for fn in CRITERIA])
def test_criterion(criterion):
    result = criterion()
    line = (f"criterion {result.number:2d} "
            f"[{'PASS' if result.passed else 'FAIL'}] "
            f"{result.name}: {result.detail}")
    print(line)
    assert result.passed, line


@pytest.mark.parametrize("max_n", [0, -1])
@pytest.mark.parametrize(
    "criterion", CRITERIA, ids=[fn.__name__ for fn in CRITERIA])
def test_criterion_rejects_nonpositive_max_n(criterion, max_n):
    # 0 used to run untrimmed or on an empty corpus, and -1 on empty sweeps
    with pytest.raises(ValueError, match="max_n"):
        criterion(max_n)
