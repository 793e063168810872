"""Acceptance battery: one test per headline criterion, full scale, and
the cross-checks it shares with the CLI.

Each criterion case prints a single pass/fail line with the criterion's
summary, so the suite log doubles as the acceptance report.
"""

import json

import pytest

from schubert_fusion import acceptance, fusion, schubert, types, verlinde
from schubert_fusion.acceptance import CRITERIA
from schubert_fusion.cli import _build_parser, main


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


def _negated_leq_by_vectors(lo, hi):
    return not types.leq_by_vectors(lo, hi)


def _kac_walton_one_level_low(level, classical):
    # reflects at the walls of level - 1 and pads the vector to level + 1
    return verlinde.kac_walton(level - 1, classical) + (0,)


@pytest.mark.parametrize("name, wrong_route, argv, criterion", [
    ("character_recursive", lambda weights: {}, ("char", "2,3"),
     acceptance.criterion_4_exact_sequences),
    ("leq_by_vectors", _negated_leq_by_vectors, ("morphism", "1,1,1", "2,1"),
     acceptance.criterion_6_type_lattice),
    ("kac_walton", _kac_walton_one_level_low,
     ("verlinde-limit", "1,1"), acceptance.criterion_9_verlinde),
    ("kac_walton", _kac_walton_one_level_low,
     ("verlinde-fuse", "3", "2", "2"), acceptance.criterion_9_verlinde),
    ("grassmannian_section_dims", lambda bundle, steps: 0,
     ("stabilize", "1", "2", "1"), acceptance.criterion_10_stabilization),
], ids=["char", "morphism", "verlinde-limit", "verlinde-fuse", "stabilize"])
def test_a_broken_route_fails_both_front_ends(monkeypatch, capsys, name,
                                              wrong_route, argv, criterion):
    # the CLI and the battery run the same check, so a wrong second route
    # makes the CLI exit 1 and the criterion fail
    monkeypatch.setattr(acceptance, name, wrong_route)
    assert main(list(argv)) == 1
    report = json.loads(capsys.readouterr().out)
    assert not all(chk["pass"] for chk in report["checks"])
    assert not criterion(2).passed


def test_the_battery_runs_every_cli_check(monkeypatch):
    subcommands = next(a for a in _build_parser()._actions
                       if a.dest == "command").choices
    # one function per subcommand with a second route; selftest's reads the
    # battery's results, and these subcommands have no second route yet
    unchecked = {"isom", "degrees", "picard"}
    assert unchecked <= set(subcommands)
    names = {command.replace("-", "_") + "_checks"
             for command in set(subcommands) - unchecked}
    names = names - {"flag_check_checks", "selftest_checks"} | {"flag_checks"}
    assert names | {"selftest_checks"} == \
        {n for n in acceptance.__all__ if n.endswith("_checks")}
    called = set()

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(acceptance, name,
                            recorded(name, getattr(acceptance, name)))
    assert all(result.passed for result in acceptance.run_all(2))
    assert called == names


def test_limit_checks_read_the_reported_vector():
    # the reflected classical product of (1, 1) at level 2 is [0] + [2],
    # so a decomposition that drops its boundary coefficient fails
    decomp = verlinde.limit_multiplicities((1, 1))
    assert decomp.boundary_coefficient == 1
    checks = acceptance.verlinde_limit_checks(decomp)
    assert [chk["pass"] for chk in checks] == [True, True]
    wrong = acceptance.verlinde_limit_checks(
        decomp._replace(boundary_coefficient=0))
    assert [chk["pass"] for chk in wrong] == [False, True]


def test_bundle_split_checks_multiply_the_factors():
    # the verdict is fiber * base == total, decided here and not in the split
    total, fiber, base = map(types.poincare, map(types.Composition,
                                                 ((2, 1), (2,), (1,))))
    assert acceptance.bundle_split_checks(total, fiber, base)[0]["pass"]
    assert not acceptance.bundle_split_checks(total, base, base)[0]["pass"]


def test_oracle_over_the_limit_decides_by_peeling(monkeypatch):
    # over 512 dimensions the closed form meets the peeled total, and a
    # wrong count fails there; no module is built on that route
    def must_not_build(weights):
        pytest.fail(f"built the module on {weights} over the oracle limit")

    monkeypatch.setattr(acceptance, "build_module", must_not_build)
    # the sections of bundle (4, 4, 4, 4) and the degree 1 stratum of the
    # ring on (5, 5, 5, 5) both meet the module on (5, 5, 5, 5)
    cases = [(acceptance.sections_checks((4,) * 4, dim),
              acceptance.coordring_checks((5,) * 4, (1, dim)))
             for dim in (625, 626)]
    for good, bad in zip(*cases):
        assert [check["pass"] for check in good] == [True]
        assert [check["pass"] for check in bad] == [False]
        assert good[0]["detail"].endswith(", by peeling")


def test_flag_checks_refuse_a_negative_count():
    # it returned a passing group_invariance check on "0 elements"
    with pytest.raises(ValueError,
                       match="^count must be a nonnegative integer, got -3$"):
        comp = types.Composition((2, 1))
        acceptance.flag_checks(schubert.canonical_flag(comp), comp, -3)


def test_relations_checks_decide_the_lowest_degrees():
    # the report holds each power's lowest z-degree k; the verdict
    # k >= n (i - 1), or a vanished power, is decided here
    report = fusion.RelationReport(3, 3, (0, 3, 6))
    assert acceptance.relations_checks(report)[0]["pass"]
    assert not acceptance.relations_checks(
        report._replace(lowest=(0, 2, 6)))[0]["pass"]
    assert acceptance.relations_checks(
        fusion.RelationReport(2, 3, (0, 2, None)))[0]["pass"]
