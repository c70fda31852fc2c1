"""Every weight-table entry can fail a check: mutations of COEFF_TABLE.

Each case patches one table entry and runs selftest's six suites on one
memo, as selftest does, then pins each suite's failure count.  A case
that moved no count would be a patch that reached no check.
"""

import json
from pathlib import Path

import pytest

from hyperverify import cli
from hyperverify.identities import COEFF_TABLE
from hyperverify.suites import ALL_SUITES

# As tabulated, each suite fails exactly its j = -5 slice (see
# test_acceptance), in suite order: kummer, transform, theorem-a,
# theorem-d, corollary, pipeline.
CLEAN = (0, 4, 48, 32, 0, 0)

FIVE_CHECK_CONFIG = Path(__file__).with_name("five_check_config.json")


def suite_failures():
    memo = {}
    return tuple(sum(r.status == "failed" for r in suite.run(memo))
                 for suite in ALL_SUITES)


def add_to_entry(monkeypatch, j, part, extra):
    """Patch entry `part` (0 for A_j, 1 for B_j) to add extra(b, n)."""
    fns = list(COEFF_TABLE[j])
    fns[part] = lambda b, n, fn=fns[part]: fn(b, n) + extra(b, n)
    monkeypatch.setitem(COEFF_TABLE, j, tuple(fns))


# Adding n to an entry raises the transform and theorem counts by the
# same amounts at every shift; the corollary closed forms and the
# pipeline read no weight.
PLUS_N = {0: (0, 4, 48, 24, 0, 0), 1: (0, 4, 36, 16, 0, 0)}


@pytest.mark.parametrize("part", (0, 1))
@pytest.mark.parametrize("j", sorted(COEFF_TABLE))
def test_adding_n_to_an_entry_raises_the_failure_counts(monkeypatch, j,
                                                        part):
    base = CLEAN
    if j == -5:
        # as tabulated, every j = -5 record fails already, so no count can
        # rise there: the mutation goes on the +12 reading of B_{-5},
        # under which every record passes
        add_to_entry(monkeypatch, -5, 1, lambda b, n: 12)
        base = (0,) * 6
        assert suite_failures() == base
    add_to_entry(monkeypatch, j, part, lambda b, n: n)
    assert suite_failures() == tuple(map(sum, zip(base, PLUS_N[part])))


def test_a_blind_spot_of_the_selftest_grid(monkeypatch, tmp_path, capsys):
    # (3b - 1)(5b - 2)(7b - 2) vanishes at every b the suites use (1/3,
    # 2/5 and 2/7), so added to B_1 it leaves selftest at its 84
    # failures.  The five-check grid has other b and fails 142 more
    # records than its clean 539.
    add_to_entry(monkeypatch, 1, 1,
                 lambda b, n: (3 * b - 1) * (5 * b - 2) * (7 * b - 2))
    assert suite_failures() == CLEAN
    out = tmp_path / "report.json"
    assert cli.run(str(FIVE_CHECK_CONFIG), str(out), jobs=1) == 1
    capsys.readouterr()
    assert json.loads(out.read_bytes())["summary"] == {
        "passed": 9522 - 142, "failed": 539 + 142, "errored": 0,
        "skipped": 18883}
