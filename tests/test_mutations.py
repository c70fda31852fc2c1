"""Every weight-table entry and every component a check reads can fail
a check: mutations of COEFF_TABLE and of the identities module.

Each case patches one table entry or one component and runs selftest's
six suites on one memo, as selftest does, then pins each suite's failure
count.  A case that moved no count would be a patch that reached no
check.
"""

import json
from pathlib import Path

import pytest

from hyperverify import cli, identities
from hyperverify.identities import COEFF_TABLE
from hyperverify.series import TruncatedSeries
from hyperverify.suites import ALL_SUITES

# As tabulated, each suite fails exactly its j = -5 slice (see
# test_acceptance), in suite order: kummer, transform, theorem-a,
# theorem-d, corollary, pipeline.
CLEAN = (0, 4, 48, 32, 0, 0)

FIVE_CHECK_CONFIG = Path(__file__).with_name("five_check_config.json")


def suite_failures(skip_j=None):
    """Each suite's failure count, the records at j = skip_j left out."""
    memo = {}
    return tuple(sum(r.status == "failed" and r.j != skip_j
                     for r in suite.run(memo))
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
    assert cli.run(str(FIVE_CHECK_CONFIG), str(out)) == 1
    capsys.readouterr()
    assert json.loads(out.read_bytes())["summary"] == {
        "passed": 9522 - 142, "failed": 539 + 142, "errored": 0,
        "skipped": 18883}


def doubled(fn):
    """fn with its value doubled: a series scaled by 2, a rational times 2."""
    def patched(*args, **kwargs):
        value = fn(*args, **kwargs)
        return (value.scale(2) if isinstance(value, TruncatedSeries)
                else 2 * value)
    return patched


def doubled_prefactor(fn):
    """_lhs_tail with the left side's Gamma prefactor doubled."""
    def patched(*args):
        prefactor, tail = fn(*args)
        return 2 * prefactor, tail
    return patched


def doubled_past_three(fn):
    """pochhammer_duplication doubled at n > 0 and d > 3 only: a pipeline
    moment (d)_p / (e)_p reads it at d and at e, so a patch of every
    call would cancel in most moments."""
    def patched(d, n):
        value = fn(d, n)
        return 2 * value if n > 0 and d > 3 else value
    return patched


# Failures off j = -5 per suite, in suite order, with one component's
# value doubled where the identities module reads it.  Each side of
# each check is reached: the even and odd Gamma prefactors of the
# weighted sums, the left side's prefactor (theorem and corollary
# through their left side, the pipeline through the side it replays),
# the duplication step of the pipeline's moments, the kummer check's
# own right side, and the transformation's left side (the transform
# check, and the polynomial the pipeline pushes through the moments).
COMPONENTS = {
    "even_prefactor": (doubled, (0, 40, 480, 320, 0, 0)),
    "odd_prefactor": (doubled, (0, 36, 432, 288, 0, 0)),
    "_lhs_tail": (doubled_prefactor, (0, 0, 480, 320, 336, 239)),
    "pochhammer_duplication": (doubled_past_three, (0, 0, 0, 0, 0, 192)),
    "kummer_rhs_series": (doubled, (20, 0, 0, 0, 0, 0)),
    "transform_lhs_recurrence": (doubled, (0, 40, 0, 0, 0, 239)),
}


@pytest.mark.parametrize("name", COMPONENTS)
def test_doubling_a_component_fails_the_checks_that_read_it(monkeypatch,
                                                            name):
    patch, counts = COMPONENTS[name]
    assert suite_failures(skip_j=-5) == (0,) * 6
    monkeypatch.setattr(identities, name, patch(getattr(identities, name)))
    assert suite_failures(skip_j=-5) == counts
