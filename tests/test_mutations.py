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
from hyperverify.hyper import HyperSpec
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


def second_scale_doubled(fn):
    """_Row.corollary_heads with the second series' scale doubled."""
    def patched(row):
        first, (sn, sd), second = fn(row)
        return first, (2 * sn, sd), second
    return patched


def d_over_e_doubled(fn):
    """_Column.tails with its d/e pair doubled."""
    def patched(column):
        first, second, (n, d) = fn(column)
        return first, second, (2 * n, d)
    return patched


def even_third_raised(fn):
    """_Row.part_heads with the even head's third upper parameter raised
    by 1."""
    def patched(row):
        even, odd = fn(row)
        nums = list(even.num_pairs)
        p, q = nums[2]
        nums[2] = p + q, q
        return HyperSpec(nums, even.den_pairs, even.arg_pair,
                         weight=even.weight,
                         power_offset=even.power_offset), odd
    return patched


# Failures off j = -5 per suite, in suite order, with one component's
# value changed where the identities module reads it: a module-level
# name, or a read_once attribute "Class.name", patched through its
# func.  Each side of each check is reached: the even and odd Gamma
# prefactors and the heads of the weighted sums, the left side's
# prefactor (theorem and corollary through their left side, the
# pipeline through the side it replays), the duplication step of the
# pipeline's moments, the moment tails' d/e, the corollary closed
# forms, both sides of the kummer check, and the transformation's left
# side (the transform check, and the polynomial the pipeline pushes
# through the moments).  Doubling a tail spec's weight would move no
# count: _terminating_pair reads only the head's weight.
COMPONENTS = {
    "even_prefactor": (doubled, (0, 40, 480, 320, 0, 0)),
    "odd_prefactor": (doubled, (0, 36, 432, 288, 0, 0)),
    "_lhs_tail": (doubled_prefactor, (0, 0, 480, 320, 336, 239)),
    "pochhammer_duplication": (doubled_past_three, (0, 0, 0, 0, 0, 192)),
    "kummer_rhs_series": (doubled, (20, 0, 0, 0, 0, 0)),
    "gen_transform_lhs_series": (doubled, (20, 0, 0, 0, 0, 0)),
    "transform_lhs_recurrence": (doubled, (0, 40, 0, 0, 0, 239)),
    "_Row.corollary_heads": (second_scale_doubled, (0, 0, 0, 0, 288, 0)),
    "_Column.tails": (d_over_e_doubled, (0, 0, 432, 288, 288, 0)),
    "_Row.part_heads": (even_third_raised, (0, 40, 480, 240, 0, 0)),
}


@pytest.mark.parametrize("name", COMPONENTS)
def test_doubling_a_component_fails_the_checks_that_read_it(monkeypatch,
                                                            name):
    patch, counts = COMPONENTS[name]
    assert suite_failures(skip_j=-5) == (0,) * 6
    owner, _, attr = name.rpartition(".")
    if owner:
        target = vars(getattr(identities, owner))[attr]
        monkeypatch.setattr(target, "func", patch(target.func))
    else:
        monkeypatch.setattr(identities, name, patch(getattr(identities, name)))
    assert suite_failures(skip_j=-5) == counts
