"""Canonical verification grids: what `hyperverify selftest` runs.

Each suite is one grid_sweep invocation.  The grids double as the
acceptance battery of the test suite, so they live here once.
"""

from collections import namedtuple
from fractions import Fraction

from .identities import COROLLARY_J_LIMIT, J_LIMIT, grid_sweep

F = Fraction

J_FULL = tuple(range(-J_LIMIT, J_LIMIT + 1))
J_COROLLARY = tuple(range(-COROLLARY_J_LIMIT, COROLLARY_J_LIMIT + 1))


class Suite(namedtuple("Suite", "name checks j_set a_set b_set d_set e_set "
                       "series_order", defaults=((),) * 5 + (24,))):
    __slots__ = ()

    def run(self, memo=None):
        """The suite's records; `memo` is a sweep memo dict that other
        suites may share and have filled, or None for a fresh one."""
        return grid_sweep(
            self.j_set, self.a_set, self.b_set, self.d_set, self.e_set,
            self.checks, series_order=self.series_order, memo=memo,
        )


KUMMER_SUITE = Suite(
    name="kummer",
    checks=("kummer",),
    a_set=(F(-3), F(-1), F(1, 4), F(1, 3), F(2, 5)),
    b_set=(F(1, 3), F(2, 5), F(5, 4), F(3)),
)

TRANSFORM_SUITE = Suite(
    name="transform",
    checks=("transform",),
    j_set=J_FULL,
    a_set=(F(-2), F(1, 4)),
    b_set=(F(1, 3), F(2, 7)),
)

THEOREM_A_SUITE = Suite(
    name="theorem-a",
    checks=("theorem",),
    j_set=J_FULL,
    a_set=(F(-1), F(-2), F(-3), F(-4)),
    b_set=(F(1, 3), F(2, 5)),
    d_set=(F(1, 2), F(1), F(5, 2)),
    e_set=(F(4), F(13, 3)),
)

THEOREM_D_SUITE = Suite(
    name="theorem-d",
    checks=("theorem",),
    j_set=J_FULL,
    a_set=(F(1, 3), F(3, 4)),
    b_set=(F(1, 3), F(2, 5)),
    d_set=(F(-1), F(-2), F(-3), F(-4)),
    e_set=(F(4), F(13, 3)),
)

COROLLARY_SUITE = Suite(
    name="corollary",
    checks=("corollary",),
    j_set=J_COROLLARY,
    a_set=THEOREM_A_SUITE.a_set,
    b_set=THEOREM_A_SUITE.b_set,
    d_set=THEOREM_A_SUITE.d_set,
    e_set=THEOREM_A_SUITE.e_set,
)

PIPELINE_SUITE = Suite(
    name="pipeline",
    checks=("pipeline",),
    j_set=J_FULL,
    a_set=(F(-1), F(-2), F(-3)),
    b_set=(F(1, 3), F(2, 5)),
    d_set=(F(1, 2), F(1)),
    e_set=(F(3), F(7, 2)),
)

ALL_SUITES = (
    KUMMER_SUITE,
    TRANSFORM_SUITE,
    THEOREM_A_SUITE,
    THEOREM_D_SUITE,
    COROLLARY_SUITE,
    PIPELINE_SUITE,
)
