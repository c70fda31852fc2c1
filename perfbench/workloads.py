"""The benchmark's workloads: what each pass hands to ``hyperverify.cli.main``.

Each workload is one command line of the public CLI.  The two ``run``
workloads draw their rational parameters from the seed; the grid shape and
the denominators stay fixed, so the seed moves the numerators only and the
cost of a pass barely depends on it.  Every drawn point avoids the
degenerate parameters of the terminating-series convention (``b`` an
integer, or ``2b + j`` a nonpositive integer), so every ``failed`` record
is the documented ``j = -5`` weight defect and nothing else.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

J_ALL = list(range(-5, 6))

# Denominators of the seeded parameters.  b needs an odd denominator >= 3
# (then 2b + j is never an integer); e needs denominator 3 with a numerator
# that is 1 mod 3, which keeps e - 2a, 1 + 2a + d - e and e - d away from
# the integers for every a and d of the sums-deep grid.
SERIES_A_DEN = 5
SERIES_B_DEN = 7
SUMS_B_DENS = (3, 5, 7)
SUMS_E_NUMERATORS = (4, 7, 10, 13)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict | None  # sweep config for ``run``, None for ``selftest``
    jobs: int

    @property
    def is_run(self) -> bool:
        return self.config is not None

    def command(self, config_path: str, out_path: str, jobs: int | None = None):
        """CLI arguments of one pass, at this workload's jobs by default."""
        jobs = self.jobs if jobs is None else jobs
        if not self.is_run:
            return ["selftest", "--jobs", str(jobs)]
        return ["run", "--config", config_path, "--out", out_path,
                "--jobs", str(jobs)]


def _draw(rng: random.Random, den: int, upper: int) -> Fraction:
    """A rational p/den in lowest terms with 0 < p < upper * den."""
    while True:
        p = rng.randrange(1, upper * den)
        if p % den:
            return Fraction(p, den)


def series_params(seed: int):
    rng = random.Random(f"series-deep:{seed}")
    return _draw(rng, SERIES_A_DEN, 2), _draw(rng, SERIES_B_DEN, 2)


def sums_params(seed: int):
    rng = random.Random(f"sums-deep:{seed}")
    b_set = [_draw(rng, den, 2) for den in SUMS_B_DENS]
    e = Fraction(rng.choice(SUMS_E_NUMERATORS), 3)
    return b_set, e


def make(name: str, seed: int) -> Workload:
    if name == "canonical":
        return Workload(name, None, 1)
    if name == "canonical-j2":
        return Workload(name, None, 2)
    if name == "series-deep":
        a, b = series_params(seed)
        config = {
            "checks": ["kummer", "transform"],
            "jSet": J_ALL,
            "aSet": [str(a)],
            "bSet": [str(b)],
            "seriesOrder": 48,
        }
        return Workload(name, config, 1)
    if name == "sums-deep":
        b_set, e = sums_params(seed)
        config = {
            "checks": ["theorem", "corollaries"],
            "jSet": J_ALL,
            "aSet": ["-12", "-24", "-40", "1/3", "3/4"],
            "bSet": [str(b) for b in b_set],
            "dSet": ["1/2", "5/2", "-24"],
            "eSet": [str(e)],
        }
        return Workload(name, config, 1)
    raise KeyError(name)


NAMES = ("canonical", "canonical-j2", "series-deep", "sums-deep")
