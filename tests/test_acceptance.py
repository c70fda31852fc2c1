"""Acceptance battery: one test per criterion, zero-tolerance comparisons.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; each test also prints an `ACCEPTANCE Cnn` line.

The j = -5 weight finding is pinned, not failed on: the tabulated odd
weight B_{-5} is inconsistent with the transformation's left side by a
constant +12 (see TestGenTransform.test_audit_finding_shift_minus_five).
The table ships exactly as tabulated, so criteria 2, 3, 4 and 10a check
the finding in both directions: as tabulated, the records that fail are
exactly the j = -5 slice (84 in a clean-build selftest, which exits 1);
under the +12 reading of B_{-5} the same slice passes and the selftest
exits 0.  A silent repair of the row, or a fault in any other row, makes
these tests fail.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from hyperverify import IdentityCase, cli, theorem_lhs, theorem_rhs
from hyperverify.exact import (
    gamma_ratio,
    pochhammer,
    pochhammer_duplication,
)
from hyperverify.identities import (
    COEFF_TABLE,
    beta_moment,
    gen_transform_lhs_series,
    grid_sweep,
)
from hyperverify.series import TruncatedSeries
from hyperverify.suites import (
    ALL_SUITES,
    COROLLARY_SUITE,
    KUMMER_SUITE,
    PIPELINE_SUITE,
    THEOREM_A_SUITE,
    THEOREM_D_SUITE,
    TRANSFORM_SUITE,
)
from series_oracle import beta_integral_pipeline, corollary_rhs

# as tabulated, each suite fails exactly its j=-5 slice
CLEAN_SUITE_FAILURES = {
    "kummer": 0, "transform": 4, "theorem-a": 48, "theorem-d": 32,
    "corollary": 0, "pipeline": 0,
}
CLEAN_SELFTEST_FAILURES = sum(CLEAN_SUITE_FAILURES.values())  # 84


def announce(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def timed(suite):
    start = time.perf_counter()
    records = suite.run()
    return records, time.perf_counter() - start


def offenders(records):
    return [
        (r.check, r.j, str(r.a), str(r.b), str(r.d), str(r.e), r.error)
        for r in records
        if r.status != "passed"
    ]


@contextmanager
def plus_twelve_reading():
    """Read B_{-5} with the +12 correction: its constant term b - 1 as b + 11."""
    original = COEFF_TABLE[-5]
    COEFF_TABLE[-5] = (original[0], lambda b, n: original[1](b, n) + 12)
    try:
        yield
    finally:
        COEFF_TABLE[-5] = original


def assert_fails_exactly_at_minus_five(records, slice_size):
    """As tabulated: the failed records are exactly the j = -5 slice, and
    every other record passes (no skip, no error)."""
    stray = offenders([r for r in records if r.j != -5])
    assert not stray, (
        f"records off the j=-5 slice do not pass: {stray} (a table row other "
        "than B_{-5}, or the engine, is at fault)"
    )
    minus_five = [r for r in records if r.j == -5]
    assert len(minus_five) == slice_size
    not_failed = [
        (r.check, str(r.a), str(r.b), str(r.d), str(r.e), r.status)
        for r in minus_five
        if r.status != "failed"
    ]
    assert not not_failed, (
        f"j=-5 records that do not fail as tabulated: {not_failed} (the "
        "tabulated B_{-5} is off by the constant +12; has its constant term "
        "b - 1 been repaired?)"
    )


def assert_passes_under_plus_twelve(records):
    """Under the +12 reading of B_{-5}: every record passes."""
    bad = offenders(records)
    assert not bad, (
        f"records that do not pass under the +12 reading of B_{{-5}}: {bad}"
    )


def pinned(records, corrected):
    """The j = -5 finding holds in both directions (for the announce line)."""
    return not offenders(corrected) and all(
        r.status == ("failed" if r.j == -5 else "passed") for r in records
    )


def finding_detail(records, corrected):
    bad = offenders(records)
    at_minus_five = sum(1 for o in bad if o[1] == -5)
    return (f"{len(bad)} not passed ({at_minus_five} at j=-5), "
            f"{len(offenders(corrected))} under the +12 reading")


def selftest_counts(out):
    """Per-suite counts from selftest's summary lines, keyed by suite name."""
    counts = {}
    for line in out.splitlines():
        name, *fields = line.split() or [""]
        if fields and all("=" in f for f in fields):
            counts[name] = {k: int(v) for k, v in (f.split("=") for f in fields)}
    return counts


def test_c01_kummer_transformation():
    records, elapsed = timed(KUMMER_SUITE)
    bad = offenders(records)
    ok = len(records) == 20 and not bad and elapsed < 1.0
    announce("C01", ok, f"20 quadratic-transform cases at order 24, {elapsed:.2f}s")
    assert len(records) == 20
    assert elapsed < 1.0
    assert not bad, bad


def test_c02_generalized_transformation_table_audit():
    records, elapsed = timed(TRANSFORM_SUITE)
    with plus_twelve_reading():
        corrected = TRANSFORM_SUITE.run()
    ok = len(records) == 44 and pinned(records, corrected) and elapsed < 5.0
    announce(
        "C02", ok,
        f"44 shifted-transform cases at order 24, {elapsed:.2f}s; "
        f"{finding_detail(records, corrected)}",
    )
    assert len(records) == 44
    assert elapsed < 5.0
    assert_fails_exactly_at_minus_five(records, 4)
    for r in records:
        if r.status == "failed":
            diff = [k for k, (lhs, rhs) in enumerate(zip(r.lhs, r.rhs))
                    if lhs != rhs]
            assert all(k % 2 == 1 for k in diff), (
                f"j=-5 transform at a={r.a}, b={r.b} differs at indices "
                f"{diff}, not all odd (the finding is in the odd weight B_{{-5}}; the even "
                "part must be clean)"
            )
    assert_passes_under_plus_twelve(corrected)


def test_c03_theorem_a_branch():
    records, elapsed = timed(THEOREM_A_SUITE)
    with plus_twelve_reading():
        corrected = THEOREM_A_SUITE.run()
    ok = len(records) == 528 and pinned(records, corrected) and elapsed < 10.0
    announce("C03", ok, f"{len(records)} a-branch cases, {elapsed:.2f}s; "
                        f"{finding_detail(records, corrected)}")
    assert len(records) == 528
    assert elapsed < 10.0
    assert_fails_exactly_at_minus_five(records, 48)
    assert_passes_under_plus_twelve(corrected)


def test_c04_theorem_d_branch():
    records, elapsed = timed(THEOREM_D_SUITE)
    with plus_twelve_reading():
        corrected = THEOREM_D_SUITE.run()
    ok = len(records) == 352 and pinned(records, corrected) and elapsed < 10.0
    announce("C04", ok, f"{len(records)} d-branch cases, {elapsed:.2f}s; "
                        f"{finding_detail(records, corrected)}")
    assert len(records) == 352
    assert elapsed < 10.0
    assert_fails_exactly_at_minus_five(records, 32)
    assert_passes_under_plus_twelve(corrected)


def test_c05_single_series_reduction_at_shift_zero():
    # canonical case first, against a fully literal chain
    prefactor = gamma_ratio(((3, 1), (4, 1)), ((5, 1), (2, 1)))
    assert prefactor == F(2 * 6, 24 * 1) == F(1, 2)
    three_f_two = F(1) + F(-2 * 1 * 1, 2 * -3) * 2 + \
        F((-2) * (-1) * 2 * 2, 6 * 6) * F(4, 2)
    assert three_f_two == F(19, 9)
    case = IdentityCase(0, -1, 1, 1, 3)
    assert theorem_lhs(case) == prefactor * three_f_two == F(19, 18)
    assert theorem_rhs(case) == F(19, 18)
    assert corollary_rhs(case) == F(19, 18)

    mismatches = []
    for a in THEOREM_A_SUITE.a_set:
        for b in THEOREM_A_SUITE.b_set:
            for d in THEOREM_A_SUITE.d_set:
                for e in THEOREM_A_SUITE.e_set:
                    grid_case = IdentityCase(0, a, b, d, e)
                    if theorem_lhs(grid_case) != corollary_rhs(grid_case):
                        mismatches.append(grid_case)
    ok = not mismatches
    announce("C05", ok, "j=0 theorem values equal the single-series form on the "
                        "full criterion-3 grid; canonical case is exactly 19/18")
    assert not mismatches, mismatches


def test_c06_corollary_agreement_with_weighted_path():
    mismatches = []
    count = 0
    for j in COROLLARY_SUITE.j_set:
        for a in COROLLARY_SUITE.a_set:
            for b in COROLLARY_SUITE.b_set:
                for d in COROLLARY_SUITE.d_set:
                    for e in COROLLARY_SUITE.e_set:
                        case = IdentityCase(j, a, b, d, e)
                        count += 1
                        if corollary_rhs(case) != theorem_rhs(case):
                            mismatches.append(case)
    ok = not mismatches and count == 336
    announce("C06", ok, f"{count} closed-form vs weighted-path comparisons, "
                        f"{len(mismatches)} mismatches")
    assert count == 336
    assert not mismatches, mismatches


def test_c07_derivation_pipeline():
    records, elapsed = timed(PIPELINE_SUITE)
    bad = offenders(records)
    # end-to-end canonical chain
    poly = gen_transform_lhs_series(0, -1, 1, 2)
    assert poly.coefficients == (1, 0, F(1, 3))
    assert [beta_moment(p, 1, 3) for p in range(3)] == [1, F(1, 3), F(1, 6)]
    pair = beta_integral_pipeline(IdentityCase(0, -1, 1, 1, 3))
    assert pair == (F(19, 18), F(19, 18))
    ok = len(records) == 264 and not bad
    announce("C07", ok, f"{len(records)} pipeline replays, {elapsed:.2f}s; "
                        "canonical 19/18 chain reproduced")
    assert len(records) == 264
    assert not bad, bad


def test_c08_display_argument_negative_control(tmp_path, capsys):
    config = {
        "checks": ["theorem"],
        "jSet": list(range(-5, 6)),
        "aSet": ["-1", "-2", "-3", "-4"],
        "bSet": ["1/3", "2/5"],
        "dSet": ["1/2", "1", "5/2"],
        "eSet": ["4", "13/3"],
        "theoremArgument": "one",
    }
    path = tmp_path / "argument_one.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "report.json"
    code = cli.main(["run", "--config", str(path), "--out", str(out_path)])
    capsys.readouterr()
    report = json.loads(out_path.read_text())
    failed = report["summary"]["failed"]
    total = len(report["records"])
    ok = code == 1 and failed > total // 2
    announce("C08", ok, f"unit-argument variant fails {failed}/{total} grid "
                        "cases and is recorded in the report")
    assert code == 1
    assert failed > total // 2  # generic cases must fail
    recorded = [r for r in report["records"] if r["equal"] is False]
    assert len(recorded) == failed
    assert all(r["lhs"] != r["rhs"] for r in recorded)


def test_c09_randomized_property_suites():
    trials = 1000
    start = time.perf_counter()

    rng = random.Random(411)
    for _ in range(trials):
        a = F(rng.randint(-40, 40), rng.randint(1, 12))
        m, n = rng.randint(0, 30), rng.randint(0, 30)
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)

    rng = random.Random(412)
    for _ in range(trials):
        d = F(rng.randint(-40, 40), rng.randint(1, 12))
        n = rng.randint(0, 50)
        assert pochhammer_duplication(d, n) == pochhammer(d, 2 * n)

    rng = random.Random(413)
    for _ in range(trials):

        def rand_series():
            order = rng.randint(0, 32)
            return TruncatedSeries(
                tuple(F(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(order + 1))
            )

        f, g, h = rand_series(), rand_series(), rand_series()
        fg = f * g
        assert fg.coefficients == (g * f).coefficients
        assert (fg * h).coefficients == (f * (g * h)).coefficients
        assert (f * (g + h)).coefficients == (fg + f * h).coefficients

    rng = random.Random(414)
    for _ in range(trials):
        factors = []
        expected = F(1)
        for _ in range(rng.randint(1, 4)):
            while True:
                q = F(rng.randint(-30, 30), rng.randint(1, 10))
                if not (q.denominator == 1 and q <= 0):
                    break
            k = rng.randint(0, 8)
            factors += [(q + k, 1), (q, -1)]
            expected *= pochhammer(q, k)
        rng.shuffle(factors)
        upper = [a.as_integer_ratio() for a, sign in factors if sign > 0]
        lower = [a.as_integer_ratio() for a, sign in factors if sign < 0]
        assert gamma_ratio(upper, lower) == expected

    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    announce("C09", ok, f"4 x {trials} randomized trials in {elapsed:.2f}s")
    assert elapsed < 5.0


def test_c10a_selftest_exit_code_on_clean_build(capsys):
    code = cli.selftest()
    out = capsys.readouterr().out
    with plus_twelve_reading():
        corrected_code = cli.selftest()
    corrected_out = capsys.readouterr().out
    counts = selftest_counts(out)
    ok = code == 1 and corrected_code == 0
    announce("C10a", ok, f"selftest exits {code} as tabulated "
                         f"({counts.get('total', {}).get('failed')} failed) "
                         f"and {corrected_code} under the +12 reading")
    assert code == 1, f"as-tabulated selftest exits {code}, not 1:\n{out}"
    assert out.rstrip().endswith("selftest: FAIL"), out
    failed = {name: c["failed"] for name, c in counts.items() if name != "total"}
    assert failed == CLEAN_SUITE_FAILURES, (
        f"as-tabulated selftest fails {failed}, expected the j=-5 slices "
        f"{CLEAN_SUITE_FAILURES}"
    )
    assert counts["total"]["failed"] == CLEAN_SELFTEST_FAILURES
    assert all(c["errored"] == c["skipped"] == 0 for c in counts.values()), out
    assert corrected_code == 0, (
        f"selftest under the +12 reading of B_{{-5}} exits {corrected_code}, "
        f"not 0:\n{corrected_out}"
    )
    assert corrected_out.rstrip().endswith("selftest: PASS"), corrected_out


def test_c10b_any_single_weight_mutation_is_detected(capsys):
    clean_by_j = {}
    for j in TRANSFORM_SUITE.j_set:
        clean_by_j[j] = grid_sweep(
            (j,), TRANSFORM_SUITE.a_set, TRANSFORM_SUITE.b_set, (), (),
            ("transform",),
        )

    undetected = []
    for j in TRANSFORM_SUITE.j_set:
        for part in (0, 1):
            original = COEFF_TABLE[j]
            fns = list(original)
            target = fns[part]
            fns[part] = lambda b, n, fn=target: fn(b, n) + 1
            COEFF_TABLE[j] = tuple(fns)
            try:
                records = grid_sweep(
                    (j,), TRANSFORM_SUITE.a_set, TRANSFORM_SUITE.b_set, (), (),
                    ("transform",),
                )
            finally:
                COEFF_TABLE[j] = original
            has_failure = any(r.status == "failed" for r in records)
            changed = [r.rhs for r in records] != [r.rhs for r in clean_by_j[j]]
            if not (has_failure and changed):
                undetected.append((j, "A" if part == 0 else "B"))

    # end to end: a corrupted row must push the selftest failure count past
    # the clean baseline (the exit code is already 1 on a clean build, see
    # C10a, so growth of the failure set is the detectable signal)
    original = COEFF_TABLE[2]
    COEFF_TABLE[2] = (lambda b, n: original[0](b, n) + 1, original[1])
    try:
        code = cli.selftest()
    finally:
        COEFF_TABLE[2] = original
    mutated_failures = selftest_counts(capsys.readouterr().out)["total"]["failed"]

    ok = (not undetected and code == 1
          and mutated_failures > CLEAN_SELFTEST_FAILURES)
    announce("C10b", ok, "all 22 single-coefficient mutations change the "
                         "transform audit and fail it; a mutated A_2 raises "
                         f"the selftest failures to {mutated_failures}")
    assert not undetected, undetected
    assert code == 1
    assert mutated_failures > CLEAN_SELFTEST_FAILURES, (
        f"selftest with A_2 mutated reports {mutated_failures} failures, "
        f"not more than the clean {CLEAN_SELFTEST_FAILURES}"
    )


def test_c10c_malformed_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"checks": ["theorem"], "jSet": [7]}')
    code_bad_j = cli.main(["run", "--config", str(bad)])
    bad.write_text("{broken")
    code_bad_json = cli.main(["run", "--config", str(bad)])
    code_missing = cli.main(["run", "--config", str(tmp_path / "nope.json")])
    capsys.readouterr()
    ok = code_bad_j == code_bad_json == code_missing == 2
    announce("C10c", ok, "malformed configs exit 2 without a report body")
    assert (code_bad_j, code_bad_json, code_missing) == (2, 2, 2)


def test_c10d_reports_byte_deterministic_across_jobs(tmp_path, capsys):
    config = {
        "checks": ["theorem", "corollaries", "transform", "kummer", "pipeline"],
        "jSet": [-5, -1, 0, 2, 4],
        "aSet": ["-2", "1/4"],
        "bSet": ["1/3"],
        "dSet": ["1"],
        "eSet": ["4"],
        "seriesOrder": 16,
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    outputs = []
    for run_id, jobs in enumerate(("1", "1", "2", "3")):
        out = tmp_path / f"report_{run_id}.json"
        cli.main(["run", "--config", str(path), "--out", str(out),
                  "--jobs", jobs])
        outputs.append(out.read_bytes())
    capsys.readouterr()
    ok = len(set(outputs)) == 1
    announce("C10d", ok, "reports byte-identical across repeats and --jobs 1/2/3")
    assert len(set(outputs)) == 1


def test_acceptance_suite_covers_every_canonical_grid():
    # guard: the suites module and this battery stay in sync
    names = [s.name for s in ALL_SUITES]
    assert names == [
        "kummer", "transform", "theorem-a", "theorem-d", "corollary", "pipeline"
    ]
