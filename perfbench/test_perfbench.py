"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402
from hyperverify import cli  # noqa: E402

SEEDS = range(300)


# -- seed generator -------------------------------------------------------

@pytest.mark.parametrize("name", workloads.NAMES)
def test_workloads_are_a_function_of_the_seed(name):
    for seed in (0, 1, 17, 123456):
        assert workloads.make(name, seed) == workloads.make(name, seed)


def test_seeds_move_the_drawn_parameters():
    configs = {json.dumps(workloads.make("sums-deep", s).config) for s in range(20)}
    assert len(configs) > 1
    configs = {json.dumps(workloads.make("series-deep", s).config) for s in range(20)}
    assert len(configs) > 1


def is_degenerate(j, b):
    """The degenerate points of the terminating convention for shift j."""
    two_b_j = 2 * b + j
    return b.denominator == 1 or (two_b_j.denominator == 1 and two_b_j <= 0)


def test_is_degenerate_flags_both_kinds():
    assert is_degenerate(0, Fraction(-1))          # b an integer
    assert is_degenerate(-3, Fraction(3, 2))       # 2b + j = 0
    assert is_degenerate(-5, Fraction(1, 2))       # 2b + j = -4
    assert not is_degenerate(5, Fraction(-3, 2))   # 2b + j = 2
    assert not is_degenerate(-5, Fraction(1, 3))


def test_drawn_points_are_never_degenerate():
    for seed in SEEDS:
        a, b = workloads.series_params(seed)
        b_set, e = workloads.sums_params(seed)
        assert a > 0 and a.denominator >= 3
        assert e.denominator == 3
        for b_value in (b, *b_set):
            assert b_value.denominator >= 3 and b_value.denominator % 2 == 1
            for j in workloads.J_ALL:
                assert not is_degenerate(j, b_value)


# -- verdict checker ------------------------------------------------------

REASONS = verdicts.reason_names()


@pytest.fixture(scope="module")
def clean_report(tmp_path_factory):
    """A small real report: transform at j = -5 (the defect) and j = 0,
    plus a theorem point that is skipped for want of a terminating
    parameter."""
    tmp = tmp_path_factory.mktemp("report")
    config, out = tmp / "config.json", tmp / "report.json"
    config.write_text(json.dumps({
        "checks": ["transform", "theorem"], "jSet": [-5, 0], "aSet": ["1/4"],
        "bSet": ["2/7"], "dSet": ["1/2"], "eSet": ["4"], "seriesOrder": 6,
    }))
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", "--config", str(config), "--out", str(out)])
    return code, out.read_bytes()


def _report(body, edit):
    report = json.loads(body)
    edit(report["records"])
    counts = {s: 0 for s in ("passed", "failed", "errored", "skipped")}
    for r in report["records"]:
        counts[verdicts.status(r)] += 1
    report["summary"] = counts
    return json.dumps(report).encode()


def test_clean_report_passes_the_gate(clean_report):
    code, body = clean_report
    v = verdicts.check_report(body, code, REASONS)
    assert v.problems == [] and v.bad == 0
    statuses = sorted(verdicts.status(r) for r in json.loads(body)["records"])
    assert statuses == ["failed", "passed", "skipped", "skipped"]
    assert v.verified == 2


def test_one_flipped_verdict_is_flagged(clean_report):
    code, body = clean_report

    def flip(records):
        rec = next(r for r in records if r["j"] == 0 and r["check"] == "transform")
        rec["equal"] = False

    v = verdicts.check_report(_report(body, flip), code, REASONS)
    assert v.bad == 1 and v.problems


def test_one_errored_record_is_flagged(clean_report):
    code, body = clean_report

    def crash(records):
        records[0]["error"] = "Unexpected ZeroDivisionError: division by zero"
        records[0]["equal"] = None

    v = verdicts.check_report(_report(body, crash), code, REASONS)
    assert v.bad == 1 and v.problems


def test_skip_without_a_named_reason_is_flagged(clean_report):
    code, body = clean_report

    def unnamed(records):
        rec = next(r for r in records if r["error"] is not None)
        rec["error"] = "KeyError: 3"

    v = verdicts.check_report(_report(body, unnamed), code, REASONS)
    assert v.bad == 1


def test_wrong_exit_code_is_flagged(clean_report):
    _, body = clean_report
    assert verdicts.check_report(body, 0, REASONS).problems


def _selftest_stdout():
    lines = [f"{name:<12} records={n:<5} passed={n - f:<5} failed={f:<4} "
             f"errored=0    skipped=0"
             for name, (n, f) in verdicts.CANONICAL.items()]
    lines.append("total        records=1544  passed=1460  failed=84   "
                 "errored=0    skipped=0")
    return "\n".join(lines + ["selftest: FAIL"]) + "\n"


def test_selftest_summary_gate():
    v = verdicts.check_selftest(_selftest_stdout(), 1)
    assert v.problems == [] and v.records == 1544 and v.verified == 1544
    flipped = _selftest_stdout().replace(
        "records=44    passed=40    failed=4 ", "records=44    passed=41    failed=3 ")
    v = verdicts.check_selftest(flipped, 1)
    assert v.bad == 1 and v.problems
    errored = _selftest_stdout().replace(
        "records=20    passed=20    failed=0    errored=0",
        "records=20    passed=19    failed=0    errored=1")
    assert verdicts.check_selftest(errored, 1).bad == 1


# -- tracing ----------------------------------------------------------------

class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_nested_spans():
    # outer (layer a) 0..10 holds inner (b) 2..6, which holds leaf (a) 3..4;
    # a second child of outer (c) runs 7..8.
    tracer = tracing.Tracer(clock=FakeClock([0, 2, 3, 4, 6, 7, 8, 10]))

    def leaf():
        return "leaf"

    def inner():
        return tracer.call("a.leaf", "a", leaf, (), {})

    def second():
        return None

    def outer():
        tracer.call("b.inner", "b", inner, (), {})
        tracer.call("c.second", "c", second, (), {})

    tracer.call("a.outer", "a", outer, (), {})
    assert tracer.total["a.outer"] == 10
    assert tracer.total["b.inner"] == 4
    assert tracer.self_time["a"] == (10 - 4 - 1) + 1
    assert tracer.self_time["b"] == 4 - 1
    assert tracer.self_time["c"] == 1
    assert tracer.stack == []


def _snapshot():
    import hyperverify.identities as identities

    state = {}
    for module in tracing._package_modules():
        for name, value in vars(module).items():
            state[(module.__name__, name)] = value
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    state[(module.__name__, name, attr)] = raw
    for j, row in identities.COEFF_TABLE.items():
        state[("COEFF_TABLE", j)] = row
    return state


def _tiny_pass():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["table", "--b", "1/3", "--n", "2"])


def test_wrappers_restore_every_original():
    from hyperverify import cli as cli_module, series

    before = _snapshot()
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        assert cli_module.main is not before[("hyperverify.cli", "main")]
        assert series.TruncatedSeries.__mul__ is not before[
            ("hyperverify.series", "TruncatedSeries", "__mul__")]
        _tiny_pass()
    finally:
        inst.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert tracer.calls["cli.main"] == 1
    assert tracer.counts["identities.weight_evals"] == 22

    frozen = (dict(tracer.calls), dict(tracer.counts))
    _tiny_pass()
    assert (dict(tracer.calls), dict(tracer.counts)) == frozen


def test_counters_repeat_on_a_small_sweep(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "checks": ["kummer", "theorem"], "jSet": [-1, 2], "aSet": ["-2", "1/4"],
        "bSet": ["1/3"], "dSet": ["1/2"], "eSet": ["4/3"], "seriesOrder": 8,
    }))
    seen = []
    for _ in range(2):
        tracer = tracing.Tracer()
        inst = tracing.install(tracer)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(["run", "--config", str(config), "--out",
                          str(tmp_path / "out.json")])
        finally:
            inst.restore()
        metrics = tracing.pass_metrics(tracer)
        seen.append({k: v for k, v in metrics.items() if tracing.is_count(k)})
    assert seen[0] == seen[1]
    assert seen[0]["series.mul_calls"] > 0 and seen[0]["hyper.terms"] > 0


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)


# -- compare mode -----------------------------------------------------------

def test_compare_verdicts():
    base = [(s, 10.0 + 0.1 * (s % 3)) for s in range(10)]
    faster = [(s, v * 0.5) for s, v in base]
    slower = [(s, v * 1.5) for s, v in base]
    assert compare.verdict(base, faster, "lower", 0.1)[:2] == ("improved", 10)
    assert compare.verdict(base, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, list(base), "lower", 0.1)[0] == "unchanged"
    noisy = [(s, 10.0 * (1 + (s % 2))) for s in range(10)]
    assert compare.verdict(noisy, base, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, slower, "lower", None)[0] == "worse"


def test_compare_keeps_runs_that_repeat_a_seed():
    def entries(values):
        return [{"workload": "canonical", "seed": 1,
                 "metrics": {"wall_ratio": {"value": v, "unit": "ratio"}}} for v in values]

    steady = [10.0 + 0.1 * (i % 3) for i in range(10)]
    lines = compare.compare(entries(steady), entries(v * 0.5 for v in steady))
    row = next(line for line in lines if line.strip().startswith("wall_ratio"))
    assert " 10/10 " in row and row.endswith("improved")
    assert "base: 10 runs" in lines[0]
    # Every run counts toward the spread: a noisy base stays unresolved
    # even when its last run alone would read as a clear loss.
    noisy = [10.0 * (1 + i % 2) for i in range(10)]
    lines = compare.compare(entries(noisy), entries([12.0] * 10))
    row = next(line for line in lines if line.strip().startswith("wall_ratio"))
    assert row.endswith("unresolved")


# -- empty checkout -----------------------------------------------------------

def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "canonical",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
