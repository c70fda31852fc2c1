"""CLI contract: config validation, exit codes, report shape, determinism."""

import functools
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

from hyperverify import cli, identities

CANONICAL_CONFIG = {
    "checks": ["theorem"],
    "jSet": [0],
    "aSet": ["-1"],
    "bSet": ["1"],
    "dSet": ["1"],
    "eSet": ["3"],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def invoke(argv, capsys):
    """Run the CLI in-process; argparse failures surface as SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRun:
    def test_singleton_passing_case(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CANONICAL_CONFIG)
        code, out, _ = invoke(["run", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["summary"] == {
            "passed": 1, "failed": 0, "errored": 0, "skipped": 0
        }
        (record,) = report["records"]
        assert record["lhs"] == record["rhs"] == "19/18"
        assert record["equal"] is True
        assert record["branch"] == "a"

    def test_report_written_to_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CANONICAL_CONFIG)
        out_path = tmp_path / "report.json"
        code, out, _ = invoke(
            ["run", "--config", cfg, "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["summary"]["passed"] == 1

    def test_display_argument_variant_fails_generically(self, tmp_path, capsys):
        payload = dict(CANONICAL_CONFIG)
        payload.update(
            jSet=[-1, 0, 1], aSet=["-1", "-2"], bSet=["1/3"],
            dSet=["1", "5/2"], eSet=["4"], theoremArgument="one",
        )
        cfg = write_config(tmp_path, payload)
        code, out, _ = invoke(["run", "--config", cfg], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["summary"]["failed"] > 0
        failed = [r for r in report["records"] if r["equal"] is False]
        assert all(r["lhs"] != r["rhs"] for r in failed)

    def test_pole_points_skipped_with_argument_named(self, tmp_path, capsys):
        payload = dict(CANONICAL_CONFIG)
        payload.update(jSet=[-2], bSet=["1"])
        cfg = write_config(tmp_path, payload)
        code, out, _ = invoke(["run", "--config", cfg], capsys)
        assert code == 0  # skips do not fail the run
        report = json.loads(out)
        assert report["summary"]["skipped"] == 1
        assert "PoleError" in report["records"][0]["error"]

    def test_crash_in_a_check_is_an_errored_record(
        self, tmp_path, capsys, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(identities, "kummer_rhs_series", boom)
        payload = dict(CANONICAL_CONFIG)
        payload.update(checks=["kummer", "theorem"], bSet=["1/3"])
        cfg = write_config(tmp_path, payload)
        code, out, err = invoke(["run", "--config", cfg], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["summary"] == {
            "passed": 1, "failed": 0, "errored": 1, "skipped": 0
        }
        (kummer,) = [r for r in report["records"] if r["check"] == "kummer"]
        assert kummer["error"] == "Unexpected RuntimeError: boom"
        assert "1 errored" in err

    def test_rationals_in_report_round_trip(self, tmp_path, capsys):
        payload = dict(CANONICAL_CONFIG)
        payload.update(
            checks=["theorem", "corollaries", "kummer", "transform", "pipeline"],
            jSet=[0, 3], aSet=["-2"], bSet=["2/5"], dSet=["5/2"], eSet=["13/3"],
        )
        cfg = write_config(tmp_path, payload)
        code, out, _ = invoke(["run", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["records"]

        def reparses(text):
            F(text)  # raises if not exact
            return True

        for record in report["records"]:
            for key in ("a", "b", "d", "e"):
                if record[key] is not None:
                    assert reparses(record[key])
            for key in ("lhs", "rhs"):
                value = record[key]
                if isinstance(value, list):
                    assert all(reparses(v) for v in value)
                elif value is not None:
                    assert reparses(value)

    def test_a_record_value_past_the_digit_limit_writes_no_report(
            self, tmp_path, capsys):
        # d = 10**2500 + 1 gives a theorem side of more digits than the
        # int-string conversion limit: every record is formatted first, so
        # nothing is written, and the exit code is a usage error's
        cfg = write_config(tmp_path, {
            "checks": ["theorem"], "jSet": [0], "aSet": [-1], "bSet": ["1/3"],
            "dSet": [str(10**2500 + 1)], "eSet": ["13/3"]})
        message = ("hyperverify: a record value has more than "
                   f"{sys.get_int_max_str_digits()} digits\n")
        target = tmp_path / "report.json"
        for out_args in (["--out", str(target)], []):
            code, out, err = invoke(
                ["run", "--config", cfg, "--jobs", "1"] + out_args, capsys)
            assert (code, out, err) == (2, "", message)
        assert not target.exists()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "payload",
        [
            "{not json",
            {"checks": ["theorem"], "jSet": [7]},
            {"checks": ["bogus"]},
            {"checks": ["theorem"], "unknownField": 1},
            {"checks": ["theorem"], "aSet": [0.5]},
            {"checks": ["theorem"], "aSet": ["1/0"]},
            {"checks": ["theorem"], "seriesOrder": 0},
            {"checks": ["theorem"], "seriesOrder": 512},
            {"checks": ["theorem"], "theoremArgument": "three"},
            {"checks": "theorem"},
            [1, 2, 3],
            {"checks": ["theorem"], "aSet": "1/2"},
            {"checks": ["theorem"], "jSet": 3},
            {"checks": ["theorem"], "jSet": ["1"]},
            {"checks": ["theorem"], "seriesOrder": "24"},
            # nested past the interpreter's recursion limit, whole or in
            # a field: json raises RecursionError before any field check
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-whole"),
            pytest.param('{"checks": ["theorem"], "aSet": %s}'
                         % ("[" * 100_000 + "]" * 100_000), id="nested-aSet"),
        ],
    )
    def test_malformed_configs_exit_two(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path, payload)
        code, out, err = invoke(["run", "--config", cfg], capsys)
        assert code == 2
        assert out == ""  # no report body
        assert "config error" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, out, _ = invoke(
            ["run", "--config", str(tmp_path / "absent.json")], capsys
        )
        assert code == 2 and out == ""

    def test_unwritable_output_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CANONICAL_CONFIG)
        target = tmp_path / "no" / "such" / "dir" / "r.json"
        code, _, err = invoke(
            ["run", "--config", cfg, "--out", str(target)], capsys
        )
        assert code == 2
        assert "cannot write report" in err

    def test_bad_jobs_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CANONICAL_CONFIG)
        code, _, _ = invoke(["run", "--config", cfg, "--jobs", "0"], capsys)
        assert code == 2

    def test_unknown_subcommand_exits_two_with_usage(self, capsys):
        code, _, err = invoke(["bogus"], capsys)
        assert code == 2
        assert "usage" in err

    @pytest.mark.parametrize(
        "text", ["2.5", "1e-50", "1_000", " 1/2", "1/2/3", "1/-2", "+", "\u0663"])
    def test_rationals_outside_the_grammar_exit_two(self, tmp_path, capsys, text):
        # only a sign, ASCII digits and an optional "/digits"; an exponent
        # would also make the parse itself unbounded
        cfg = write_config(tmp_path, {"checks": ["theorem"], "aSet": [text]})
        code, out, err = invoke(["run", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "config error" in err and "is not a rational" in err

    @pytest.mark.parametrize(
        "raw, value", [("-3", F(-3)), ("+7/2", F(7, 2)), ("04/6", F(2, 3)),
                       (-12, F(-12))])
    def test_rationals_in_the_grammar(self, raw, value):
        assert cli.SweepConfig.from_dict({"aSet": [raw]}).a_set == (value,)

    def test_integer_literal_past_the_string_limit_exits_two(
            self, tmp_path, capsys):
        # json.load refuses a 5,000-digit literal through cli._json_int
        literal = "7" * 5000
        cfg = write_config(
            tmp_path, '{"checks": ["theorem"], "aSet": [' + literal + "]}")
        code, out, err = invoke(["run", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "config error" in err

    def test_pipeline_degree_is_bounded_when_parsed(self):
        # parsing only: no case runs
        with pytest.raises(cli.ConfigParseError,
                           match="a=-129 gives the pipeline degree 258"):
            cli.SweepConfig.from_dict(
                {"checks": ["theorem", "pipeline"], "aSet": ["-1", "-129"]})
        config = cli.SweepConfig.from_dict(
            {"checks": ["pipeline"], "aSet": [-128, "-257/2"]})
        assert config.a_set == (F(-128), F(-257, 2))
        # the bound is the pipeline's: other checks accept the same a
        config = cli.SweepConfig.from_dict(
            {"checks": ["theorem", "corollaries"], "aSet": ["-129"]})
        assert config.a_set == (F(-129),)


class TestTable:
    def test_single_row(self, capsys):
        code, out, _ = invoke(["table", "--j", "2", "--b", "1", "--n", "0"], capsys)
        assert code == 0
        assert out == "j=2   A=-2 B=-2\n"

    def test_all_rows(self, capsys):
        code, out, _ = invoke(["table", "--b", "1/3", "--n", "1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 11
        assert lines[0].startswith("j=-5")

    def test_rejects_out_of_range_shift(self, capsys):
        code, _, _ = invoke(["table", "--j", "9", "--b", "1", "--n", "0"], capsys)
        assert code == 2

    def test_rejects_bad_rational(self, capsys):
        code, _, _ = invoke(["table", "--b", "x", "--n", "0"], capsys)
        assert code == 2

    # --b follows the config grammar: a sign, ASCII digits and an
    # optional /digits, so no decimal point, exponent, underscore
    # (1_0 would read as 10) or non-ASCII digit
    @pytest.mark.parametrize("b", ["2.5", "1e-3", "1_0", "٣/7"])
    def test_rejects_what_the_config_grammar_rejects(self, b, capsys):
        code, out, err = invoke(["table", "--b", b, "--n", "0"], capsys)
        assert (code, out) == (2, "")
        assert "bad --b value" in err

    def test_zero_denominator_is_named_not_leaked(self, tmp_path, capsys):
        # both parses name the zero denominator, not the Fraction that
        # raised, and the table names --b once
        code, _, err = invoke(["table", "--b", "1/0", "--n", "0"], capsys)
        assert code == 2
        assert err == ("hyperverify: bad --b value: '1/0' is not a rational"
                       " (zero denominator)\n")
        cfg = write_config(tmp_path, {"checks": ["theorem"], "aSet": ["1/0"]})
        code, _, run_err = invoke(["run", "--config", cfg], capsys)
        assert code == 2
        assert "aSet: '1/0' is not a rational (zero denominator)" in run_err
        assert "Fraction(" not in err + run_err

    def test_too_many_digits_is_named_and_cut_short(self, tmp_path, capsys):
        # a part past the interpreter's int-string conversion limit gets a
        # reason of its own, and the message echoes a short prefix only
        ones = "1" * 5000
        code, out, err = invoke(["table", "--b", ones, "--n", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == (f"hyperverify: bad --b value: '{ones[:39]}..."
                       " is not a rational (too many digits)\n")
        cfg = write_config(tmp_path, {"checks": ["theorem"],
                                      "aSet": [f"{ones}/3"]})
        code, _, run_err = invoke(["run", "--config", cfg], capsys)
        assert code == 2
        assert run_err == (f"hyperverify: config error: aSet: '{ones[:39]}..."
                           " is not a rational (too many digits)\n")

    @pytest.mark.parametrize("argv, option", [
        (["table", "--b", "1", "--n", "0"], "--n"),
        (["table", "--b", "1", "--n", "0"], "--j"),
        (["run", "--config", "unread.json"], "--jobs"),
        (["selftest"], "--jobs"),
    ], ids=["--n", "--j", "run---jobs", "selftest---jobs"])
    def test_a_long_integer_option_is_cut_short(self, argv, option, capsys):
        ones = "1" * 5000
        code, out, err = invoke(argv + [option, ones], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: invalid int value: "
                            f"'{ones[:39]}...\n")
        assert len(err) < 200
        # one the interpreter can read, but out of range, is cut too
        code, _, err = invoke(["table", "--b", "1", "--j", ones[:4000],
                               "--n", "0"], capsys)
        assert code == 2
        assert err == f"hyperverify: j={ones[:40]}... outside [-5, 5]\n"

    def test_a_config_integer_past_the_digit_limit_is_named(self, tmp_path,
                                                             capsys):
        # json reads the literal before any field check, so the message
        # names the literal, with the reason _parse_rational gives
        sevens = "7" * 5000
        cfg = tmp_path / "digits.json"
        cfg.write_text('{"checks": ["theorem"], "aSet": [%s]}' % sevens)
        code, out, err = invoke(["run", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == (f"hyperverify: config error: '{sevens[:39]}..."
                       " is not an integer (too many digits)\n")

    @pytest.mark.parametrize("raw, message", [
        ({"checks": ["theorem"], "jSet": [int("7" * 4000)]},
         f"jSet: j={'7' * 40}... outside [-5, 5]"),
        ({"checks": ["theorem"], "jSet": ["7" * 4000]},
         f"jSet: '{'7' * 39}... is not an integer"),
        ({"checks": ["theorem"], "seriesOrder": int("7" * 4000)},
         f"seriesOrder: {'7' * 40}... outside [1, 256]"),
        ({"checks": ["theorem"], "theoremArgument": "7" * 4000},
         f"theoremArgument: '{'7' * 39}... is neither 'one' nor 'two'"),
        ({"checks": ["pipeline"], "aSet": [-int("7" * 4000)]},
         f"aSet: a=-{'7' * 39}... gives the pipeline degree "
         f"{'1' + '5' * 39}..., past 256"),
        # unknown names echo unquoted, and whole up to 40 characters
        ({"checks": ["theorem", "7" * 5000]},
         f"checks: unknown names {'7' * 40}...; "
         "valid: theorem, corollaries, transform, kummer, pipeline"),
        ({"checks": ["kumer", "theorem", "corolaries"]},
         "checks: unknown names corolaries, kumer; "
         "valid: theorem, corollaries, transform, kummer, pipeline"),
        ({"checks": ["theorem"], "7" * 5000: 1},
         f"unknown config fields: {'7' * 40}..."),
        ({"checks": ["theorem"], "aset": [], "jset": []},
         "unknown config fields: aset, jset"),
    ])
    def test_a_long_config_value_is_cut_short(self, raw, message, tmp_path,
                                             capsys):
        code, out, err = invoke(["run", "--config", write_config(tmp_path, raw)],
                                capsys)
        assert (code, out) == (2, "")
        assert err == f"hyperverify: config error: {message}\n"

    def test_accepts_a_signed_fraction(self, capsys):
        code, out, _ = invoke(["table", "--j", "0", "--b=-2/4", "--n", "1"],
                              capsys)
        assert (code, out) == (0, "j=0   A=1 B=0\n")

    # argparse reads a value after --b that starts with "-" and is not a
    # plain negative number as an option, so the CLI joins a negative
    # rational to the --b before it
    def test_negative_b_after_a_space_reads_as_a_value(self, capsys):
        spaced = invoke(["table", "--b", "-1/3", "--n", "1"], capsys)
        joined = invoke(["table", "--b=-1/3", "--n", "1"], capsys)
        assert spaced == joined
        assert spaced[0] == 0 and len(spaced[1].splitlines()) == 11

    def test_negative_j_and_negative_b(self, capsys):
        code, out, _ = invoke(["table", "--j", "-3", "--b", "-2/5", "--n", "1"],
                              capsys)
        assert (code, out) == (0, "j=-3  A=-13/5 B=1/5\n")

    def test_dash_word_after_b_is_still_refused(self, capsys):
        code, out, err = invoke(["table", "--b", "-x", "--n", "0"], capsys)
        assert (code, out) == (2, "")
        assert "--b" in err

    @pytest.mark.parametrize("argv", [
        ["--j", "4", "--b", "1", "--n", "9" * 3000],
        ["--b", "7" * 2500, "--n", "1"],
    ], ids=["long-n", "long-b"])
    def test_a_weight_past_the_digit_limit_prints_nothing(self, argv, capsys):
        # the quadratic weights pass the int-string conversion limit; no
        # line prints, and the exit code is a usage error's, not a failed
        # identity's
        code, out, err = invoke(["table"] + argv, capsys)
        assert (code, out) == (2, "")
        assert err == ("hyperverify: a weight at this (b, n) has more than "
                       f"{sys.get_int_max_str_digits()} digits\n")

    def test_a_long_index_with_constant_weights_prints(self, capsys):
        code, out, _ = invoke(
            ["table", "--j", "1", "--b", "1", "--n", "9" * 3000], capsys)
        assert (code, out) == (0, "j=1   A=-1 B=1\n")

    def test_rejects_negative_index(self, capsys):
        code, out, err = invoke(
            ["table", "--j", "3", "--b", "1/3", "--n", "-2"], capsys)
        assert code == 2
        assert out == ""
        assert "--n must be >= 0" in err


class TestDeterminism:
    GRID = {
        "checks": ["theorem", "corollaries", "transform", "kummer", "pipeline"],
        "jSet": [-5, -2, 0, 3],
        "aSet": ["-1", "-2"],
        "bSet": ["1/3"],
        "dSet": ["1"],
        "eSet": ["4"],
        "seriesOrder": 12,
    }

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.GRID)
        _, first, _ = invoke(["run", "--config", cfg], capsys)
        _, second, _ = invoke(["run", "--config", cfg], capsys)
        assert first == second

    def test_parallel_run_matches_serial(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.GRID)
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        invoke(["run", "--config", cfg, "--out", str(serial)], capsys)
        invoke(
            ["run", "--config", cfg, "--out", str(parallel), "--jobs", "2"],
            capsys,
        )
        assert serial.read_bytes() == parallel.read_bytes()

    def test_records_sorted_by_check_then_case(self, tmp_path, capsys):
        # The second grid repeats values and declares b out of order: the
        # records of a repeated value are neighbours, not interleaved.
        def rank(value):  # a missing field sorts first
            return (0, F(0)) if value is None else (1, F(value))

        repeats = dict(self.GRID, aSet=["-1", "-1"], bSet=["2/5", "1/3"],
                       dSet=["1/2", "1/2"])
        for grid in (self.GRID, repeats):
            cfg = write_config(tmp_path, grid)
            _, out, _ = invoke(["run", "--config", cfg], capsys)
            records = json.loads(out)["records"]
            keys = [(r["check"],) + tuple(rank(r[f]) for f in "jabde")
                    for r in records]
            assert keys == sorted(keys)


def test_selftest_parallel_matches_serial(monkeypatch, capsys):
    # The costliest suite comes first, so under a pool the cheap ones
    # finish before it; the lines must still print in suite order.
    from hyperverify.suites import Suite

    suites = (
        Suite(name="heavy", checks=("theorem", "transform"),
              j_set=(-5, 0, 1, 2), a_set=(F(-1), F(-2), F(-3)),
              b_set=(F(1, 3), F(2, 5)), d_set=(F(1), F(5, 2)),
              e_set=(F(4),), series_order=16),
        Suite(name="light", checks=("kummer",), a_set=(F(-1),),
              b_set=(F(1, 3),), series_order=4),
        Suite(name="medium", checks=("transform",), j_set=(0, 3),
              a_set=(F(1, 4),), b_set=(F(2, 7),), series_order=8),
        Suite(name="lightest", checks=("kummer",), a_set=(F(1, 4),),
              b_set=(F(3),), series_order=2),
    )
    monkeypatch.setattr(cli, "ALL_SUITES", suites)
    code_serial = cli.selftest(jobs=1)
    out_serial = capsys.readouterr().out
    code_parallel = cli.selftest(jobs=2)
    out_parallel = capsys.readouterr().out
    assert code_serial == code_parallel == 1  # j=-5 audit failure present
    assert out_serial == out_parallel
    names = [line.split()[0] for line in out_serial.splitlines()[:-2]]
    assert names == [suite.name for suite in suites]


def test_selftest_shares_one_memo_per_call(monkeypatch, capsys):
    # In process the six suites share one memo, so each row invariant is
    # worked once per selftest: Gamma prefactors reduced, ratio rows
    # built and weight rows interpolated.  The corollary suite reads the
    # moment tails, and so the rows, that theorem-a built.  A second call
    # counts the same, so no cache outlives the call that made it.
    from hyperverify import hyper

    counts = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(identities, "gamma_ratio")
    counted(hyper, "ratio_rows")
    counted(identities, "_poly_from_samples")
    seen = []
    for _ in range(2):
        counts.update(gamma_ratio=0, ratio_rows=0, _poly_from_samples=0)
        assert cli.selftest(jobs=1) == 1
        seen.append(dict(counts))
    capsys.readouterr()
    assert seen == [
        {"gamma_ratio": 115, "ratio_rows": 880, "_poly_from_samples": 66},
    ] * 2


def test_selftest_sums_each_left_side_once(monkeypatch, capsys):
    # theorem-a, theorem-d, corollary and pipeline have 1,480 records,
    # each with a left side.  The corollary suite reads the 336 that
    # theorem-a kept under the same rows and columns at argument 2, so
    # one selftest sums 1,144.  A second call counts the same.
    # A sum is a left side that a row's `lefts` gains.
    left = identities._Row.left
    calls = []

    def counted(row, column, argument=(2, 1)):
        kept = len(row.lefts)
        value = left(row, column, argument)
        if len(row.lefts) > kept:
            calls.append((row.j, row.a, row.b, column.pairs, argument))
        return value

    monkeypatch.setattr(identities._Row, "left", counted)
    seen = []
    for _ in range(2):
        calls.clear()
        assert cli.selftest(jobs=1) == 1
        seen.append((len(calls), len(set(calls))))
    capsys.readouterr()
    assert seen == [(1144, 1144)] * 2


def test_one_pool_per_invocation_clamped_to_cpu_count(
    monkeypatch, tmp_path, capsys
):
    # A stub pool records how it is built and which shares it is handed,
    # and maps them in process, so no worker process is started.  The
    # caller maps the first share itself, so the stub sees the rest.
    from hyperverify import identities
    from hyperverify.suites import ALL_SUITES

    started = []
    submitted = []

    class StubPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, share):
            submitted.append((fn, share))
            return types.SimpleNamespace(result=lambda: list(map(fn, share)))

    monkeypatch.setattr(cli, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(cli, "_cpu_mask", lambda: {0, 1, 2})

    # selftest: one map over the six suites, dealt round-robin to three
    # workers, so suite i goes to share i mod 3: share 0 in the caller
    # and the other two in two worker processes, each task the suite
    # summary under the call's one memo
    assert cli.selftest(jobs=8) == 1
    capsys.readouterr()
    assert started == [2]
    [(fn, second), (same_fn, third)] = submitted
    assert fn is same_fn
    assert (fn.func, fn.args, list(fn.keywords)) == (
        cli._suite_summary, (), ["memo"])
    assert (second, third) == (list(ALL_SUITES[1::3]), list(ALL_SUITES[2::3]))

    # run: the job list dealt round-robin to two workers, the even jobs
    # in the caller and the odd ones in one worker
    grid = TestDeterminism.GRID
    sweep_jobs = []

    def capture(fn, items):
        sweep_jobs.extend(items)
        return map(fn, items)

    identities.grid_sweep(
        grid["jSet"], [F(a) for a in grid["aSet"]],
        [F(b) for b in grid["bSet"]], [F(d) for d in grid["dSet"]],
        [F(e) for e in grid["eSet"]],
        ("theorem", "corollary", "transform", "kummer", "pipeline"),
        series_order=grid["seriesOrder"], mapper=capture,
    )
    grid_cfg = write_config(tmp_path, grid, "grid.json")
    assert invoke(["run", "--config", grid_cfg, "--jobs", "2"], capsys)[0] == 1
    assert started == [2, 1]
    _, share = submitted[2]
    assert share == sweep_jobs[1::2]

    # a one-record run, and any run on a single CPU, start no pool, even
    # where the host has more CPUs than the process may run on
    one_cfg = write_config(tmp_path, CANONICAL_CONFIG)
    assert invoke(["run", "--config", one_cfg, "--jobs", "2"], capsys)[0] == 0
    monkeypatch.setattr(cli, "_cpu_mask", lambda: {0})
    assert invoke(["run", "--config", grid_cfg, "--jobs", "8"], capsys)[0] == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    assert cli.selftest(jobs=2) == 1
    capsys.readouterr()
    assert started == [2, 1]
    assert len(submitted) == 3


def _item_and_pid(item):
    """A pool task: the item and the process that mapped it."""
    return item, os.getpid()


def _cpu_mask():
    """This process's CPU mask, or None where the platform has no
    affinity calls."""
    if hasattr(os, "sched_getaffinity"):
        return frozenset(os.sched_getaffinity(0))
    return None


# The pool places its shares only where it can pin, and two shares get
# disjoint CPU sets only from a mask of two CPUs or more.
PLACEABLE = hasattr(os, "sched_setaffinity") and len(_cpu_mask()) >= 2


def _pid_and_cpus(item):
    """A pool task: the process that mapped the item and its CPU mask."""
    return os.getpid(), _cpu_mask()


def assert_placed():
    """Map one item per share at --jobs 2: the caller's and the worker's
    CPU sets are disjoint and lie inside the caller's mask, and the
    caller has that whole mask back after the map."""
    before = _cpu_mask()
    [(caller, mine), (worker, theirs)] = cli._pool_map(
        _pid_and_cpus, [0, 1], jobs=2)
    assert caller == os.getpid() != worker
    assert mine.isdisjoint(theirs)
    assert mine | theirs <= before
    assert _cpu_mask() == before


def _touch_unless_negative(folder, item):
    """A pool task: refuse a negative item at once; otherwise wait item / 4
    seconds, then leave a file named after the item."""
    if item < 0:
        raise LookupError(item)
    time.sleep(item / 4)
    (folder / str(item)).touch()
    return item


def _exit_if_negative(item):
    """A pool task: end the process at a negative item, with no reply."""
    if item < 0:
        os._exit(3)
    return item


def _raise_unpicklable(item):
    """A pool task: pass item 0 back; raise any other as an error whose
    class, defined in here, cannot be pickled."""
    class LocalError(Exception):
        pass

    if item:
        raise LocalError(f"item {item}")
    return item


def allow_shares(monkeypatch, shares):
    """Let the pool run `shares` real workers: placed on the process's
    CPU mask where it has that many CPUs, and otherwise unplaced, with
    no mask and a CPU count of `shares`."""
    if len(cli._cpu_mask()) < shares:
        monkeypatch.setattr(cli, "_cpu_mask", set)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: shares)


class TestRealPool:
    """_pool_map over real worker processes."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        allow_shares(monkeypatch, 2)

    @pytest.fixture(autouse=True)
    def bounded(self):
        """Fail a test whose pool hangs instead of hanging the session."""
        def hung(signum, frame):
            raise TimeoutError("the pool did not return within 60 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_shares_come_back_in_order(self):
        before = _cpu_mask()
        out = cli._pool_map(_item_and_pid, range(5), jobs=2)
        assert [item for item, _ in out] == [0, 1, 2, 3, 4]
        # dealt round-robin: [0, 2, 4] in the caller, [1, 3] in one worker
        pids = [pid for _, pid in out]
        assert pids[::2] == [os.getpid()] * 3
        assert pids[1] == pids[3] != os.getpid()
        assert multiprocessing.active_children() == []
        assert _cpu_mask() == before

    def test_a_task_error_reraises_and_leaves_no_worker(self, tmp_path):
        # The caller's own share [-1, 1] fails at once, and the worker's
        # share [2, 3] is terminated before it writes.
        task = functools.partial(_touch_unless_negative, tmp_path)
        before = _cpu_mask()
        with pytest.raises(LookupError):
            cli._pool_map(task, [-1, 2, 1, 3], jobs=2)
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []
        assert _cpu_mask() == before

    def test_a_task_error_stops_the_other_workers(self, monkeypatch, tmp_path):
        # Three shares, one item each: the caller writes 0 at once, the
        # second worker fails at once, and the third is terminated
        # before it writes 4 a second later.
        allow_shares(monkeypatch, 3)
        task = functools.partial(_touch_unless_negative, tmp_path)
        before = _cpu_mask()
        with pytest.raises(LookupError):
            cli._pool_map(task, [0, -1, 4], jobs=3)
        assert multiprocessing.active_children() == []
        assert [path.name for path in tmp_path.iterdir()] == ["0"]
        assert _cpu_mask() == before

    def test_a_dead_worker_raises_and_does_not_hang(self):
        before = _cpu_mask()
        with pytest.raises(cli.WorkerError, match="exited with code 3"):
            cli._pool_map(_exit_if_negative, [1, -1], jobs=2)
        assert multiprocessing.active_children() == []
        assert _cpu_mask() == before

    def test_an_error_that_cannot_be_pickled_is_named(self):
        before = _cpu_mask()
        with pytest.raises(cli.WorkerError, match="^LocalError: item 1$"):
            cli._pool_map(_raise_unpicklable, [0, 1], jobs=2)
        assert multiprocessing.active_children() == []
        assert _cpu_mask() == before

    def test_the_pool_is_gone_when_the_map_returns(self, tmp_path):
        # The caller maps its share [0, 1] and the worker its [4, 8],
        # which writes its last file three seconds in; the map returns
        # after that, with the worker joined and the mask given back.
        task = functools.partial(_touch_unless_negative, tmp_path)
        before = _cpu_mask()
        results = cli._pool_map(task, [0, 4, 1, 8], jobs=2)
        assert multiprocessing.active_children() == []
        assert _cpu_mask() == before
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "0", "1", "4", "8"]
        assert results == [0, 4, 1, 8]

    @pytest.mark.skipif(not PLACEABLE,
                        reason="needs affinity calls and two CPUs in the mask")
    def test_the_caller_and_a_worker_run_on_disjoint_cpus(self):
        # Left to itself, Linux starts the worker on the busy caller's
        # CPU and keeps both there; the pool pins each share to its own.
        assert_placed()
        assert multiprocessing.active_children() == []

    def test_without_affinity_calls_nothing_is_pinned(self, monkeypatch,
                                                      capsys):
        # macOS has neither call; the pool then runs its shares unplaced
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli.selftest(jobs=1) == 1
        serial = capsys.readouterr().out
        assert cli.selftest(jobs=2) == 1
        assert capsys.readouterr().out == serial
        assert multiprocessing.active_children() == []

    def test_the_caller_closes_each_write_end(self, monkeypatch):
        # the worker holds the only write end left, so its death reads as
        # EOF in the caller, not as a hang
        senders = []
        pipe = multiprocessing.Pipe

        def kept(duplex=True):
            receiver, sender = pipe(duplex=duplex)
            senders.append(sender)
            return receiver, sender

        monkeypatch.setattr(multiprocessing, "Pipe", kept)
        with cli.ProcessPoolExecutor(max_workers=1) as pool:
            worker = pool.submit(_item_and_pid, [7])
            assert len(senders) == 1 and senders[0].closed
            assert [item for item, _ in worker.result()] == [7]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_selftest_under_each_start_method(self, method, monkeypatch,
                                              capsys):
        # fork is the default on Linux up to Python 3.13; forkserver is
        # from 3.14, and spawn is the default on macOS and Windows
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(multiprocessing, "Process", context.Process)
        monkeypatch.setattr(multiprocessing, "Pipe", context.Pipe)
        assert cli.selftest(jobs=1) == 1
        serial = capsys.readouterr().out
        assert cli.selftest(jobs=2) == 1
        assert capsys.readouterr().out == serial
        if PLACEABLE:  # the worker pins itself, whatever started it
            assert_placed()
        assert multiprocessing.active_children() == []

    def test_three_workers_keep_record_order_and_bytes(
        self, monkeypatch, tmp_path, capsys
    ):
        allow_shares(monkeypatch, 3)
        assert cli.selftest(jobs=1) == 1
        serial = capsys.readouterr().out
        assert cli.selftest(jobs=3) == 1
        assert capsys.readouterr().out == serial
        cfg = write_config(tmp_path, TestDeterminism.GRID)
        reports = []
        for jobs in ("1", "3"):
            out = tmp_path / f"report-{jobs}.json"
            invoke(["run", "--config", cfg, "--out", str(out), "--jobs", jobs],
                   capsys)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert multiprocessing.active_children() == []


GOLDEN_CONFIG = Path(__file__).with_name("golden_config.json")
GOLDEN_SHA256 = "dc082d06a79ab01fa6e12cc25f19153114064eb8084b874c278d4f4f65c6a493"


# A second digest guards the argument that the theorem's left side
# carries: the same grid with the 3F2 summed at argument 1.
GOLDEN_ONE_SHA256 = "4724b92a63366d6fb80cd70e6ab0075a48829b91b32c21ebe930b54e03fa52c2"


def assert_golden_report(tmp_path, capsys, jobs, argument=None):
    config = str(GOLDEN_CONFIG)
    summary = {"passed": 414, "failed": 78, "errored": 0, "skipped": 1200}
    digest = GOLDEN_SHA256
    if argument is not None:
        raw = json.loads(GOLDEN_CONFIG.read_text())
        config = write_config(tmp_path, dict(raw, theoremArgument=argument))
        summary = {"passed": 241, "failed": 251, "errored": 0, "skipped": 1200}
        digest = GOLDEN_ONE_SHA256
    out = tmp_path / "report.json"
    assert cli.run(config, str(out), jobs=jobs) == 1
    capsys.readouterr()
    body = out.read_bytes()
    report = json.loads(body)
    assert len(report["records"]) == 1692
    assert report["summary"] == summary
    assert hashlib.sha256(body).hexdigest() == digest


def test_golden_report_is_byte_identical(tmp_path, capsys):
    """The report of a committed config, pinned by its sha256: all five
    checks, the j = -5 slice, degenerate b (-1, 3, -5/2) with the failures
    the terminating convention gives there, and skips of six
    VerificationError kinds.

    A change meant to keep every verdict keeps this digest.  A deliberate
    verdict change, such as skipping or taking limits at degenerate
    parameter points, updates GOLDEN_SHA256 and the summary here and
    notes both in CHANGES.md.
    """
    assert_golden_report(tmp_path, capsys, jobs=1)


def test_golden_report_under_a_pool(tmp_path, capsys):
    """The same digest from worker processes, each evaluating its
    round-robin share of the jobs with its own memo (in process on a
    single-CPU host)."""
    assert_golden_report(tmp_path, capsys, jobs=2)


@pytest.mark.parametrize("jobs", [1, 2])
def test_golden_report_at_argument_one(tmp_path, capsys, jobs):
    """The golden config with theoremArgument "one": the theorem records
    then compare the unit-argument 3F2 with the right side, so this digest
    pins the argument the left side's sums carry."""
    assert_golden_report(tmp_path, capsys, jobs=jobs, argument="one")


# The five-check grid: every check over all eleven shifts, with the
# a = 0, d = 0 and e = 0 columns and the j = +-1, +-4 rows that the golden
# config lacks, where _two_parts skips its second part.
FIVE_CHECK_CONFIG = Path(__file__).with_name("five_check_config.json")
FIVE_CHECK_SHA256 = "6d3cae5c291116cec5c05f81012ba7e2043326fc25c97973fa72bb531355aea4"


@pytest.mark.parametrize("jobs", [1, 2])
def test_five_check_report_is_byte_identical(tmp_path, capsys, jobs):
    """The five-check grid's report, pinned by its sha256 as the golden
    report is, and kept the same by any change meant to keep verdicts."""
    out = tmp_path / "report.json"
    assert cli.run(str(FIVE_CHECK_CONFIG), str(out), jobs=jobs) == 1
    capsys.readouterr()
    body = out.read_bytes()
    report = json.loads(body)
    assert len(report["records"]) == 28944
    assert report["summary"] == {
        "passed": 9522, "failed": 539, "errored": 0, "skipped": 18883}
    assert hashlib.sha256(body).hexdigest() == FIVE_CHECK_SHA256


# A left side whose lower parameter vanishes only after the last
# coefficient asked for, with its terms still alive there.
POLE_PAST_ORDER_CONFIG = {
    "checks": ["transform", "kummer"], "jSet": [-5, 0],
    "aSet": ["1/4", "-3"], "bSet": ["-5/2", "-9/2"], "seriesOrder": 8,
}
POLE_PAST_ORDER_SHA256 = "b05f720f96888af5dbb12982f28b2c2c99953ec4b49ee2468f6942222893a498"


def test_left_side_pole_past_the_series_order(tmp_path, capsys):
    """The legality rule of the transform's left side 2F1(2a, b; 2b + j)
    holds for the whole series, not only for the coefficients up to
    seriesOrder: a lower parameter that vanishes at term 10, 11 or 15
    skips the record at order 8.  Without the rule these four records
    compare truncated coefficients instead: 2 pass and 2 fail."""
    cfg = write_config(tmp_path, POLE_PAST_ORDER_CONFIG)
    out = tmp_path / "report.json"
    assert cli.run(cfg, str(out), jobs=1) == 1
    capsys.readouterr()
    body = out.read_bytes()
    report = json.loads(body)
    assert report["summary"] == {
        "passed": 2, "failed": 2, "errored": 0, "skipped": 8}
    errors = {(r["check"], r["j"], r["a"], r["b"]): r["error"]
              for r in report["records"]}
    prefix = "DenominatorPoleBeforeTermination: denominator parameter"
    assert errors[("transform", -5, "1/4", "-5/2")] == (
        f"{prefix} -10 vanishes at term 11")
    assert errors[("transform", -5, "1/4", "-9/2")] == (
        f"{prefix} -14 vanishes at term 15")
    assert errors[("transform", 0, "1/4", "-9/2")] == (
        f"{prefix} -9 vanishes at term 10")
    assert errors[("kummer", None, "1/4", "-9/2")] == (
        f"{prefix} -9 vanishes at term 10")
    assert hashlib.sha256(body).hexdigest() == POLE_PAST_ORDER_SHA256


def test_selftest_rejects_bad_jobs(capsys):
    code, _, _ = invoke(["selftest", "--jobs", "0"], capsys)
    assert code == 2


def test_module_entry_point_smoke():
    # The child finds the package through PYTHONPATH, as pytest's own
    # pythonpath setting does not reach it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hyperverify", "table", "--j", "0", "--b", "1/2",
         "--n", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "j=0   A=1 B=0\n"
