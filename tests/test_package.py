"""The package surface: the names the README documents, its example, what
importing it loads, and the contracts of its value types and errors."""

import contextlib
import io
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import hyperverify
from hyperverify import (
    DenominatorPoleBeforeTermination,
    InvalidCase,
    NonTerminatingSeries,
    PoleError,
    TranscendentalResidue,
    UnsupportedJ,
    cli,
    suites,
)
from hyperverify.exact import pochhammer, pochhammer_duplication
from hyperverify.hyper import HyperSpec
from hyperverify.identities import (
    IdentityCase,
    VerificationRecord,
    beta_moment,
    coeff_A,
    coeff_B,
    even_prefactor,
    gen_transform_lhs_series,
    gen_transform_rhs_series,
    grid_sweep,
    kummer_rhs_series,
    odd_prefactor,
    verify_theorem,
)
from hyperverify.series import TruncatedSeries

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_top_level_names_are_the_documented_ones():
    assert set(hyperverify.__all__) == {
        "IdentityCase", "theorem_lhs", "theorem_rhs", "verify_theorem",
        "VerificationError", "PoleError", "TranscendentalResidue",
        "DenominatorPoleBeforeTermination", "NonTerminatingSeries",
        "UnsupportedJ", "InvalidCase",
    }
    assert all(hasattr(hyperverify, name) for name in hyperverify.__all__)


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "PoleError: Gamma(0) is a pole\n"


# The six value types.  Each entry builds one value, an equal value by
# another construction, and a value with one field changed.
VALUES = {
    "TruncatedSeries": (
        lambda: TruncatedSeries((1, F(1, 2), F(1, 3))),
        lambda: TruncatedSeries.over((12, 6, 4), 12),
        lambda: TruncatedSeries((1, F(1, 2), F(1, 4))),
    ),
    "HyperSpec": (
        lambda: HyperSpec(((1, 3), (-2, 1)), ((5, 2),), (2, 1),
                          weight=(F(1), F(1, 2)), power_offset=1),
        lambda: HyperSpec(((2, 6), (2, -1)), ((-5, -2),), (4, 2),
                          weight=(F(1), F(1, 2)), power_offset=1),
        lambda: HyperSpec(((1, 3), (-2, 1)), ((5, 2),), (2, 1),
                          weight=(F(1), F(1, 2))),
    ),
    "IdentityCase": (
        lambda: IdentityCase(3, F(-2), F(1, 3), F(1, 2), F(4)),
        lambda: IdentityCase(3, -2, F(2, 6), F(1, 2), 4),
        lambda: IdentityCase(3, F(-2), F(1, 3), F(1, 2), F(5)),
    ),
    "VerificationRecord": (
        lambda: VerificationRecord("theorem", 3, F(-2), F(1, 3), F(1, 2), F(4),
                                   "a", F(7), F(7), True),
        lambda: VerificationRecord(
            check="theorem", j=3, a=F(-2), b=F(1, 3), d=F(1, 2), e=F(4),
            branch="a", lhs=F(7), rhs=F(7), equal=True, error=None),
        lambda: VerificationRecord("theorem", 3, F(-2), F(1, 3), F(1, 2), F(4),
                                   "a", F(7), F(8), False),
    ),
    "Suite": (
        lambda: suites.Suite(name="t", checks=("theorem",), j_set=(1,)),
        lambda: suites.Suite("t", ("theorem",), (1,), (), (), (), (), 24),
        lambda: suites.Suite(name="t", checks=("theorem",), j_set=(1,),
                             series_order=6),
    ),
    "SweepConfig": (
        lambda: cli.SweepConfig(checks=("theorem",), a_set=(F(-1),)),
        lambda: cli.SweepConfig.from_dict({"checks": ["theorem"], "aSet": [-1]}),
        lambda: cli.SweepConfig(checks=("theorem",), a_set=(F(-1),),
                                theorem_argument="one"),
    ),
}
PUBLIC_VALUES = ("TruncatedSeries", "HyperSpec", "IdentityCase",
                 "VerificationRecord")
RECORD_FIELDS = ["check", "j", "a", "b", "d", "e", "branch", "lhs", "rhs",
                 "equal", "error"]


@pytest.mark.parametrize("name", VALUES)
def test_values_compare_and_hash_on_their_fields(name):
    make, twin, changed = VALUES[name]
    value = make()
    assert value == twin() and hash(value) == hash(twin())
    assert value != changed() and not value == changed()


@pytest.mark.parametrize("name", VALUES)
def test_values_survive_a_pickle_round_trip(name):
    value = VALUES[name][0]()
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is type(value)
    assert restored == value and hash(restored) == hash(value)


@pytest.mark.parametrize("name", PUBLIC_VALUES)
def test_public_values_are_not_tuples(name):
    value = VALUES[name][0]()
    assert not isinstance(value, tuple)
    with pytest.raises(TypeError):
        len(value)
    assert value != tuple(vars(value).values())


def test_record_fields_and_status():
    # A record may keep more than its fields (a sweep's record keeps its
    # sides' integer forms), so the fields are pinned by name, and each
    # reads back what the constructor was given.
    assert list(VerificationRecord._fields) == RECORD_FIELDS
    given = ("theorem", 3, F(-2), F(1, 3), F(1, 2), F(4), "a", F(7), F(7),
             True, None)
    rec = VerificationRecord(*given)
    assert [getattr(rec, name) for name in RECORD_FIELDS] == list(given)
    assert rec.status == "passed"
    assert VALUES["VerificationRecord"][2]().status == "failed"
    skipped = VerificationRecord("theorem", error="PoleError: Gamma(0) is a pole")
    assert skipped.status == "skipped"
    errored = VerificationRecord("theorem", error="Unexpected KeyError: 1")
    assert errored.status == "errored"
    assert [getattr(skipped, name) for name in RECORD_FIELDS] == [
        "theorem", *[None] * 9, "PoleError: Gamma(0) is a pole"]


def test_swept_records_survive_a_pickle_round_trip_unread():
    # A sweep's record keeps its sides in the integer forms of the sweep
    # until they are read, and pickles so: restored, it equals the
    # record and reads sides of the same types, a tuple of Fractions for
    # a series check and a Fraction for the others.
    kummer = grid_sweep((), (-1,), (F(1, 3),), (), (), ("kummer",),
                        series_order=6)
    transform = grid_sweep((1,), (F(1, 4),), (F(1, 3),), (), (),
                           ("transform",), series_order=6)
    theorem = grid_sweep((3, -5), (-2,), (F(2, 7),), (F(1, 2),), (4,),
                         ("theorem",))
    records = kummer + transform + theorem
    assert [(r.check, r.j) for r in records] == [
        ("kummer", None), ("transform", 1), ("theorem", 3), ("theorem", -5)]
    assert not any({"lhs", "rhs"} & set(vars(r)) for r in records)
    restored = [pickle.loads(pickle.dumps(r)) for r in records]
    assert restored == records
    assert [r.status for r in restored] == ["passed"] * 3 + ["failed"]
    for rec in restored:
        for side in (rec.lhs, rec.rhs):
            if rec.check in ("kummer", "transform"):
                assert type(side) is tuple and len(side) == 7
                assert {type(c) for c in side} == {F}
            else:
                assert type(side) is F
        # read, a record keeps the values in place of the forms
        assert list(vars(rec)) == [*RECORD_FIELDS[:7], "equal", "error",
                                   "lhs", "rhs"]
    assert restored[3].lhs != restored[3].rhs


def _sweep(a=-2, b=F(1, 3), d=F(1, 2), e=4, argument=2):
    return grid_sweep([3], [a], [b], [d], [e], ("theorem",),
                      theorem_argument=argument)


@pytest.mark.parametrize("make, name", [
    (lambda x: TruncatedSeries((1, x)), "a coefficient"),
    (lambda x: pochhammer(x, 2), "a"),
    (lambda x: pochhammer_duplication(x, 2), "d"),
    (lambda x: TruncatedSeries((1, 1, 1, 1)).scale(x), "a scale factor"),
    (lambda x: gen_transform_lhs_series(3, x, F(2, 7), 2), "a"),
    (lambda x: gen_transform_lhs_series(3, -1, x, 2), "b"),
    (lambda x: gen_transform_rhs_series(3, x, F(2, 7), 2), "a"),
    (lambda x: gen_transform_rhs_series(3, -1, x, 2), "b"),
    (lambda x: kummer_rhs_series(x, F(2, 7), 2), "a"),
    (lambda x: kummer_rhs_series(-1, x, 2), "b"),
    (lambda x: even_prefactor(3, x), "b"),
    (lambda x: odd_prefactor(3, x), "b"),
    (lambda x: coeff_A(3, x, 2), "b"),
    (lambda x: coeff_B(3, x, 2), "b"),
    (lambda x: beta_moment(3, x, 4), "d"),
    (lambda x: beta_moment(3, F(1, 2), x), "e"),
    (lambda x: _sweep(a=x), "a"),
    (lambda x: _sweep(b=x), "b"),
    (lambda x: _sweep(d=x), "d"),
    (lambda x: _sweep(e=x), "e"),
    (lambda x: _sweep(argument=x), "theorem_argument"),
], ids=["TruncatedSeries", "pochhammer", "pochhammer_duplication", "scale",
        "transform_lhs-a", "transform_lhs-b", "transform_rhs-a",
        "transform_rhs-b", "kummer_rhs-a", "kummer_rhs-b", "even_prefactor",
        "odd_prefactor", "coeff_A", "coeff_B", "beta_moment-d",
        "beta_moment-e", "grid_sweep-a", "grid_sweep-b", "grid_sweep-d",
        "grid_sweep-e", "grid_sweep-argument"])
def test_exact_constructors_refuse_a_float(make, name):
    # 0.1 would be read at its binary value, not at 1/10
    with pytest.raises(TypeError, match=f"^{name} must be exact, not a float$"):
        make(0.1)
    assert make("0.1") == make(F(1, 10))


def test_spec_equality_ignores_its_row_cache():
    make, twin, _ = VALUES["HyperSpec"]
    spec, other = make(), twin()
    spec.rows(3)
    assert spec == other and hash(spec) == hash(other)
    assert pickle.loads(pickle.dumps(spec)) == other


def test_case_normalizes_its_parameters_and_finds_its_branch():
    case = IdentityCase(3, -2, 1, F(1, 2), 4)
    assert [type(x) for x in (case.a, case.b, case.d, case.e)] == [F] * 4
    assert verify_theorem(case).branch == "a"
    assert verify_theorem(IdentityCase(3, F(1, 3), 1, -1, 4)).branch == "d"
    assert verify_theorem(IdentityCase(3, F(1, 3), 1, F(1, 2), 4)).branch is None


def test_importing_the_cli_loads_no_dataclasses_machinery():
    # The value types are plain classes: importing the package loads
    # neither dataclasses nor inspect (and with it dis, ast and tokenize).
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, hyperverify.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_a_run_in_one_process_loads_no_process_pool():
    # Only selftest --jobs 2 and up start a pool, so neither a selftest
    # at --jobs 1 nor a run at --jobs 2 imports concurrent.futures or
    # multiprocessing; both exit 1 on their failures.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    golden = str(ROOT / "tests" / "golden_config.json")
    code = ("import contextlib, io, sys\n"
            "from hyperverify import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['selftest', '--jobs', '1']),\n"
            f"             cli.main(['run', '--config', {golden!r}, '--jobs', '2'])]\n"
            "loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
            "print(*codes, sorted(loaded))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "1 1 []\n"


@pytest.mark.parametrize("err", [
    PoleError(-3),
    TranscendentalResidue(F(1, 2)),
    DenominatorPoleBeforeTermination(F(-2), index=3),
    DenominatorPoleBeforeTermination(-1),
    UnsupportedJ(7, limit=3),
    NonTerminatingSeries("no numerator parameter terminates the series"),
    InvalidCase("e must be nonzero"),
], ids=lambda err: type(err).__name__)
def test_errors_survive_a_pickle_round_trip(err):
    # Each error type rebuilds itself from a pickle, as an error raised in
    # a pool worker must to reach the parent.
    restored = pickle.loads(pickle.dumps(err))
    assert type(restored) is type(err)
    assert str(restored) == str(err) and restored.args == err.args
    assert vars(restored) == vars(err)
