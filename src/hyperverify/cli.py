"""Batch verification driver: config in, deterministic JSON report out.

Exit codes: 0 when every evaluated case passed (skips are fine), 1 when any
identity failed or a check crashed, 2 for config, option or I/O problems
and for a record value or a table weight too long to print.  Reports
carry rationals as exact "p/q" strings and contain no timestamps, so a
given build produces byte-identical output for a given config,
regardless of --jobs.
"""

import argparse
import functools
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction

from .identities import (J_LIMIT, _SERIES_ORDER, VerificationRecord, coeff_A,
                         coeff_B, grid_sweep)
from .suites import ALL_SUITES, J_FULL

# Config check name -> grid_sweep check name; "corollaries" is the config
# spelling of the "corollary" check.
_CHECK_FOR_CONFIG = {
    "theorem": "theorem",
    "corollaries": "corollary",
    "transform": "transform",
    "kummer": "kummer",
    "pipeline": "pipeline",
}
CONFIG_CHECKS = tuple(_CHECK_FOR_CONFIG)
_CONFIG_FIELDS = (
    "checks", "jSet", "aSet", "bSet", "dSet", "eSet",
    "seriesOrder", "theoremArgument",
)
MAX_SERIES_ORDER = 256


class ConfigParseError(Exception):
    """The sweep configuration is malformed; details in the message."""


def _is_rational_text(text: str) -> bool:
    """True for an optional sign, ASCII digits and an optional "/digits"
    (so no decimal point, exponent, underscore or space)."""
    if text.startswith(("+", "-")):
        text = text[1:]
    parts = text.split("/")
    return len(parts) <= 2 and all(p.isascii() and p.isdigit() for p in parts)


def _shown(value, show=repr) -> str:
    """show(value) for a message, cut to a short prefix."""
    text = show(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _int_text(text: str) -> int:
    """A command-line integer; the message of a bad one echoes a short
    prefix only."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {_shown(text)}") from None


def _json_int(text: str) -> int:
    """An integer literal of a config; one past the interpreter's
    int-string conversion limit is named, with a short prefix only."""
    try:
        return int(text)
    except ValueError:
        raise ConfigParseError(
            f"{_shown(text)} is not an integer (too many digits)") from None


def _parse_rational(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigParseError(
            f"{where}: rationals must be integers or 'p/q' strings, "
            f"got {_shown(value)}"
        )
    text = str(value)
    if not _is_rational_text(text):
        reason = "expected an integer or 'p/q'"
    else:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            reason = "zero denominator"
        except ValueError:
            # the text is well formed, so a part is past the interpreter's
            # int-string conversion limit
            reason = "too many digits"
    raise ConfigParseError(f"{where}: {_shown(value)} is not a rational ({reason})")


def _parse_rational_list(raw, where: str) -> tuple:
    if not isinstance(raw, list):
        raise ConfigParseError(f"{where}: expected a list")
    return tuple(_parse_rational(v, where) for v in raw)


class SweepConfig(namedtuple(
        "SweepConfig", "checks j_set a_set b_set d_set e_set series_order "
        "theorem_argument", defaults=((),) * 6 + (_SERIES_ORDER, "two"))):
    __slots__ = ()

    @classmethod
    def from_dict(cls, raw) -> "SweepConfig":
        if not isinstance(raw, dict):
            raise ConfigParseError("config must be a JSON object")
        unknown = sorted(set(raw) - set(_CONFIG_FIELDS))
        if unknown:
            raise ConfigParseError(
                f"unknown config fields: {_shown(', '.join(unknown), str)}")

        checks = raw.get("checks", [])
        if not isinstance(checks, list) or not all(
            isinstance(c, str) for c in checks
        ):
            raise ConfigParseError("checks: expected a list of strings")
        bad = sorted(set(checks) - set(CONFIG_CHECKS))
        if bad:
            raise ConfigParseError(
                f"checks: unknown names {_shown(', '.join(bad), str)}; "
                f"valid: {', '.join(CONFIG_CHECKS)}"
            )

        j_raw = raw.get("jSet", [])
        if not isinstance(j_raw, list):
            raise ConfigParseError("jSet: expected a list")
        j_set = []
        for j in j_raw:
            if isinstance(j, bool) or not isinstance(j, int):
                raise ConfigParseError(f"jSet: {_shown(j)} is not an integer")
            if abs(j) > J_LIMIT:
                raise ConfigParseError(
                    f"jSet: j={_shown(j)} outside [{-J_LIMIT}, {J_LIMIT}]")
            j_set.append(j)

        order = raw.get("seriesOrder", _SERIES_ORDER)
        if isinstance(order, bool) or not isinstance(order, int):
            raise ConfigParseError("seriesOrder: expected an integer")
        if not 1 <= order <= MAX_SERIES_ORDER:
            raise ConfigParseError(
                f"seriesOrder: {_shown(order)} outside [1, {MAX_SERIES_ORDER}]"
            )

        argument = raw.get("theoremArgument", "two")
        if argument not in ("one", "two"):
            raise ConfigParseError(
                f"theoremArgument: {_shown(argument)} is neither 'one' nor 'two'"
            )

        a_set = _parse_rational_list(raw.get("aSet", []), "aSet")
        if "pipeline" in checks:
            # at an integer a = -m the pipeline expands the left side to
            # degree 2m; at any other a it does not run
            for a in a_set:
                if a.denominator == 1 and -2 * a > MAX_SERIES_ORDER:
                    raise ConfigParseError(
                        f"aSet: a={_shown(int(a))} gives the pipeline degree "
                        f"{_shown(-2 * int(a))}, past {MAX_SERIES_ORDER}"
                    )

        return cls(
            checks=tuple(checks),
            j_set=tuple(j_set),
            a_set=a_set,
            b_set=_parse_rational_list(raw.get("bSet", []), "bSet"),
            d_set=_parse_rational_list(raw.get("dSet", []), "dSet"),
            e_set=_parse_rational_list(raw.get("eSet", []), "eSet"),
            series_order=order,
            theorem_argument=argument,
        )

    def echo(self) -> dict:
        return {
            "checks": list(self.checks),
            "jSet": list(self.j_set),
            "aSet": [str(a) for a in self.a_set],
            "bSet": [str(b) for b in self.b_set],
            "dSet": [str(d) for d in self.d_set],
            "eSet": [str(e) for e in self.e_set],
            "seriesOrder": self.series_order,
            "theoremArgument": self.theorem_argument,
        }


def _fmt(value):
    if value is None:
        return None
    if isinstance(value, tuple):
        return [str(c) for c in value]
    return str(value)


def _record_json(rec: VerificationRecord) -> dict:
    return {
        "check": rec.check,
        "j": rec.j,
        "a": _fmt(rec.a),
        "b": _fmt(rec.b),
        "d": _fmt(rec.d),
        "e": _fmt(rec.e),
        "branch": rec.branch,
        "lhs": _fmt(rec.lhs),
        "rhs": _fmt(rec.rhs),
        "equal": rec.equal,
        "error": rec.error,
    }


def _sort_key(rec: VerificationRecord):
    # within one check a field is None in every record or in none, and
    # equal Nones never reach <, so the fields sort as they are
    return rec.check, rec.j, rec.a, rec.b, rec.d, rec.e


def _summary(records) -> dict:
    counts = {"passed": 0, "failed": 0, "errored": 0, "skipped": 0}
    for rec in records:
        counts[rec.status] += 1
    return counts


def _exit_code(summary: dict) -> int:
    return 0 if summary["failed"] == 0 and summary["errored"] == 0 else 1


class WorkerError(RuntimeError):
    """A pool worker ended without sending its results, or raised an
    error that cannot be pickled; the message names the exit code, or
    the error's type and message."""


def _map_share(sender, fn, share, cpus):
    """A pool worker's whole work: pinned to its CPU set `cpus` unless
    that is None, fn over its round-robin share of a map's items, sent
    back over the pipe as (True, results), or as (False, the error) when
    fn raises.  An error that does not survive a pickle round trip,
    which the caller's read would need, goes as a WorkerError."""
    try:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
        reply = True, [fn(item) for item in share]
    except Exception as exc:
        import pickle
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = WorkerError(f"{type(exc).__name__}: {exc}")
        reply = False, exc
    sender.send(reply)


class _Worker:
    """One worker process and the read end of its one-way pipe."""

    def __init__(self, fn, share, cpus):
        import multiprocessing
        self.receiver, sender = multiprocessing.Pipe(duplex=False)
        self.process = multiprocessing.Process(
            target=_map_share, args=(sender, fn, share, cpus))
        self.process.start()
        # the worker holds the only write end left, so its death reads as EOF
        sender.close()

    def result(self):
        """The share's results, or its error raised here.  The reply is
        read before the worker is joined: a large one fills the pipe,
        and the worker cannot exit before it is read."""
        try:
            ok, value = self.receiver.recv()
        except EOFError:
            self.process.join()
            raise WorkerError(
                f"pool worker {self.process.pid} exited with code "
                f"{self.process.exitcode} before it sent its results") from None
        self.process.join()
        if not ok:
            raise value
        return value

    def stop(self):
        """Terminate the worker unless it has been joined, join it and
        close the pipe."""
        self.process.terminate()
        self.process.join()
        self.receiver.close()


def _cpu_mask():
    """The CPUs this process may run on; empty without affinity calls."""
    if hasattr(os, "sched_getaffinity"):
        return os.sched_getaffinity(0)
    return set()


class ProcessPoolExecutor:
    """Worker processes, one per submit, each of which sends its one
    reply back over a one-way pipe, so the caller runs no helper thread.
    multiprocessing is imported at the first submit, so a run in one
    process never loads it.  `max_workers` is the number of submits to
    come.  Leaving the block terminates every worker whose reply was not
    read, and joins them all.

    Each share gets its own CPUs: the process's CPU mask is dealt
    round-robin into `max_workers + 1` sets; entering the block pins the
    caller, share 0, to the first, each worker pins itself to the next,
    and shutdown gives the caller back its whole mask.  Left to itself,
    Linux may start a worker on the busy caller's CPU and keep the two
    there, so the shares take turns.  A share with no CPU of its own,
    as with no affinity calls, keeps the mask it is started with."""

    def __init__(self, max_workers):
        self._workers = []
        self._mask = _cpu_mask()
        cpus = sorted(self._mask)
        self._cpus = [set(cpus[k::max_workers + 1]) or None
                      for k in range(max_workers + 1)]

    def submit(self, fn, share):
        """Start a worker that maps fn over the share; returns it, and
        its result() gives the results in order."""
        worker = _Worker(fn, share, self._cpus[len(self._workers) + 1])
        self._workers.append(worker)
        return worker

    def shutdown(self):
        try:
            for worker in self._workers:
                worker.stop()
        finally:
            if self._mask:
                os.sched_setaffinity(0, self._mask)

    def __enter__(self):
        if self._cpus[0]:
            os.sched_setaffinity(0, self._cpus[0])
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


def _pool_map(fn, items, jobs: int) -> list:
    """An order-preserving map over at most `jobs` workers, one per CPU
    the process may run on and one per item; the builtin map, with no
    pool, when that leaves a single worker.  The items are dealt
    round-robin: item i goes to share i mod workers, so neighbouring
    items, which often cost alike, land on different workers.  The
    caller is share 0: it starts one process for each later share, maps
    its whole share itself with `fn` as given, then reads each worker's
    one reply.  The list of results, in item order, is returned after
    the pool has shut down, so no worker outlives the call.  Each
    worker process maps its share with its own copy of `fn`.
    """
    items = list(items)
    workers = min(jobs, len(_cpu_mask()) or os.cpu_count() or 1, len(items))
    if workers <= 1:
        return list(map(fn, items))
    shares = [items[k::workers] for k in range(workers)]
    with ProcessPoolExecutor(max_workers=workers - 1) as pool:
        later = [pool.submit(fn, share) for share in shares[1:]]
        replies = [list(map(fn, shares[0]))]
        replies += [worker.result() for worker in later]
    return [replies[i % workers][i // workers] for i in range(len(items))]


def run(config_path: str, out_path: str | None = None) -> int:
    """Execute a sweep config and emit the JSON report; returns the exit code."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_int=_json_int)
        config = SweepConfig.from_dict(raw)
    except (OSError, ValueError, RecursionError, ConfigParseError) as err:
        # ValueError: malformed JSON; RecursionError: nested too deep
        print(f"hyperverify: config error: {err}", file=sys.stderr)
        return 2

    records = sorted(grid_sweep(
        config.j_set, config.a_set, config.b_set, config.d_set,
        config.e_set, tuple(_CHECK_FOR_CONFIG[c] for c in config.checks),
        series_order=config.series_order,
        theorem_argument=2 if config.theorem_argument == "two" else 1,
    ), key=_sort_key)
    summary = _summary(records)
    # every record is formatted before anything is written, so a value
    # past the int-string conversion limit writes no report
    try:
        formatted = [_record_json(r) for r in records]
    except ValueError:
        print("hyperverify: a record value has more than "
              f"{sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 2
    report = {"config": config.echo(), "records": formatted, "summary": summary}
    body = json.dumps(report, indent=2) + "\n"
    try:
        if out_path is None:
            sys.stdout.write(body)
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(body)
    except OSError as err:
        print(f"hyperverify: cannot write report: {err}", file=sys.stderr)
        return 2
    print(
        "hyperverify: {passed} passed, {failed} failed, {errored} errored, "
        "{skipped} skipped".format(**summary),
        file=sys.stderr,
    )
    return _exit_code(summary)


_SUMMARY_LINE = (
    "{name:<12} records={n:<5} passed={passed:<5} failed={failed:<4} "
    "errored={errored:<4} skipped={skipped}"
)


def _suite_summary(suite, memo) -> tuple:
    """Run one suite in this process under the given sweep memo; only its
    name, record count and summary leave it."""
    records = suite.run(memo)
    return suite.name, len(records), _summary(records)


def selftest(jobs: int = 1) -> int:
    """Run the canonical suites with no config; print one line per suite.

    The suites share one sweep memo, made for this call; on a pool the
    suites are dealt round-robin, the caller's own share works that
    memo, and each worker process's share works its own copy of it.
    The lines print in suite order.
    """
    totals = {"passed": 0, "failed": 0, "errored": 0, "skipped": 0}
    count = 0
    summaries = _pool_map(functools.partial(_suite_summary, memo={}),
                          ALL_SUITES, jobs)
    for name, n, summary in summaries:
        count += n
        for key in totals:
            totals[key] += summary[key]
        print(_SUMMARY_LINE.format(name=name, n=n, **summary))
    code = _exit_code(totals)
    print(_SUMMARY_LINE.format(name="total", n=count, **totals))
    print(f"selftest: {'PASS' if code == 0 else 'FAIL'}")
    return code


def table(j: int | None, b, n: int) -> int:
    """Print the even/odd weight table evaluated at (b, n).  Every line is
    formatted before any prints, so a weight past the interpreter's
    int-string conversion limit prints nothing and exits 2."""
    shifts = [j] if j is not None else J_FULL
    try:
        lines = [f"j={s:<3} A={coeff_A(s, b, n)} B={coeff_B(s, b, n)}"
                 for s in shifts]
    except ValueError:
        print("hyperverify: a weight at this (b, n) has more than "
              f"{sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperverify",
        description="Exact verification of a family of hypergeometric identities "
        "over rational parameter grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the checks described by a JSON config")
    p_run.add_argument("--config", required=True, help="path to the sweep config")
    p_run.add_argument("--out", help="write the report here instead of stdout")
    p_run.add_argument("--jobs", type=_int_text, default=1,
                       help="accepted and ignored: run evaluates in one "
                       "process")

    p_self = sub.add_parser("selftest", help="run the built-in canonical suites")
    p_self.add_argument("--jobs", type=_int_text, default=1,
                        help="processes that share the six suites, this one "
                        "included, so 2 starts one worker; at most one per "
                        "suite and per CPU it may run on (default 1)")

    p_table = sub.add_parser("table", help="print the weight table at (b, n)")
    p_table.add_argument("--j", type=_int_text, help="single shift (default: all)")
    p_table.add_argument("--b", required=True, help="rational b, e.g. 1/3")
    p_table.add_argument("--n", required=True, type=_int_text,
                         help="summation index")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a "-p/q" value after --b for an option, so a rational
    # after --b is joined to it
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--b" and _is_rational_text(argv[i]):
            argv[i - 1:i + 1] = [f"--b={argv[i]}"]
    args = _build_parser().parse_args(argv)
    if args.command in ("run", "selftest") and args.jobs < 1:
        print("hyperverify: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.command == "run":
        return run(args.config, args.out)
    if args.command == "selftest":
        return selftest(args.jobs)
    # the subcommand is required, so this one is table
    if args.j is not None and abs(args.j) > J_LIMIT:
        print(f"hyperverify: j={_shown(args.j)} outside [{-J_LIMIT}, {J_LIMIT}]",
              file=sys.stderr)
        return 2
    if args.n < 0:
        print(f"hyperverify: --n must be >= 0, got {_shown(args.n)}",
              file=sys.stderr)
        return 2
    try:
        b = _parse_rational(args.b, "bad --b value")
    except ConfigParseError as err:
        print(f"hyperverify: {err}", file=sys.stderr)
        return 2
    return table(args.j, b, args.n)


def console_main() -> None:
    sys.exit(main())
