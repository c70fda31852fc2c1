"""Benchmark of hyperverify verdicts through its public CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULTS.jsonl]

Runs one workload (see workloads.py) for S seconds of timed passes, checks
every verdict (verdicts.py) and prints, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones, from passes traced by
tracing.py alternated with untraced passes.  ``--out`` appends the result
with its context (machine, Python, commit, source size) to a result set
that compare.py reads.  A verdict that differs from the expected one stops
the run with exit code 1 and no result; a checkout without the hyperverify
sources exits with code 2.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Timed passes continue while the next one is expected to end within the
# run's seconds; at least MIN_PASSES run so every median has a middle.
MIN_PASSES = 3
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 170

# The metrics BENCHMARK.json lists; run.py prints wall_s and verified_per_s
# too, as measured, but does not put them in the result.
END_TO_END = {
    "wall_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# On a shared host the speed of the CPU drifts by up to 1.8x over minutes,
# the same for every core and every process, which is wider than any bound
# on a wall time.  wall_ratio divides each pass by the mean time of a fixed
# reference kernel run just before and just after it: a Cauchy product of
# two rational power series in the standard library's Fraction, the kind of
# work the verifier does.  The kernel does not import hyperverify, so no
# change to the package moves it.
REF_TERMS = 40
REF_REPEATS = 40


def _ref_series(a, b):
    coeffs = [Fraction(1)]
    for k in range(REF_TERMS - 1):
        coeffs.append(coeffs[-1] * (a + k) / ((b + k) * (k + 1)))
    return coeffs


REF_A = _ref_series(Fraction(1, 3), Fraction(5, 7))
REF_B = _ref_series(Fraction(2, 5), Fraction(3, 11))


def reference_seconds():
    """Time of the reference kernel, about 0.3 s on a 2.1 GHz Xeon."""
    start = time.perf_counter()
    for _ in range(REF_REPEATS):
        [sum(REF_A[i] * REF_B[k - i] for i in range(k + 1)) for k in range(REF_TERMS)]
    return time.perf_counter() - start


# A fresh interpreter's set-up: import the package, parse the config.  The
# child times this itself, so the interpreter's own start is left out.
SETUP_CODE = """
import time
start = time.perf_counter()
import json, sys
from hyperverify import cli
if len(sys.argv) > 1:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cli.SweepConfig.from_dict(json.load(fh))
print(time.perf_counter() - start)
"""

# One pass in a fresh interpreter, for its peak memory: the process's own
# peak plus the largest peak among its (joined) worker processes.
RSS_CODE = """
import contextlib, io, json, resource, sys
from hyperverify import cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
      + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(json.dumps({"code": code, "stdout": out.getvalue(), "kb": kb}))
"""


class GateError(Exception):
    """A verdict or a report differs from the expected one."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _child(code, args):
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=_child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )


class Bench:
    """One workload's passes, all checked against the first one's output."""

    def __init__(self, workload, workdir: Path):
        import verdicts

        self.workload = workload
        self.config = str(workdir / "config.json")
        self.report = str(workdir / "report.json")
        if workload.is_run:
            Path(self.config).write_text(
                json.dumps(workload.config, indent=2) + "\n", encoding="utf-8")
        self.verdicts = verdicts
        self.reasons = verdicts.reason_names()
        self.reference = None  # (exit code, output bytes, Verdict)
        self.attempted = 0
        self.bad = 0

    def argv(self, jobs=None):
        return self.workload.command(self.config, self.report, jobs)

    def check(self, code: int, body: bytes):
        """Gate one pass's output; returns its Verdict."""
        if self.reference is None:
            if self.workload.is_run:
                verdict = self.verdicts.check_report(body, code, self.reasons)
            else:
                verdict = self.verdicts.check_selftest(body.decode(), code)
            if verdict.problems:
                raise GateError("; ".join(verdict.problems))
            self.reference = (code, body, verdict)
        elif (code, body) != self.reference[:2]:
            raise GateError(
                "output differs from the first pass of this run "
                f"(exit code {code} vs {self.reference[0]}, "
                f"{len(body)} vs {len(self.reference[1])} bytes)")
        verdict = self.reference[2]
        self.attempted += verdict.records
        self.bad += verdict.bad
        return verdict

    def output(self, stdout: str) -> bytes:
        if self.workload.is_run:
            return Path(self.report).read_bytes()
        return stdout.encode()

    def one_pass(self, jobs=None):
        """One in-process pass through hyperverify.cli.main; returns
        (wall seconds, output bytes)."""
        from hyperverify import cli

        out, err = io.StringIO(), io.StringIO()
        argv = self.argv(jobs)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        body = self.output(out.getvalue())
        self.check(code, body)
        return wall, body

    def setup_seconds(self):
        args = [self.config] if self.workload.is_run else []
        times = [float(_child(SETUP_CODE, args).stdout.split()[-1])
                 for _ in range(SETUP_REPEATS + 1)]
        return statistics.median(times[1:])  # the first one warms the disk cache

    def peak_rss_mb(self):
        proc = _child(RSS_CODE, self.argv())
        result = json.loads(proc.stdout.splitlines()[-1])
        self.check(result["code"], self.output(result["stdout"]))
        return result["kb"] / 1024


def _repeat(seconds, one_round):
    """Call one_round until the next call would end past seconds; returns
    the rounds' results."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_round())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            return results


def measure_end_to_end(bench, seconds):
    peak = bench.peak_rss_mb()
    setup = bench.setup_seconds()

    def timed_round():
        ref = reference_seconds()
        return ref, bench.one_pass()[0]

    rounds = _repeat(seconds, timed_round)
    refs = [ref for ref, _ in rounds] + [reference_seconds()]
    walls = [wall for _, wall in rounds]
    ratios = [wall / ((refs[i] + refs[i + 1]) / 2) for i, wall in enumerate(walls)]
    if bench.workload.is_run:
        bench.one_pass(jobs=2)  # --jobs 2 must reproduce the report byte for byte
    verified = bench.reference[2].verified
    metrics = {
        "wall_ratio": statistics.median(ratios),
        "setup_s": setup,
        "peak_rss_mb": peak,
    }
    wall = statistics.median(walls)
    lines = [
        f"wall_s          {wall:.4f} s     median of {len(walls)} passes: "
        + " ".join(f"{w:.3f}" for w in walls),
        f"verified_per_s  {statistics.median(verified / w for w in walls):.4f} 1/s   "
        f"{verified} records passed or failed per pass",
        f"reference_s     {statistics.median(refs):.4f} s     median of {len(refs)} "
        "reference kernels, one before and one after each pass",
        f"wall_ratio      {metrics['wall_ratio']:.4f} ratio median over passes of "
        "wall_s / mean of the two reference kernels around the pass",
        f"setup_s         {setup:.4f} s     median of {SETUP_REPEATS} fresh interpreters",
        f"peak_rss_mb     {peak:.4f} MB    one pass in a fresh interpreter, "
        "plus its largest worker",
    ]
    return lines, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def measure_per_layer(bench, seconds):
    import tracing

    workload = bench.workload
    # Workers of a pool are not traced: on a --jobs 2 workload only the
    # layers that run in this process, cli and suites, are recorded.
    layers = ("cli", "suites") if workload.jobs > 1 else tracing.LAYERS
    bench.one_pass()  # the gate's reference comes from an untraced pass
    tracers = []

    def traced_pass():
        tracer = tracing.Tracer()
        inst = tracing.install(tracer, layers)
        try:
            wall, body = bench.one_pass()
        finally:
            inst.restore()
        tracers.append((tracer, len(body)))
        return wall

    def one_round():
        # (untraced wall, traced wall), alternating which one runs first
        if len(tracers) % 2:
            traced = traced_pass()
            return bench.one_pass()[0], traced
        return bench.one_pass()[0], traced_pass()

    rounds = _repeat(seconds, one_round)
    untraced = statistics.median(r[0] for r in rounds)
    traced = statistics.median(r[1] for r in rounds)

    per_pass = []
    for tracer, report_bytes in tracers:
        values = tracing.pass_metrics(tracer)
        values["cli.report_bytes"] = report_bytes
        per_pass.append(values)
    metrics, counters = {}, {}
    for name in per_pass[0]:
        values = [v[name] for v in per_pass]
        if tracing.is_count(name):
            if len(set(values)) != 1:
                raise GateError(f"counter {name} did not repeat: {values}")
            counters[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    cases = sorted(t for tracer, _ in tracers for t in tracer.case_times)
    p50, (tail_pct, tail) = _percentile(cases, 50), _tail(cases)
    metrics["identities.case_p50_ms"] = p50 * 1000
    metrics["identities.case_tail_ms"] = tail * 1000
    metrics["trace_overhead_frac"] = traced / untraced - 1

    shares = ", ".join(f"{layer} {metrics[layer + '.self_s'] / traced:.1%}"
                       for layer in layers)
    lines = [f"traced layers {', '.join(layers)}; {len(rounds)} traced and "
             f"{len(rounds)} untraced passes, wall {traced:.4f} s traced vs "
             f"{untraced:.4f} s untraced",
             f"self time as a share of traced wall: {shares}",
             f"cases timed {len(cases)}; tail is p{tail_pct:g}",
             "timings (median over traced passes):"]
    lines += [f"  {n:<30} {metrics[n]:.6f} {tracing.PER_LAYER[n][0]}"
              for n in sorted(metrics)]
    lines.append("counters (identical on every traced pass):")
    lines += [f"  {n:<30} {counters[n]} {tracing.PER_LAYER[n][0]}"
              for n in sorted(counters)]
    out = {**metrics, **counters}
    return lines, {n: (out[n], tracing.PER_LAYER[n][0]) for n in tracing.PER_LAYER}


def _percentile(sorted_values, pct):
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, int(len(sorted_values) * pct / 100))
    return sorted_values[k]


def _tail(sorted_values):
    """The highest of the usual percentiles with at least 10 values beyond it."""
    best = (50, _percentile(sorted_values, 50))
    for pct in (75, 90, 95, 99, 99.9):
        if len(sorted_values) * (100 - pct) / 100 >= 10:
            best = (pct, _percentile(sorted_values, pct))
    return best


def context(seed):
    """What a result set records besides its metrics."""
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "hyperverify").rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "seed": seed,
            "commit": commit, "src_lines": src_lines}


def _parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSONL file")
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "hyperverify" / "__init__.py").is_file():
        print(f"perfbench: no hyperverify sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hyperverify
    import workloads

    if Path(hyperverify.__file__).resolve().parent != SRC / "hyperverify":
        print(f"perfbench: imported hyperverify from {hyperverify.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workload = workloads.make(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(workload, workdir)
        measure = measure_per_layer if args.trace else measure_end_to_end
        lines, metrics = measure(bench, args.seconds)
    except GateError as err:
        print(f"perfbench: verdict check failed on {workload.name}: {err}",
              file=sys.stderr)
        return 1
    except subprocess.SubprocessError as err:
        print(f"perfbench: child interpreter failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed} config "
          f"{json.dumps(workload.config) if workload.is_run else 'selftest'} "
          f"jobs {workload.jobs}")
    print(*lines, sep="\n")
    print(f"bad_verdict_frac {bench.bad / bench.attempted:g} "
          f"({bench.bad} of {bench.attempted} records checked)")
    result = {
        "correct": bench.bad == 0,
        "attempted": bench.attempted,
        "failed": bench.bad,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        entry = {"workload": workload.name, "seed": args.seed,
                 "trace": args.trace, "seconds": args.seconds,
                 "context": context(args.seed), **result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
