"""Run the benchmark on one or more checkouts and fold it into one BENCH file.

    python3 bench/fold.py --out BENCH_31.json --seeds 10 --seconds 10 \\
        --workload canonical --workload canonical-j2 \\
        parent=/path/to/parent/checkout change=.

Each LABEL=DIR names a column: a checkout whose own ``perfbench/run.py``
measures its own sources.  For every seed 1..N and every workload, each
column runs ``perfbench/run.py --trace 0 --out`` once, the columns in the
order given on odd seeds and in reverse on even ones, so that a drift in
the host's speed falls on every column alike.  A run whose verdicts fail
stops the fold.

The BENCH file holds the machine context; per column its commit, a hash
of its sources, and the line and AST node counts of ``src/hyperverify``
(counted as the CI step counts them); and per workload and end-to-end
metric of BENCHMARK.json, each column's runs by seed, with their median
and quartiles, and each later column's verdict against the first, as
``perfbench/compare.py`` gives it.
"""

import argparse
import ast
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import compare  # noqa: E402

MACHINE_KEYS = ("nproc", "cpu", "python")


def source_size(checkout: Path) -> dict:
    """Line and AST node counts, and a sha256, of the package sources."""
    files = sorted((checkout / "src" / "hyperverify").glob("*.py"))
    texts = [f.read_text(encoding="utf-8") for f in files]
    digest = hashlib.sha256()
    for f, text in zip(files, texts):
        digest.update(f"{f.name}\n{text}".encode())
    return {
        "src_lines": sum(len(t.splitlines()) for t in texts),
        "ast_nodes": sum(sum(1 for _ in ast.walk(ast.parse(t))) for t in texts),
        "src_sha256": digest.hexdigest(),
    }


def commit_of(checkout: Path) -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def run_columns(columns, workloads, seeds, seconds, lines_dir: Path) -> dict:
    """label -> the result lines its runs appended, all seeds and workloads."""
    paths = {label: lines_dir / f"{label}.jsonl" for label in columns}
    for i, seed in enumerate(seeds):
        order = list(columns.items())
        if i % 2:
            order.reverse()
        for workload in workloads:
            for label, checkout in order:
                argv = [sys.executable, str(checkout / "perfbench" / "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0",
                        "--out", str(paths[label])]
                done = subprocess.run(argv, cwd=checkout, capture_output=True,
                                      text=True, check=False)
                if done.returncode != 0:
                    raise SystemExit(f"fold: {label} {workload} seed {seed} "
                                     f"exited {done.returncode}:\n{done.stderr}")
                print(f"{label:<10} {workload:<14} seed {seed:<3} "
                      f"{done.stdout.splitlines()[-1]}", flush=True)
    return {label: compare.load(path) for label, path in paths.items()}


def summary(values) -> dict:
    q1, q3 = compare.quartiles([v for _, v in values])
    return {"median": statistics.median(v for _, v in values),
            "q1": q1, "q3": q3, "runs": sorted(values)}


def fold(columns, entries, seeds, seconds) -> dict:
    specs = compare.metric_specs()
    labels = list(columns)
    contexts = [e["context"] for lines in entries.values() for e in lines]
    by_label = {label: compare.by_metric(lines)[0]
                for label, lines in entries.items()}
    units = compare.by_metric(entries[labels[0]])[1]
    workloads = {}
    for (workload, name), base in sorted(by_label[labels[0]].items()):
        better, bound = specs.get(name, (None, None))
        if bound is None:  # not an end-to-end metric
            continue
        row = {"unit": units[name], "better": better, "bound": bound,
               labels[0]: summary(base)}
        for label in labels[1:]:
            values = by_label[label][(workload, name)]
            result, won, pairs = compare.verdict(base, values, better, bound)
            row[label] = summary(values)
            row[f"{label}_vs_{labels[0]}"] = {
                "verdict": result, "won": won, "pairs": pairs}
        workloads.setdefault(workload, {})[name] = row
    return {
        "machine": {key: sorted({c[key] for c in contexts})
                    for key in MACHINE_KEYS},
        "seeds": seeds,
        "seconds": seconds,
        "order": "columns as listed on odd seeds, reversed on even seeds",
        "columns": {label: {"commit": commit_of(checkout),
                            **source_size(checkout)}
                    for label, checkout in columns.items()},
        "workloads": workloads,
    }


def _column(text: str):
    label, sep, path = text.partition("=")
    if not (sep and label and path):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, not {text!r}")
    checkout = Path(path).resolve()
    if not (checkout / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"no perfbench/run.py in {checkout}")
    return label, checkout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("columns", nargs="+", type=_column, metavar="LABEL=DIR")
    parser.add_argument("--out", required=True, help="the BENCH file to write")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, required=True, help="seeds 1..N")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    columns = dict(args.columns)
    if len(columns) != len(args.columns):
        parser.error("column labels must differ")
    seeds = list(range(1, args.seeds + 1))
    with tempfile.TemporaryDirectory() as tmp:
        entries = run_columns(columns, args.workload, seeds, args.seconds,
                              Path(tmp))
    result = fold(columns, entries, seeds, args.seconds)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
