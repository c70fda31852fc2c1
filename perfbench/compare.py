"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

A result set is the JSONL file that ``run.py --out`` appends to, one line
per run.  For each workload and metric this prints both sides' medians and
quartiles, the pairs the change won, and a verdict:

* ``improved``: the change wins at least 9 in 10 pairs and the medians
  differ by more than the base's quartile spread, or the spread is wider
  than the bound but every change run beats every base run;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound (per-layer metrics have no bound: the mirror image of
  ``improved``);
* ``unresolved``: a side's quartile spread is wider than the bound;
* ``unchanged``: none of these.

Every run is kept, repeated seeds too.  Runs are paired by seed when both
sets ran the same seeds, each once, else in the order they were recorded.
Ties win for neither side.  The recorded context (machine, Python, seeds,
commit, source line count) is printed for each set; the line count is
context, not a metric.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CONTEXT_KEYS = ("nproc", "cpu", "python", "commit", "src_lines")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_specs():
    """name -> (better, bound or None), from BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def by_metric(entries):
    """(workload, metric) -> [(seed, value), ...] in recorded order, plus units."""
    values, units = defaultdict(list), {}
    for e in entries:
        for name, m in e["metrics"].items():
            values[(e["workload"], name)].append((e["seed"], m["value"]))
            units[name] = m["unit"]
    return values, units


def pairs_of(base, change):
    """(base value, change value) pairs: by seed when both sides ran the
    same seeds, each once, else in recorded order."""
    seeds = [s for s, _ in base]
    if len(set(seeds)) == len(seeds) and sorted(seeds) == sorted(s for s, _ in change):
        by_seed = dict(change)
        return [(v, by_seed[s]) for s, v in sorted(base)]
    return [(b, c) for (_, b), (_, c) in zip(base, change)]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    """Verdict and pairs won for two [(seed, value), ...] samples."""
    sign = 1 if better == "higher" else -1
    pairs = pairs_of(base, change)
    won = sum(1 for b, c in pairs if sign * (c - b) > 0)
    lost = sum(1 for b, c in pairs if sign * (c - b) < 0)
    a, c = [v for _, v in base], [v for _, v in change]
    med_a, med_c = statistics.median(a), statistics.median(c)
    q1, q3 = quartiles(a)
    iqr_a = q3 - q1
    gain = sign * (med_c - med_a)

    def spread(xs):
        lo, hi = quartiles(xs)
        m = statistics.median(xs)
        return (hi - lo) / abs(m) if m else 0.0

    if bound is not None and max(spread(a), spread(c)) > bound:
        beats_all = all(sign * (x - y) > 0 for x in c for y in a)
        return ("improved" if beats_all else "unresolved"), won, len(pairs)
    if pairs and won >= 0.9 * len(pairs) and gain > iqr_a:
        return "improved", won, len(pairs)
    if bound is not None:
        if -gain > bound * abs(med_a):
            return "worse", won, len(pairs)
    elif pairs and lost >= 0.9 * len(pairs) and -gain > iqr_a:
        return "worse", won, len(pairs)
    return "unchanged", won, len(pairs)


def describe(xs):
    q1, q3 = quartiles(xs)
    return f"{statistics.median(xs):.6g} [{q1:.6g}, {q3:.6g}]"


def context_lines(label, entries):
    lines = [f"{label}: {len(entries)} runs, seeds "
             f"{sorted({e['seed'] for e in entries})}"]
    for key in CONTEXT_KEYS:
        seen = sorted({str(e.get("context", {}).get(key)) for e in entries})
        lines.append(f"  {key}: {', '.join(seen)}")
    return lines


def compare(base_entries, change_entries):
    specs = metric_specs()
    base, units = by_metric(base_entries)
    change, _ = by_metric(change_entries)
    lines = context_lines("base", base_entries) + context_lines("change", change_entries)
    current = None
    for key in sorted(set(base) & set(change)):
        workload, name = key
        if name not in specs:
            continue
        if workload != current:
            current = workload
            lines.append(f"\nworkload {workload}")
            lines.append(f"  {'metric':<30} {'unit':<14} {'base median [q1, q3]':<34} "
                         f"{'change median [q1, q3]':<34} {'won':>7}  verdict")
        better, bound = specs[name]
        result, won, pairs = verdict(base[key], change[key], better, bound)
        lines.append(
            f"  {name:<30} {units[name]:<14} {describe([v for _, v in base[key]]):<34} "
            f"{describe([v for _, v in change[key]]):<34} {won:>3}/{pairs:<3}  {result}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    print("\n".join(compare(load(argv[0]), load(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
