"""bench/fold.py: the BENCH file folded from result lines."""

import argparse
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("fold", ROOT / "bench" / "fold.py")
fold = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fold)


def entry(workload, seed, wall_ratio):
    return {"workload": workload, "seed": seed, "trace": 0,
            "context": {"nproc": 2, "cpu": "cpu", "python": "3.x"},
            "metrics": {"wall_ratio": {"value": wall_ratio, "unit": "ratio"},
                        "setup_s": {"value": 0.03, "unit": "s"},
                        "peak_rss_mb": {"value": 19.0, "unit": "MB"}}}


def test_fold_gives_medians_quartiles_and_the_verdict_by_seed():
    seeds = list(range(1, 11))
    entries = {
        "parent": [entry("canonical", s, 0.28 + s / 1000) for s in seeds],
        "change": [entry("canonical", s, 0.24 + s / 1000) for s in seeds],
    }
    columns = {"parent": ROOT, "change": ROOT}
    result = fold.fold(columns, entries, seeds, 5.0)
    assert result["machine"] == {"nproc": [2], "cpu": ["cpu"], "python": ["3.x"]}
    assert result["columns"]["change"]["src_lines"] > 0
    assert result["columns"]["change"]["ast_nodes"] > 0
    wall = result["workloads"]["canonical"]["wall_ratio"]
    assert wall["parent"]["median"] == pytest.approx(0.2855)
    assert wall["change"]["median"] == pytest.approx(0.2455)
    assert wall["parent"]["q1"] < wall["parent"]["median"] < wall["parent"]["q3"]
    assert [seed for seed, _ in wall["change"]["runs"]] == seeds
    assert wall["change_vs_parent"] == {"verdict": "improved", "won": 10,
                                        "pairs": 10}
    setup = result["workloads"]["canonical"]["setup_s"]
    assert setup["change_vs_parent"]["verdict"] == "unchanged"
    assert setup["bound"] == 0.25 and setup["better"] == "lower"


def test_a_column_names_a_checkout_with_the_benchmark(tmp_path):
    assert fold._column(f"change={ROOT}") == ("change", ROOT)
    for bad in ("change", f"={ROOT}", f"parent={tmp_path}"):
        with pytest.raises(argparse.ArgumentTypeError):
            fold._column(bad)
