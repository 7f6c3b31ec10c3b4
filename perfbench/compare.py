"""Compare two sets of benchmark results, e.g. a parent commit and a change.

Usage (from the repository root)::

    python3 perfbench/compare.py OLD_DIR NEW_DIR

Each directory holds the records ``perfbench/run.py --out DIR`` writes.  For
every workload and end-to-end metric the script prints both medians with
their quartiles, the change of the median, and how many seed-matched pairs
the new side wins (ties count for neither).  From the traced records it
prints the per-layer self-time deltas.  Directions and bounds come from
``BENCHMARK.json``; a median that is worse by more than its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path, trace: int):
    """workload -> seed -> metric name -> value."""
    runs = defaultdict(dict)
    for path in sorted(directory.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        runs[record["workload"]][record["seed"]] = {
            name: entry["value"] for name, entry in record["metrics"].items()
        }
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def fmt(value: float) -> str:
    return f"{value:.4g}"


def compare_end_to_end(old, new, spec) -> None:
    print(
        f"{'workload':<15}{'metric':<21}{'old median [q1, q3]':>30}"
        f"{'new median [q1, q3]':>30}{'change':>9}{'wins':>8}"
    )
    for workload in sorted(set(old) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            seeds = sorted(set(old[workload]) & set(new[workload]))
            before = [old[workload][s][name] for s in old[workload]]
            after = [new[workload][s][name] for s in new[workload]]
            b_q1, b_med, b_q3 = quartiles(before)
            a_q1, a_med, a_q3 = quartiles(after)
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(
                sign * (new[workload][s][name] - old[workload][s][name]) < 0
                for s in seeds
            )
            change = (a_med - b_med) / b_med if b_med else 0.0
            flag = "  REGRESSION" if sign * change > metric["bound"] else ""
            print(
                f"{workload:<15}{name:<21}"
                f"{fmt(b_med) + ' [' + fmt(b_q1) + ', ' + fmt(b_q3) + ']':>30}"
                f"{fmt(a_med) + ' [' + fmt(a_q1) + ', ' + fmt(a_q3) + ']':>30}"
                f"{change:>+9.1%}{f'{wins}/{len(seeds)}':>8}{flag}"
            )


def compare_layers(old, new, spec) -> None:
    names = [
        m["name"] for m in spec["per_layer"]
        if m["name"].endswith("busy_s") or m["name"] == "api.unattributed_s"
    ]
    print(
        f"\n{'workload':<15}{'layer self time per pass':<42}"
        f"{'old ms':>11}{'new ms':>11}{'delta ms':>11}"
    )
    for workload in sorted(set(old) & set(new)):
        for name in names:
            before = statistics.median(run[name] for run in old[workload].values())
            after = statistics.median(run[name] for run in new[workload].values())
            if before or after:
                print(
                    f"{workload:<15}{name:<42}{before * 1e3:>11.2f}"
                    f"{after * 1e3:>11.2f}{(after - before) * 1e3:>+11.2f}"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    compare_end_to_end(load(args.old, 0), load(args.new, 0), spec)
    compare_layers(load(args.old, 1), load(args.new, 1), spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
