"""Compare two sets of end-to-end runs against the benchmark's bounds.

Usage::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the ``<workload>-s<seed>.json`` files of untraced
runs (``run.py --out DIR``).  For every workload and end-to-end metric
it prints each set's median and quartiles, the relative difference of
the medians, the spreads, and a verdict:

* ``better`` — the change wins at least 9 of 10 runs paired by seed and
  the medians differ by more than the parent's interquartile range;
* ``unresolved`` — a set's spread (interquartile range over median) is
  wider than the bound, so "no worse" cannot be shown, unless every
  change run reads better than every parent run;
* ``worse`` — the change's median is worse by more than the bound;
* ``same`` — within the bound.

Quartiles are ``statistics.quantiles(values, n=4)``.  The exit status is
1 when any pairing is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> metrics of the untraced runs in ``directory``."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("trace") or "metrics" not in data:
            continue
        runs.setdefault(data["workload"], {})[data["seed"]] = {
            name: entry["value"] for name, entry in data["metrics"].items()
        }
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(parent: dict, change: dict, better: str, bound: float):
    """The verdict plus the numbers it rests on, for one pairing."""
    a, b = list(parent.values()), list(change.values())
    sign = 1.0 if better == "lower" else -1.0
    med_a, q1_a, q3_a = summary(a)
    med_b, q1_b, q3_b = summary(b)
    worse = sign * (med_b - med_a) / med_a
    spread_a = (q3_a - q1_a) / med_a
    spread_b = (q3_b - q1_b) / med_b
    seeds = sorted(set(parent) & set(change))
    pairs = (
        [(parent[s], change[s]) for s in seeds] if seeds else list(zip(a, b))
    )
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if (
        worse < 0
        and pairs
        and wins >= 0.9 * len(pairs)
        and abs(med_b - med_a) > q3_a - q1_a
    ):
        word = "better"
    elif (spread_a > bound or spread_b > bound) and not all_better:
        word = "unresolved"
    elif worse > bound:
        word = "worse"
    else:
        word = "same"
    return word, (med_a, q1_a, q3_a), (med_b, q1_b, q3_b), worse, spread_a, spread_b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    parent, change = load_runs(args.parent), load_runs(args.change)
    print(
        f"{'workload':22} {'metric':12} {'parent med [q1, q3]':>30} "
        f"{'change med [q1, q3]':>30} {'worse':>7} {'spr A':>6} "
        f"{'spr B':>6} {'bound':>5}  verdict"
    )
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            print(f"{workload:22} (missing runs)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = {s: m[name] for s, m in parent[workload].items()}
            b = {s: m[name] for s, m in change[workload].items()}
            word, sa, sb, worse, spread_a, spread_b = verdict(
                a, b, metric["better"], metric["bound"]
            )
            any_worse |= word == "worse"
            print(
                f"{workload:22} {name:12} "
                f"{sa[0]:10.4g} [{sa[1]:8.4g}, {sa[2]:8.4g}] "
                f"{sb[0]:10.4g} [{sb[1]:8.4g}, {sb[2]:8.4g}] "
                f"{worse:+7.1%} {spread_a:6.1%} {spread_b:6.1%} "
                f"{metric['bound']:5.2f}  {word}"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
