"""Compare two result sets of the benchmark: parent and change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --record`` appends, one run per line.
Run both sides with the same seeds, alternating which side runs first.

The report lists result differences first: every hash or deterministic
result metric that differs for the same workload and seed. A pure
performance change has none; a change that alters results must declare it.
Then, per workload and measured metric, it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither), and
two verdicts:

- gain: the change won at least 9/10 of the pairs and the medians differ by
  more than the parent's interquartile distance (choosing-metrics §8);
- bound (end-to-end metrics only): the change's median is no worse than the
  parent's by more than BENCHMARK.json's bound. Where the parent's own
  spread is wider than the bound, the metric is "unresolved" unless every
  change run beats every parent run.

Exit status 1 when results differ or a bound is broken, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

WIN_SHARE = 0.9


def load(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def result_differences(parent: list[dict], change: list[dict]) -> list[str]:
    """Hashes and deterministic results that differ for the same (workload, seed)."""
    def index(records):
        out = {}
        for r in records:
            out.setdefault((r["workload"], r["seed"]), {}).update(
                {**r.get("results", {}), **r.get("hashes", {})}
            )
        return out

    old, new = index(parent), index(change)
    lines = []
    for key in sorted(old.keys() & new.keys()):
        for name in sorted(old[key].keys() | new[key].keys()):
            a, b = old[key].get(name), new[key].get(name)
            if a != b:
                lines.append(f"{key[0]} seed {key[1]}: {name} {a} -> {b}")
    return lines


def pairs(parent: list[dict], change: list[dict], metric: str) -> list[tuple[float, float]]:
    """Parent/change values paired in seed order, so equal seeds pair up."""
    def ordered(runs):
        runs = sorted(runs, key=lambda r: r["seed"])
        return [r["metrics"][metric] for r in runs if metric in r["metrics"]]

    return list(zip(ordered(parent), ordered(change)))


def verdicts(p_vals, c_vals, paired, better: str, bound: float | None) -> tuple[float, str, str]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in paired)
    won = wins / len(paired) if paired else 0.0
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    gain = "yes" if won >= WIN_SHARE and sign * (c_med - p_med) > p_q3 - p_q1 else "no"
    if bound is None:
        return won, gain, "-"
    worse = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound:
        everyone = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
        return won, gain, "ok" if everyone else "unresolved"
    return won, gain, "ok" if worse <= bound else f"REGRESSION {worse:+.1%}"


def compare(parent: list[dict], change: list[dict], spec: dict, out=sys.stdout) -> int:
    status = 0
    for side, records in (("parent", parent), ("change", change)):
        envs = sorted({json.dumps(r.get("env", {}), sort_keys=True) for r in records})
        print(f"{side}: {len(records)} runs; env {'; '.join(envs)}", file=out)

    diffs = result_differences(parent, change)
    print("result differences:" if diffs else "result differences: none", file=out)
    for line in diffs:
        print(f"  {line}", file=out)
    status |= bool(diffs)

    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    groups = defaultdict(lambda: ([], []))
    for i, records in enumerate((parent, change)):
        for r in records:
            groups[(r["workload"], r["trace"])][i].append(r)

    print(f"{'workload':14s} {'metric':34s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>5s} {'gain':>5s}  bound", file=out)
    for (workload, trace), (p_runs, c_runs) in sorted(groups.items()):
        if not p_runs or not c_runs:
            continue
        names = [n for n in declared if any(n in r["metrics"] for r in p_runs)]
        for name in names:
            p_vals = [r["metrics"][name] for r in p_runs if name in r["metrics"]]
            c_vals = [r["metrics"][name] for r in c_runs if name in r["metrics"]]
            if not c_vals or not any(p_vals + c_vals):
                continue  # the layer does not run in this workload
            paired = pairs(p_runs, c_runs, name)
            won, gain, bound = verdicts(p_vals, c_vals, paired, declared[name]["better"],
                                        bounds.get(name) if not trace else None)
            status |= bound.startswith("REGRESSION")
            cells = ["{:.5g} [{:.5g}, {:.5g}]".format(*(quartiles(v)[i] for i in (1, 0, 2)))
                     for v in (p_vals, c_vals)]
            print(f"{workload:14s} {name:34s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{won:5.0%} {gain:>5s}  {bound}", file=out)
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent
                                                   / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        spec = json.load(f)
    return compare(load(args.parent), load(args.change), spec)


if __name__ == "__main__":
    sys.exit(main())
