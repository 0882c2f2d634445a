"""Alternating benchmark pairs of two checkouts, judged by the gain rule.

    python3 tools/pairs.py PARENT CHANGE --workload toygravity --pairs 10 --seed 7
    python3 tools/pairs.py PARENT CHANGE --workload toygravity,rotsym,geometry,surfaces \
        --pairs 10 --seed 7

PARENT and CHANGE are the roots of two checkouts.  `--workload` names one
workload or a comma list of them.  Each pair runs each checkout's own
`perfbench/run.py` once per workload, from that checkout's root, at the
`run_seconds` of CHANGE's `BENCHMARK.json`; PARENT runs first in even pairs
and CHANGE first in odd ones, and a pair runs the workloads in the order
given.  Every run prints one line as it ends.  Then, one table per
workload, for each end-to-end metric the tool prints each side's median
and quartiles, the pairs the change wins and loses (ties count for
neither), and whether the gain rule holds: the change wins at least nine
tenths of the pairs, and its median is better than the parent's by more
than the parent's interquartile range.  It also prints the failed task
counts.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(parent, change, better: str) -> dict:
    """The gain rule on paired runs: parent[i] and change[i] form pair i.

    better is "lower" or "higher".  A pair is a win when the change is
    strictly better, a loss when strictly worse, and a tie counts for
    neither side.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equal-length lists of at least two runs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (pmed - cmed)
    return {
        "parent": (pq1, pmed, pq3), "change": quartiles(change),
        "wins": wins, "losses": losses, "pairs": len(parent),
        "holds": 10 * wins >= 9 * len(parent) and gain > pq3 - pq1,
    }


def workload_list(text: str) -> list[str]:
    """The workloads of a `--workload` value: one name or a comma list."""
    names = [w.strip() for w in text.split(",")]
    if not all(names):
        raise argparse.ArgumentTypeError(f"empty workload name in {text!r}")
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"workload named twice in {text!r}")
    return names


def run_once(root: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of the checkout at root: its last output line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds)],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(workload: str, seed: int, metrics, runs) -> None:
    """Print the table of one workload's pairs: runs[side] lists its outputs."""
    print(f"\n{workload}, seed {seed}, {len(runs['parent'])} pairs")
    print("metric | parent median [q1, q3] | change median [q1, q3] | wins | losses | gain rule")
    for m in metrics:
        name = m["name"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[s]]
                          for s in ("parent", "change"))
        v = judge(parent, change, m["better"])
        (pq1, pmed, pq3), (cq1, cmed, cq3) = v["parent"], v["change"]
        print(f"{name} | {pmed:.4g} [{pq1:.4g}, {pq3:.4g}] | {cmed:.4g} [{cq1:.4g}, {cq3:.4g}] "
              f"| {v['wins']} | {v['losses']} | {'holds' if v['holds'] else 'does not hold'}")
    for side in ("parent", "change"):
        print(f"{side}: failed {sum(r['failed'] for r in runs[side])} of "
              f"{sum(r['attempted'] for r in runs[side])} tasks")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--workload", required=True, type=workload_list,
                    help="a workload, or a comma list of them")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    runs = {w: {"parent": [], "change": []} for w in args.workload}
    for i in range(args.pairs):
        for workload in args.workload:
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                out = run_once(getattr(args, side), workload, args.seed, bench["run_seconds"])
                runs[workload][side].append(out)
                values = " ".join(f"{m['name']}={out['metrics'][m['name']]['value']:.4g}"
                                  for m in metrics)
                print(f"pair {i} {workload} {side}: failed {out['failed']}/{out['attempted']} "
                      f"{values}", flush=True)
    for workload in args.workload:
        report(workload, args.seed, metrics, runs[workload])
    return 0


if __name__ == "__main__":
    sys.exit(main())
