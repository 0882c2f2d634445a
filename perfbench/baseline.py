"""Repeat the benchmark over ten seeds and summarize it as a baseline.

Run from the root of a checkout:

    python3 perfbench/baseline.py               # seeds 1-10, writes perfbench/BASELINE.json
    python3 perfbench/baseline.py --compare 101 # seeds 101-110 against BASELINE.json

For each seed it runs every workload of BENCHMARK.json once with tracing
off, for the benchmark's `run_seconds`, interleaving the workloads so
that slow drift of the host spreads over all of them.  For each
end-to-end metric it records the ten values, their median and quartiles,
and the quartile spread as a share of the median, which is the figure
`bound` in BENCHMARK.json is compared against.  Without `--compare` it
then makes one traced run per workload for the per-layer metrics and
writes the baseline.  With `--compare` it writes nothing and prints, next
to each spread, how far the new median lies from the baseline's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "BASELINE.json")
RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    meta_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", type=int, metavar="FIRST_SEED",
                    help="run seeds FIRST_SEED.. and compare with BASELINE.json")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    first = 1 if args.compare is None else args.compare

    values = {w: {m: [] for m in bounds} for w in names}
    runs = {w: [] for w in names}
    meta = None
    for seed in range(first, first + RUNS):
        for w in names:
            meta, res = _run(w, seed, seconds, 0)
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            runs[w].append({"seed": seed, "correct": res["correct"],
                            "attempted": res["attempted"], "failed": res["failed"],
                            "host_reference_s": meta["host_reference_s"]})
            print(w, seed, res["correct"], {m: round(v[-1], 4) for m, v in values[w].items()},
                  file=sys.stderr)

    doc = {"run_seconds": seconds,
           "meta": {k: meta[k] for k in ("commit", "src_sha256", "src_lines", "nproc", "python",
                                         "numpy", "scipy", "openblas", "blas_threads",
                                         "enhq_threads", "enhq_threads_effective")},
           "workloads": {}}
    for w in names:
        entry = {"runs": runs[w], "end_to_end": {}}
        for m, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            entry["end_to_end"][m] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": (q3 - q1) / med, "bound": bounds[m],
                                      "values": vals}
        doc["workloads"][w] = entry

    if args.compare is None:
        for w in names:
            _, res = _run(w, first, seconds, 1)
            doc["workloads"][w]["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
        with open(BASELINE, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        base = None
    else:
        with open(BASELINE) as fh:
            base = json.load(fh)["workloads"]
    all_correct = all(r["correct"] for w in names for r in runs[w])
    for w, entry in doc["workloads"].items():
        for m, s in entry["end_to_end"].items():
            line = (f"{w:11s} {m:12s} median {s['median']:.4g}  spread {s['spread']:.3f}"
                    f"  bound {s['bound']}")
            if base is not None:
                old = base[w]["end_to_end"][m]["median"]
                line += f"  vs baseline {s['median'] / old - 1.0:+.3f}"
            print(line)
    print("all runs correct" if all_correct else "SOME RUNS INCORRECT")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
