"""Benchmark worker: one fresh interpreter that runs a workload's task list.

Usage (from `run.py`, with PYTHONPATH set to the checkout's `src`):

    python3 perfbench/worker.py --setup-only   # print the clock once enhq.cli is imported,
                                               # then the host-reference loop time
    python3 perfbench/worker.py SPEC.json      # run passes, write the result file

Every task is passed in-process to `enhq.cli.run(argv)`.  Passes run
until the run's seconds are spent, three at least, and every pass is
timed: the first one fixes each task's reference table and pays for lazy
imports.  That is about 0.5 s on `geometry` and `surfaces`, where the
median over dozens of sub-second passes drops it, and about 6 ms on the
flows, whose passes take seconds: a `rotsym` pass takes about 15 s, so a
separate warm-up pass would lengthen its run by a third.  With tracing
on, untraced and traced passes alternate, so the tracing overhead is
measured against passes made in the same process at nearly the same time.
"""

import sys
import time


def _host_reference() -> float:
    """Median time of a fixed loop: the host's current speed.

    The loop mixes pure-Python arithmetic with small numpy operations in
    about equal time, because the host's slow spells slow the two kinds
    of work by different amounts and the workloads mix them too.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 32)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(300):
            for j in range(80):
                acc += j * j
            acc += float(np.max(np.abs(x * 1.0001 + 0.5)))
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def _read(path, binary):
    try:
        with open(path, "rb" if binary else "r") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def main(argv) -> int:
    import enhq.cli as cli

    ready = time.perf_counter()
    if argv[1:] == ["--setup-only"]:
        print(repr(ready), repr(_host_reference()))
        return 0

    import json
    import os
    import resource
    import statistics

    import numpy as np
    import scipy

    import oracles

    with open(argv[1]) as fh:
        spec = json.load(fh)
    if not os.path.abspath(cli.__file__).startswith(spec["src"] + os.sep):
        print(f"enhq imported from {cli.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()

    tasks = spec["tasks"]
    outs = [os.path.join(spec["run_dir"], f"t{i}") for i in range(len(tasks))]
    argvs = [["--out", d, *t["argv"]] for d, t in zip(outs, tasks)]
    tables = [os.path.join(d, t["argv"][0] + ".csv") for d, t in zip(outs, tasks)]
    summaries = [os.path.join(d, t["argv"][0] + "_summary.json") for d, t in zip(outs, tasks)]
    refs_out = [None] * len(tasks)  # each task's first-pass table
    tally = {"attempted": 0, "failed": 0, "problems": []}

    def one_pass(traced):
        """Run every task once, timing the host loop around each task."""
        for path in tables + summaries:
            if os.path.exists(path):
                os.remove(path)
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
        codes, walls, cpus, refs = [], [], [], [_host_reference()]
        for a in argvs:
            c0 = time.process_time()
            t0 = time.perf_counter()
            codes.append(cli.run(a))
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            refs.append(_host_reference())
        if traced:
            tracer.uninstall()
            tracer.mark_pass(first_span, sum(walls))
        nbytes = 0
        for i, task in enumerate(tasks):
            table = _read(tables[i], True)
            raw = _read(summaries[i], False)
            summary = json.loads(raw) if raw else None
            problems = oracles.check_output(task, codes[i], table, summary, refs_out[i])
            if refs_out[i] is None:
                refs_out[i] = table
            nbytes += len(table or b"")
            tally["attempted"] += 1
            if problems:
                tally["failed"] += 1
                if len(tally["problems"]) < 20:
                    tally["problems"].append(f"task {i} {task['argv']}: {'; '.join(problems)}")
        # each task in units of the host loop timed just before and after it
        host = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
        return {"traced": traced, "wall": sum(walls), "cpu": sum(cpus),
                "ref": statistics.median(refs), "table_bytes": nbytes,
                "wall_ref": sum(w / h for w, h in zip(walls, host)),
                "cpu_ref": sum(c / h for c, h in zip(cpus, host))}

    passes = []
    min_passes = 4 if tracer else 3
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < spec["seconds"]:
        passes.append(one_pass(tracer is not None and len(passes) % 2 == 1))

    result = {
        "ready": ready,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **tally,
        "meta": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
            "enhq_threads_effective": getattr(cli, "_worker_count", lambda: None)(),
            "host_reference_s": statistics.median(p["ref"] for p in passes),
        },
    }
    if tracer is not None:
        from tracing import median_metrics

        layers = median_metrics([tracer.pass_metrics(j) for j in range(len(tracer.passes))])
        layers["trace.untraced_wall_s"] = statistics.median(
            p["wall"] for p in passes if not p["traced"])
        traced, untraced = (statistics.median(p["wall_ref"] for p in passes if p["traced"] is t)
                            for t in (True, False))
        layers["trace.overhead_frac"] = traced / untraced - 1.0
        result["layers"] = layers
        tracer.dump(spec["trace_file"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
