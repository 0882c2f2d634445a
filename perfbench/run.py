"""Benchmark of the enhq CLI: four workloads, closed-form oracles, a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 25 --trace 0

The task list of the workload is drawn from the seed (workloads.py) and
run in a fresh interpreter (worker.py) that imports `enhq` from the
checkout's `src`, with BLAS pinned to one thread.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  `--trace 0` reports the end-to-end metrics; `--trace 1`
reports the per-layer metrics of a traced run (tracing.py).  The line
before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench_out"
SETUP_SAMPLES = 6  # fresh set-up-only interpreters timed per run
# setup_s is scaled to the host speed at which the reference loop
# (worker._host_reference) takes this long: about the loop's time on a
# quiet 2-vCPU Xeon virtual machine
REF_S = 0.0025
DEADLINE_S = 170  # a run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _commit(root: str) -> str | None:
    """HEAD of the checkout's git repository, if it is one."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # git would search the parent directories
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _setup_sample(worker: list[str], env: dict, root: str) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until enhq.cli is imported,
    and the host-reference loop time the interpreter measures right after."""
    # the worker reports the same clock (CLOCK_MONOTONIC on Linux)
    t0 = time.perf_counter()
    done = subprocess.run([*worker, "--setup-only"], env=env, cwd=root,
                          capture_output=True, text=True, timeout=30)
    if done.returncode != 0:
        raise RuntimeError(f"setup interpreter failed:\n{done.stderr}")
    ready, ref = map(float, done.stdout.split())
    return ready - t0, ref


def _src_digest(src: str) -> tuple[int, str]:
    """Line count and content hash of the Python sources under src."""
    lines, digest = 0, hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(path, src).encode() + b"\0" + data)
    return lines, digest.hexdigest()


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "enhq", "cli.py")):
        return _fail(f"no enhq sources at {src}; run from the root of a checkout")

    tasks = workloads.tasks_for(args.workload, args.seed)
    run_dir = os.path.join(root, OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ("ENHQ_THREADS", "PYTHONPATH")}
    env.update({k: "1" for k in BLAS_ENV}, PYTHONPATH=src)
    worker = [sys.executable, os.path.join(HERE, "worker.py")]
    spec = {
        "src": src,
        "run_dir": run_dir,
        "tasks": tasks,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "result": os.path.join(run_dir, "result.json"),
        "trace_file": os.path.join(root, OUT, f"trace-{args.workload}.json"),
    }
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)

    # set-up is sampled before and after the worker, to spread the samples
    # over the host's speed drifts
    half = 0 if args.trace else SETUP_SAMPLES // 2
    try:
        setup = [_setup_sample(worker, env, root) for _ in range(half)]
        t0 = time.perf_counter()
        with open(os.path.join(run_dir, "worker.err"), "w") as err:
            done = subprocess.run([*worker, spec_path], env=env, cwd=root,
                                  stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=started + DEADLINE_S - t0)
        if done.returncode != 0 or not os.path.exists(spec["result"]):
            with open(os.path.join(run_dir, "worker.err")) as fh:
                return _fail(f"worker exited with {done.returncode}:\n{fh.read()[-4000:]}")
        with open(spec["result"]) as fh:
            res = json.load(fh)
        worker_setup = res["ready"] - t0
        setup += [_setup_sample(worker, env, root) for _ in range(half)]
    except subprocess.TimeoutExpired as exc:
        return _fail(f"timed out: {exc}")
    except RuntimeError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = [p for p in res["passes"] if not p["traced"]]
    raw = {k: statistics.median(p[k] for p in passes) for k in ("wall", "cpu")}
    if args.trace:
        values = dict(res["layers"])
        values["cli.table_bytes"] = statistics.median(p["table_bytes"] for p in res["passes"])
    else:
        # pass times in units of the host reference loop; raw seconds drift
        # with the host's speed and go to the metadata
        values = {
            "wall_ref": statistics.median(p["wall_ref"] for p in passes),
            "cpu_ref": statistics.median(p["cpu_ref"] for p in passes),
            # each sample scaled by its own host-reference time, as wall_ref is
            "setup_s": statistics.median(t / ref for t, ref in setup) * REF_S,
            "peak_rss_mb": res["peak_rss_mb"],
        }
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    lines, digest = _src_digest(src)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "src_sha256": digest,
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "blas_threads": {k: env[k] for k in BLAS_ENV},
        "enhq_threads": "unset (program default)",
        **res["meta"],
        "tasks": len(tasks),
        "passes": len(passes),
        "wall_s": raw["wall"],
        "cpu_s": raw["cpu"],
        "wall_s_passes": [p["wall"] for p in passes],
        "wall_ref_passes": [p["wall_ref"] for p in passes],
        "ref_s_passes": [p["ref"] for p in passes],
        "setup_s_samples": [t for t, _ in setup],
        "setup_ref_s_samples": [ref for _, ref in setup],
        "worker_setup_s": worker_setup,
        "problems": res["problems"][:20],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
