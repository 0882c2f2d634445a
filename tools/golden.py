"""Golden set: run a fixed list of `enhq` command lines and record what they write.

    python3 tools/golden.py --src src --out golden.json           # record
    python3 tools/golden.py --compare parent.json change.json     # compare
    python3 tools/golden.py --src src --reach                     # unreached code

Recording imports `enhq` from the given `src/` tree and passes each argv
in-process to `enhq.cli.run`, each in a fresh output directory.  A run's
record holds its exit code, its stdout and stderr, the warnings it raised,
and a sha256 digest of each file it wrote.  The records are normalized:
the output directory reads `<out>`, and a summary's digest leaves out
`wall_time_s`, `table` and the echoed `out`.  The argv list is each
subcommand at its defaults, the task lists of the four perfbench workloads
at seeds 1-3 (from `perfbench/workloads.py`) and the edge cases in EDGE.
An argv names a config file as `<tools>/configs/...`: the run reads it from
this directory, and its record keeps the placeholder, so records do not
depend on where the checkout lies.

`--compare A B` lists every run whose record differs between A and B, or
that only one of them holds, and exits 1 if there is any.

`--reach` runs the argv list under a profile hook and prints, one per line
as `module.qualname`, each function and method of the `enhq` package that
no run enters.  Class bodies and comprehensions are not counted.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import inspect
import io
import json
import pathlib
import sys
import tempfile
import threading
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOLS = str(ROOT / "tools")

DEFAULTS = [["metric"], ["wcp"], ["dynamics"], ["rotsym"], ["inequality"], ["selftest"]]

# configurations that earlier changes fixed or measured at an edge
EDGE = [
    ["--format", "json", "metric"],
    ["--format", "json", "rotsym", "--t-end", "0.1"],
    ["metric", "--N", "5"],
    ["metric", "--family", "affine", "--q", "0.025"],
    ["metric", "--family", "affine", "--q=0.01"],
    ["metric", "--family", "spin"],
    ["metric", "--family", "spin", "--s", "1.5"],
    ["metric", "--family", "spin", "--p=0.1"],
    ["metric", "--p=-0.0,0.0"],
    ["metric", "--p=-0.01,0,0.01", "--q=0.99,1,1.01"],
    ["metric", "--family", "affine", "--p=0", "--q=0.5,1,2"],
    ["metric", "--family", "affine", "--p", "0", "--q", "1000"],
    ["metric", "--family", "affine", "--hbar", "0.01", "--p", "0.3", "--q", "2"],
    ["metric", "--family", "affine", "--hbar", "0.01", "--p", "0.3", "--q", "1"],
    ["metric", "--family", "spin", "--s", "2", "--p=1,1.01", "--q=0.3,0.31"],
    ["metric", "--family", "spin", "--s", "250", "--p=0.2", "--q=0.4"],
    ["metric", "--family", "affine", "--q", "1e100"],
    ["wcp", "--N", "40"],
    ["wcp", "--s", "1"],
    ["wcp", "--family"],
    ["wcp", "--family", "canonical", "--hbar", "0.5"],
    ["wcp", "--family", "affine", "--p", "nan"],
    ["wcp", "--hbar", "nan"],
    ["wcp", "--p=,"],
    ["wcp", "--q", "inf"],
    ["wcp", "--family", "affine", "--hamiltonian", "Q"],
    ["wcp", "--hbar", "0.01", "--p=-0.5852891519223444", "--q=-1.9523610466359287"],
    ["metric", "--hbar", "0.01", "--p=-0.5852891519223444", "--q=-1.9523610466359287"],
    ["metric", "--hbar", "0.05", "--p=-1,1", "--q=0.5"],
    ["metric", "--N", "40", "--hbar", "0.25", "--p=0.5,1.5", "--q=-1"],
    ["wcp", "--p=10", "--q=3"],
    ["wcp", "--p=20", "--q=20"],
    ["wcp", "--p", "1e200"],
    ["wcp", "--family", "affine", "--p", "1e200"],
    ["wcp", "--family", "affine", "--p", "1e10", "--q", "1"],
    ["dynamics", "--model", "oscillator"],
    ["dynamics", "--model", "oscillator", "--p0", "1e155", "--t-end", "0.01"],
    ["dynamics", "--model", "oscillator", "--t-end", "1"],
    ["dynamics", "--hbar", "0", "--t-end", "0.5"],
    ["dynamics", "--hbar", "0", "--t-end", "0.9"],
    ["dynamics", "--hbar", "0", "--p0=-1.5", "--t-end", "3", "--stride", "7"],
    ["dynamics", "--hbar", "0", "--q0", "1e-300", "--t-end", "3"],
    ["dynamics", "--hbar", "0", "--q0", "1e-11", "--t-end", "3"],
    ["dynamics", "--hbar", "0", "--q0", "1e-8", "--t-end", "3"],
    ["dynamics", "--hbar", "0", "--q0", "1e200", "--t-end", "3"],
    ["dynamics", "--hbar", "0", "--p0=-1e160", "--t-end", "1"],
    ["dynamics", "--q0", "0"],
    ["dynamics", "--dt", "0"],
    ["dynamics", "--stride", "0"],
    ["dynamics", "--q0", "nan"],
    ["dynamics", "--hbar", "1", "--p0", "-1", "--q0", "1"],
    ["dynamics", "--hbar", "0.5", "--beta", "2", "--p0=-2", "--t-end", "1"],
    ["dynamics", "--hbar", "0.5", "--beta", "2", "--p0=-2", "--t-end", "3", "--stride", "13"],
    ["dynamics", "--hbar", "1", "--q0", "1e-300", "--t-end", "0.01"],
    ["dynamics", "--hbar", "0.01", "--p0=-100", "--t-end", "0.1"],
    ["rotsym", "--N", "6", "--t-end", "0.01"],
    ["rotsym", "--N", "32", "--t-end", "2"],
    ["rotsym", "--g0", "1e200", "--t-end", "0.01"],
    ["rotsym", "--m0", "nan"],
    ["rotsym", "--stride", "0"],
    ["inequality", "--n", "5"],
    ["inequality", "--eps", "1,0.5"],
    ["inequality", "--eps=2,1,0.5"],
    ["inequality", "--eps=1e-2,nan,1e-4"],
    ["inequality", "--n", "50", "--alphas", "23.9", "--eps=1e-2,1e-8"],
    ["inequality", "--n", "400", "--alphas", "0"],
    # config files: a flag overriding its config key, a list flag and an
    # unknown key (exit 1)
    ["--config", "<tools>/configs/dynamics_bounce.json", "dynamics", "--stride", "20"],
    ["--config", "<tools>/configs/metric_list.json", "metric"],
    ["--config", "<tools>/configs/unknown_key.json", "inequality"],
]


def argv_list() -> list[list[str]]:
    """Defaults, the perfbench task lists at seeds 1-3, then EDGE."""
    spec = importlib.util.spec_from_file_location("_golden_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    tasks = [task["argv"] for name in workloads.WORKLOADS for seed in (1, 2, 3)
             for task in workloads.tasks_for(name, seed)]
    return [*DEFAULTS, *tasks, *EDGE]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _normalized(text: str, out: str) -> str:
    return text.replace(out, "<out>").replace(TOOLS, "<tools>")


def _file_digest(path: pathlib.Path, out: str) -> str:
    text = _normalized(path.read_text(), out)
    if path.name.endswith("_summary.json"):
        doc = json.loads(text)
        for key in ("wall_time_s", "table"):
            doc.pop(key, None)
        doc.get("config", {}).pop("out", None)
        text = json.dumps(doc, indent=2)
    return _digest(text)


def record_one(run, argv: list[str]) -> dict:
    """The normalized record of `run(["--out", <fresh dir>, *argv])`."""
    with tempfile.TemporaryDirectory() as out:
        stdout, stderr = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
            warnings.simplefilter("always")
            code = run(["--out", out, *(a.replace("<tools>", TOOLS) for a in argv)])
        files = {p.name: _file_digest(p, out) for p in sorted(pathlib.Path(out).iterdir())}
        return {
            "argv": argv,
            "exit": code,
            "stdout": _normalized(stdout.getvalue(), out),
            "stderr": _normalized(stderr.getvalue(), out),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            "files": files,
        }


def record(argvs, src=None) -> dict:
    """Records of every argv, run on the enhq imported from src."""
    if src is not None:
        sys.path.insert(0, str(pathlib.Path(src).resolve()))
    import enhq
    from enhq.cli import run

    if src is not None and not pathlib.Path(enhq.__file__).resolve().is_relative_to(
            pathlib.Path(src).resolve()):
        raise SystemExit(f"enhq was imported from {enhq.__file__}, not from {src}")
    return {"runs": [record_one(run, argv) for argv in argvs]}


COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def _functions(path: pathlib.Path):
    """Code objects of the functions, methods and lambdas a source file defines."""
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        # a class body or module has no fresh locals; comprehensions are named
        if code.co_flags & inspect.CO_NEWLOCALS and code.co_name not in COMPREHENSIONS:
            yield code


def reach(argvs, src=None) -> list[str]:
    """module.qualname of every enhq function that no argv enters, sorted."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        record(argvs, src)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    package = pathlib.Path(sys.modules["enhq"].__file__).parent
    return sorted({f"{path.stem}.{code.co_qualname}"
                   for path in package.glob("*.py") for code in _functions(path)
                   if (str(path), code.co_firstlineno, code.co_qualname) not in entered})


def compare(a: dict, b: dict) -> list[str]:
    """One line per run whose record differs, or that only one side holds."""
    runs_a = {" ".join(r["argv"]): r for r in a["runs"]}
    runs_b = {" ".join(r["argv"]): r for r in b["runs"]}
    lines = []
    for key in dict.fromkeys([*runs_a, *runs_b]):
        ra, rb = runs_a.get(key), runs_b.get(key)
        if ra is None or rb is None:
            lines.append(f"{key}: only in {'B' if ra is None else 'A'}")
            continue
        for field in ("exit", "stdout", "stderr", "warnings", "files"):
            if ra[field] != rb[field]:
                lines.append(f"{key}: {field} {ra[field]!r} -> {rb[field]!r}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", help="src/ tree to import enhq from")
    ap.add_argument("--out", help="record file to write (JSON)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two record files")
    ap.add_argument("--reach", action="store_true",
                    help="list the enhq functions that no argv enters")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(pathlib.Path(p).read_text()) for p in args.compare)
        lines = compare(a, b)
        print("\n".join(lines) if lines else f"identical: {len(a['runs'])} runs")
        return 1 if lines else 0
    if args.src and args.reach:
        print("\n".join(reach(argv_list(), args.src)))
        return 0
    if not (args.src and args.out):
        ap.error("give --src and --out to record, --src and --reach, or --compare A B")
    doc = record(argv_list(), args.src)
    pathlib.Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(doc['runs'])} runs -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
