"""Smoke test of tools/golden.py: record two argv, compare the records."""

import importlib.util
import json
import pathlib
import subprocess
import sys

from enhq import kernels

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

ARGV = [["inequality", "--n", "3", "--alphas", "0.2"], ["dynamics", "--q0", "nan"]]

# enhq functions that no golden argv enters, each with the reason it stays;
# adding an entry keeps unreached code, so it is a reviewed change
UNREACHED = {
    "cli.main": "the console-script entry point; the golden runs call cli.run",
    "coherent.CanonicalFamily.P": "perfbench's tracing test pins coherent.position_operator",
    "coherent.CanonicalFamily.Q": "the same perfbench pin",
    "coherent.SpinFamily.state": "the validated API entry; the CLI builds spin states unchecked",
    "dynamics._newton_bulk": "the Python loop run where the compiled kernels cannot be built; "
                             "tests/test_dynamics.py runs it against the references",
    "dynamics._toy_gravity_bulk": "the same, for toy gravity's loop",
}
# where the kernels cannot be built, the Python loops run in their place
COMPILED = {"kernels.Kernels.__init__", "kernels.Kernels.toy_gravity_bulk",
            "kernels.Kernels.newton_bulk"}


def test_argv_list_holds_defaults_tasks_and_edges():
    argvs = golden.argv_list()
    assert argvs[:len(golden.DEFAULTS)] == golden.DEFAULTS
    assert argvs[-len(golden.EDGE):] == golden.EDGE
    assert sum(a[0] == "rotsym" for a in argvs) > 12  # 4 tasks at each of 3 seeds


def test_records_are_normalized_and_compared(tmp_path, capsys):
    a, b = golden.record(ARGV), golden.record(ARGV)
    assert a == b  # the output directory and wall time are normalized away
    ok, bad = a["runs"]
    assert (ok["exit"], bad["exit"]) == (0, 1)
    assert sorted(ok["files"]) == ["inequality.csv", "inequality_summary.json"]
    assert ok["stdout"].endswith(" -> <out>/inequality.csv, <out>/inequality_summary.json\n")
    assert "initial p and q must be finite" in bad["stderr"] and not bad["files"]

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    b["runs"][0]["files"]["inequality.csv"] = "0" * 64
    del b["runs"][1]
    for path, doc in zip(paths, (a, b)):
        path.write_text(json.dumps(doc))
    assert golden.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert "identical: 2 runs" in capsys.readouterr().out
    assert golden.main(["--compare", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"inequality --n 3 --alphas 0.2: files {a['runs'][0]['files']!r} -> "
        f"{b['runs'][0]['files']!r}",
        "dynamics --q0 nan: only in A",
    ]


def test_reach_matches_allowlist():
    # a fresh interpreter, so that no cache another test filled hides a function
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "golden.py"), "--src",
                          str(ROOT / "src"), "--reach"],
                         capture_output=True, text=True, check=True, timeout=600).stdout
    expected = set(UNREACHED)
    if kernels.load() is None:
        expected ^= COMPILED | {"dynamics._newton_bulk", "dynamics._toy_gravity_bulk"}
    assert set(out.split()) == expected


def test_flow_records_are_the_same_on_both_paths(monkeypatch):
    # the golden runs of `dynamics` and `rotsym`, on the compiled kernels
    # and on the Python loops
    argvs = [a for a in golden.argv_list() if {"dynamics", "rotsym"} & set(a)]
    assert len(argvs) > 40
    compiled = golden.record(argvs)
    monkeypatch.setattr(kernels, "load", lambda: None)
    assert golden.record(argvs) == compiled
