"""Smoke test of tools/golden.py: record two argv, compare the records."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

ARGV = [["inequality", "--n", "3", "--alphas", "0.2"], ["dynamics", "--q0", "nan"]]


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
