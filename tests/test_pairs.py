"""The gain rule and the workload list of tools/pairs.py on synthetic paired runs."""

import argparse
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [100.0, 96.0, 98.0, 101.0, 97.0, 99.0, 102.0, 95.0, 100.0, 98.0]  # q1 97.25, q3 100


def test_quartiles_inclusive():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles(PARENT) == (97.25, 98.5, 100.0)


def test_clear_gain_holds():
    v = pairs.judge(PARENT, [x - 15.0 for x in PARENT], "lower")
    assert (v["wins"], v["losses"], v["holds"]) == (10, 0, True)


def test_nine_of_ten_wins_hold_and_eight_do_not():
    change = [x - 15.0 for x in PARENT]
    change[0] = 110.0
    assert pairs.judge(PARENT, change, "lower")["holds"]
    change[1] = 110.0
    v = pairs.judge(PARENT, change, "lower")
    assert (v["wins"], v["losses"], v["holds"]) == (8, 2, False)


def test_ties_count_for_neither_side():
    change = [x - 15.0 for x in PARENT]
    change[0] = PARENT[0]
    v = pairs.judge(PARENT, change, "lower")
    assert (v["wins"], v["losses"], v["holds"]) == (9, 0, True)
    change[1] = PARENT[1]
    v = pairs.judge(PARENT, change, "lower")
    assert (v["wins"], v["losses"], v["holds"]) == (8, 0, False)


def test_medians_within_the_parent_spread_do_not_hold():
    # every pair won, but the medians differ by 2 against an IQR of 2.75
    v = pairs.judge(PARENT, [x - 2.0 for x in PARENT], "lower")
    assert (v["wins"], v["holds"]) == (10, False)


def test_direction():
    higher = [x + 15.0 for x in PARENT]
    assert pairs.judge(PARENT, higher, "higher")["holds"]
    v = pairs.judge(PARENT, higher, "lower")
    assert (v["wins"], v["losses"], v["holds"]) == (0, 10, False)


def test_unpaired_runs_rejected():
    with pytest.raises(ValueError):
        pairs.judge(PARENT, PARENT[:-1], "lower")


def test_workload_list():
    assert pairs.workload_list("rotsym") == ["rotsym"]
    assert pairs.workload_list("toygravity,rotsym,geometry,surfaces") == [
        "toygravity", "rotsym", "geometry", "surfaces"]
    assert pairs.workload_list("rotsym, geometry") == ["rotsym", "geometry"]
    for bad in ("", "rotsym,", "rotsym,,geometry", "rotsym,rotsym"):
        with pytest.raises(argparse.ArgumentTypeError):
            pairs.workload_list(bad)


def test_a_comma_list_runs_every_workload_in_each_pair(monkeypatch, capsys):
    # each pair runs the workloads in the order given, each side once, the
    # parent first in even pairs; one table per workload follows the runs
    calls = []

    def run_once(root, workload, seed, seconds):
        side = "parent" if root == pathlib.Path("parent") else "change"
        calls.append((workload, side))
        value = 100.0 if side == "parent" else 80.0 + len(calls) / 100
        return {"failed": 0, "attempted": 4,
                "metrics": {m: {"value": value} for m in
                            ("wall_ref", "cpu_ref", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main(["parent", str(ROOT), "--workload", "rotsym,geometry", "--pairs", "2",
                       "--seed", "7"]) == 0
    assert calls == [("rotsym", "parent"), ("rotsym", "change"),
                     ("geometry", "parent"), ("geometry", "change"),
                     ("rotsym", "change"), ("rotsym", "parent"),
                     ("geometry", "change"), ("geometry", "parent")]
    out = capsys.readouterr().out
    assert "\nrotsym, seed 7, 2 pairs\n" in out and "\ngeometry, seed 7, 2 pairs\n" in out
    assert out.index("\nrotsym, seed 7") < out.index("\ngeometry, seed 7")
    assert out.count("wall_ref | 100 [100, 100] |") == 2
    assert out.count("parent: failed 0 of 8 tasks") == 2
