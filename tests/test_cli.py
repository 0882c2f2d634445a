"""Driver behavior: exit codes, artifacts, determinism, config handling."""

import argparse
import csv
import json
import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

import enhq
import enhq.coherent
from enhq import cli
from enhq.cli import run
from enhq.dynamics import (
    Trajectory,
    integrate,
    rotsym_flow,
    toy_gravity_flow,
    toy_gravity_solution,
)
from enhq.wcp import cprime_closed_form


def _read(path):
    return path.read_text()


# each detail states its check against the tolerance, so the bytes stay put
# when a residual moves in its last digits; the residuals go to the summary
SELFTEST_TABLE = """\
check,status,detail
canonical-commutator,pass,max deviation < 1e-08
affine-commutator,pass,max deviation < 1e-08
canonical-expectations,pass,<Q> error and <P> error < 1e-08
affine-moments,pass,worst moment error vs log-Gamma < 1e-08
cprime-oracle,pass,word algebra vs closed form < 1e-08
oscillator-correspondence,pass,worst H - classical - hbar/2 error < 1e-08
canonical-metric,pass,deviation from identity < 1e-06
spin-metric,pass,"deviation from diag(s hbar, s hbar sin^2) < 1e-06"
oscillator-drift,pass,relative drift < 1e-08
toy-hit-time,pass,"status singularity, hit time error < 0.0001"
inequality-gaussian,pass,Gaussian closed form error < 1e-08
"""


def _cell(x):
    """The per-cell rendering that defines the table bytes."""
    if isinstance(x, float):
        return "%.17g" % x
    s = str(x)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _affine_metric_row(out):
    """The one data row of out/metric.csv, as floats."""
    return [float(x) for x in _read(out / "metric.csv").splitlines()[1].split(",")]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["nosuchthing"]) == 1

    def test_validation_error(self, tmp_path, capsys):
        code = run(["--out", str(tmp_path), "metric", "--family", "affine",
                    "--beta", "-1"])
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_truncated_canonical_state(self, tmp_path, capsys):
        code = run(["--out", str(tmp_path), "metric", "--family", "canonical",
                    "--N", "40", "--p", "6", "--q", "6"])
        assert code == 1
        assert "Fock levels" in capsys.readouterr().err

    def test_tail_guard_names_hbar(self, tmp_path, capsys):
        # (0, 1) is resolved at hbar = 1; at hbar = 0.05, N = 40 truncates the state
        code = run(["--out", str(tmp_path), "metric", "--N", "40", "--hbar", "0.05",
                    "--p", "0", "--q", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "hbar = 0.05" in err and "Fock levels" in err

    def test_aliased_canonical_state(self, tmp_path, capsys):
        # the 100-level state at this point passes the tail guard, but the
        # truncation folds it back: mean Fock level 36.9 against 207.7, g_vv = 0.999996
        code = run(["--out", str(tmp_path), "metric", "--family", "canonical", "--hbar", "0.01",
                    "--p=-0.5852891519223444", "--q=-1.9523610466359287"])
        assert code == 1
        assert "mean Fock level 36.9" in capsys.readouterr().err
        assert not (tmp_path / "metric.csv").exists()

    def test_small_q_affine_metric(self, tmp_path, capsys):
        # grid-sampled states could not resolve the curvature stencil here and exited 1;
        # the exact metric holds, and K = -0.974 is within its K_err = 0.111
        assert run(["--out", str(tmp_path), "metric", "--family", "affine", "--q", "0.025"]) == 0
        _, q, g_uu, g_uv, g_vv, k, k_err = _affine_metric_row(tmp_path)
        assert (g_uu, g_uv, g_vv) == pytest.approx((q * q, 0.0, 1.0 / (q * q)), rel=1e-12, abs=0.0)
        assert abs(k + 1.0) <= k_err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_success(self, tmp_path, capsys):
        code = run(["--out", str(tmp_path), "inequality", "--n", "3",
                    "--alphas", "0.2"])
        assert code == 0


class TestBadControls:
    @pytest.mark.parametrize("argv", [
        ["dynamics", "--dt=-1"],
        ["dynamics", "--t-end", "nan"],
        ["rotsym", "--t-end", "nan"],
        ["dynamics", "--stride", "0"],
        ["dynamics", "--stride", "-1"],
        ["rotsym", "--stride", "0"],
        ["rotsym", "--stride", "-1"],
        ["inequality", "--eps=1e-2,nan,1e-4"],
        ["inequality", "--m0", "nan"],
        # non-finite initial states, parameters, chart points and hbar
        ["dynamics", "--q0", "nan"],
        ["dynamics", "--hbar", "1", "--beta", "2", "--p0", "nan"],
        ["dynamics", "--model", "oscillator", "--p0", "nan"],
        ["rotsym", "--m0", "nan"],
        ["wcp", "--hbar", "nan"],
        ["wcp", "--p", "nan"],
        ["wcp", "--q", "inf"],
        ["wcp", "--family", "affine", "--p", "nan"],
        # empty lists
        ["wcp", "--p=,"],
        ["metric", "--p=,"],
        ["inequality", "--alphas=,"],
        ["inequality", "--eps=,"],
        # N is checked before the initial state is drawn
        ["rotsym", "--N", "0"],
        ["rotsym", "--N=-3"],
        # the canonical tail guard needs more than its 5 top levels
        ["metric", "--family", "canonical", "--N", "5"],
    ])
    def test_flag_rejected(self, tmp_path, capsys, argv):
        assert run(["--out", str(tmp_path)] + argv) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_out_of_range_inequality_is_numerical_failure(self, tmp_path, capsys):
        # n = 400 underflows omega_n to 0; the run stops instead of writing NaN
        assert run(["--out", str(tmp_path), "inequality", "--n", "400", "--alphas", "0"]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert json.loads(_read(tmp_path / "failure.json"))["type"] == "ArithmeticError"
        assert not (tmp_path / "inequality.csv").exists()

    def test_overflowing_side_is_named(self, tmp_path, capsys):
        # a float power in the Gamma recurrence overflows at eps = 1e-8; it
        # used to stop the run with a bare "(34, 'Numerical result out of range')"
        assert run(["--out", str(tmp_path), "inequality", "--n", "50", "--alphas", "23.9",
                    "--eps=1e-2,1e-8"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: lhs = inf" in err and "eps = 1e-08" in err
        assert json.loads(_read(tmp_path / "failure.json"))["type"] == "ArithmeticError"

    @pytest.mark.parametrize("argv", [
        ["--model", "oscillator", "--p0", "1e155", "--t-end", "0.01"],
        ["--hbar", "0", "--p0=1e160", "--t-end", "1"],
        ["--hbar", "0", "--p0=-1e160", "--t-end", "1"],
    ], ids=["oscillator", "expanding", "contracting"])
    def test_non_finite_initial_energy_rejected(self, tmp_path, capsys, argv):
        # these used to report "drift nan", a hit while expanding, and a hit
        # at 1e-12 against the exact 1e-160
        assert run(["--out", str(tmp_path), "dynamics", *argv]) == 1
        err = capsys.readouterr().err
        assert "invalid configuration: flow '" in err and "initial energy H = inf" in err
        assert not (tmp_path / "dynamics.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["dynamics", "--model", "oscillator", "--dt", "1e-12", "--t-end", "1"],
        ["dynamics", "--hbar", "0", "--dt", "1e-8", "--t-end", "1"],
        ["rotsym", "--t-end", "1000.0001"],
    ], ids=["oscillator", "toygravity", "rotsym"])
    def test_run_past_the_step_cap_exits_1(self, tmp_path, capsys, argv):
        # the oscillator run used to step on without end
        assert run(["--out", str(tmp_path), *argv]) == 1
        assert "steps exceed MAX_STEPS = 10000000" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["--hbar", "0.01", "--p0=-100", "--t-end", "0.1"],
        ["--hbar", "1", "--q0", "1e-300", "--t-end", "0.01"],
    ], ids=["near-bounce", "overflow"])
    def test_enhanced_failed_step_exits_2(self, tmp_path, capsys, argv):
        # the enhanced flow bounces at q = c / E and never collapses; these
        # used to exit 0 with "singularity at t≈0.0102" and "t≈2.5e-05"
        assert run(["--out", str(tmp_path), "dynamics", *argv]) == 2
        assert "numerical failure: implicit midpoint solve failed" in capsys.readouterr().err
        assert json.loads(_read(tmp_path / "failure.json"))["type"] == "RuntimeError"
        assert not (tmp_path / "dynamics.csv").exists()

    @pytest.mark.parametrize("q", ["1e155", "1e-300", "1e-80"])
    def test_affine_far_field_leaves_the_float_range(self, tmp_path, capsys, q):
        # g_uu = q^2 / beta overflows at 1e155, g_vv = beta / q^2 at 1e-300:
        # these used to exit 2 with a bare "(34, 'Numerical result out of
        # range')" and "float division by zero"; at 1e-80 the jet's q^-4
        # overflowed quietly to g_vv = inf before the chart check exited 1
        assert run(["--out", str(tmp_path), "metric", "--family", "affine", "--q", q]) == 2
        err = capsys.readouterr().err
        assert f"affine jet at (p, q) = (0.0, {float(q)!r}) leaves the float range" in err
        assert json.loads(_read(tmp_path / "failure.json"))["type"] == "ArithmeticError"
        assert not (tmp_path / "metric.csv").exists()

    @pytest.mark.parametrize("q", ["1e100", "1e154"])
    def test_affine_lost_metric_is_a_numerical_failure(self, tmp_path, capsys, q):
        # cancellation in g_vv leaves a curvature-stencil metric that is not
        # positive-definite; this used to exit 1 as an invalid configuration
        assert run(["--out", str(tmp_path), "metric", "--family", "affine", "--q", q]) == 2
        err = capsys.readouterr().err
        assert f"numerical failure: metric not positive-definite at (-0.01, {float(q)!r})" in err
        assert json.loads(_read(tmp_path / "failure.json"))["type"] == "ArithmeticError"
        assert not (tmp_path / "metric.csv").exists()

    def test_affine_metric_inside_the_float_range_completes(self, tmp_path):
        assert run(["--out", str(tmp_path), "metric", "--family", "affine", "--q", "1e153"]) == 0
        (row,) = list(csv.DictReader(_read(tmp_path / "metric.csv").splitlines()))
        assert float(row["g_uu"]) == pytest.approx(1e306, rel=1e-12)

    @pytest.mark.parametrize("flag", ["--g0=1e200", "--m0=1e150"])
    def test_rotsym_step_overflow_is_a_failed_solve(self, tmp_path, capsys, flag):
        # used to exit with a bare "(34, 'Numerical result out of range')"
        assert run(["--out", str(tmp_path), "rotsym", flag, "--t-end", "0.01"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: implicit midpoint solve failed at t = 0.0001" in err
        assert json.loads(_read(tmp_path / "failure.json"))["type"] == "RuntimeError"
        assert not (tmp_path / "rotsym.csv").exists()

    def test_run_past_the_step_cap_in_its_steps_exits_2(self, tmp_path, capsys, monkeypatch):
        # 228,618 throttled steps for a nominal 1,000: the cap is checked on
        # the steps the run takes, so it fails once past 50,000
        monkeypatch.setattr(enhq.dynamics, "MAX_STEPS", 50_000)
        assert run(["--out", str(tmp_path), "dynamics", "--hbar", "0.02", "--p0=-30",
                    "--t-end", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: run took more than MAX_STEPS = 50000 steps" in err
        assert json.loads(_read(tmp_path / "failure.json"))["type"] == "RuntimeError"
        assert not (tmp_path / "dynamics.csv").exists()

    def test_closed_form_steps_do_not_count_toward_the_cap(self, tmp_path, capsys, monkeypatch):
        # the classical hit's 552,613 steps are nearly all written in closed
        # form, so a cap just above t_end / dt lets it end in a singularity
        monkeypatch.setattr(enhq.dynamics, "MAX_STEPS", 20_001)
        assert run(["--out", str(tmp_path), "dynamics", "--hbar", "0", "--p0=-1",
                    "--t-end", "2"]) == 0
        summary = json.loads(_read(tmp_path / "dynamics_summary.json"))
        assert summary["status"] == "singularity"

    @pytest.mark.parametrize("family", ["canonical", "spin"])
    def test_out_of_memory_is_numerical_failure(self, tmp_path, capsys, monkeypatch, family):
        # an eigensystem too large for memory used to end in a traceback and exit 1
        def no_memory(kind, dim):
            raise MemoryError(f"no room for a {dim} x {dim} eigensystem")

        monkeypatch.setattr(enhq.coherent, "_ladder_spectrum", no_memory)
        assert run(["--out", str(tmp_path), "metric", "--family", family]) == 2
        assert "numerical failure: no room" in capsys.readouterr().err
        assert json.loads(_read(tmp_path / "failure.json"))["type"] == "MemoryError"
        assert not (tmp_path / "metric.csv").exists()

    @pytest.mark.parametrize("argv,cfg", [
        (["--N", "1002"], None),
        (["--family", "spin", "--s", "500.5"], None),
        ([], {"N": 1002}),
        (["--family", "spin"], {"s": 501}),
    ])
    def test_sizes_above_the_cap_exit_1(self, tmp_path, capsys, monkeypatch, argv, cfg):
        # a family's first build of a size is a dense eigh; the parser refuses
        # a size past the cap before anything is built
        def no_build(kind, dim):
            raise AssertionError(f"built a {kind} spectrum of dimension {dim}")

        monkeypatch.setattr(enhq.coherent, "_ladder_spectrum", no_build)
        config = []
        if cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            config = ["--config", str(tmp_path / "cfg.json")]
        assert run(["--out", str(tmp_path), *config, "metric", *argv]) == 1
        assert "above the cap" in capsys.readouterr().err
        assert not (tmp_path / "metric.csv").exists()

    @pytest.mark.parametrize("argv", [["--N", "1001"], ["--family", "spin", "--s", "500"]])
    def test_sizes_at_the_cap_are_built(self, tmp_path, capsys, monkeypatch, argv):
        def no_memory(kind, dim):
            raise MemoryError(f"asked for dimension {dim}")

        monkeypatch.setattr(enhq.coherent, "_ladder_spectrum", no_memory)
        assert run(["--out", str(tmp_path), "metric", *argv]) == 2
        assert "numerical failure: asked for dimension 1001" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--n", "1300", "--alphas", "0"],
        ["--eps=1e300,1e299"],
    ], ids=["sphere-area", "infinite-argument"])
    def test_side_underflows_to_zero(self, tmp_path, capsys, argv):
        # omega_n is 0 once Gamma(n/2) overflows (n = 1300 used to stop with a
        # bare "(34, 'Numerical result out of range')" from pi^(n/2)), and
        # Gamma(a, c eps^2) is 0 once c eps^2 overflows to inf
        assert run(["--out", str(tmp_path), "inequality", *argv]) == 2
        assert "numerical failure: lhs = 0.0 left the float range" in capsys.readouterr().err
        assert json.loads(_read(tmp_path / "failure.json"))["type"] == "ArithmeticError"

    def test_s_is_a_metric_flag(self, tmp_path, capsys):
        # no wcp family reads the spin
        assert run(["--out", str(tmp_path), "wcp", "--s", "1"]) == 1
        assert "unrecognized arguments: --s 1" in capsys.readouterr().err

    def test_N_is_a_metric_flag(self, tmp_path, capsys):
        # canonical wcp words act on the fiducial alone, with no truncation
        assert run(["--out", str(tmp_path), "wcp", "--N", "40"]) == 1
        assert "unrecognized arguments: --N 40" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["canonical", "affine"])
    def test_overflowing_wcp_point(self, tmp_path, capsys, family):
        # the affine run used to exit 2 with "(34, 'Numerical result out of range')"
        assert run(["--out", str(tmp_path), "wcp", "--family", family, "--p", "1e200"]) == 1
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg", [
        ("dynamics", {"dt": 0}),
        ("dynamics", {"stride": 0}),
        ("rotsym", {"stride": -1}),
        ("dynamics", {"stride": 2.5}),
        ("metric", {"family": "nonsense"}),
        ("dynamics", {"cross_check": "yes"}),
        ("inequality", {"alphas": [0.3, "x"]}),
        ("inequality", {"command": "metric"}),
        ("inequality", {"eps": []}),
        ("wcp", {"p": []}),
    ])
    def test_config_value_rejected(self, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["--out", str(tmp_path), "--config", str(path), command]) == 1
        assert "invalid configuration" in capsys.readouterr().err


class TestArtifacts:
    def test_metric_outputs(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "metric", "--family", "canonical",
                    "--p", "0", "--q", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "metric:" in out and "K ≈" in out
        table = tmp_path / "metric.csv"
        summary = json.loads(_read(tmp_path / "metric_summary.json"))
        assert table.exists()
        header = _read(table).splitlines()[0]
        assert header == "u,v,g_uu,g_uv,g_vv,K,K_err"
        assert summary["version"]
        assert summary["wall_time_s"] >= 0
        assert summary["config"]["family"] == "canonical"

    def test_affine_curvature_verdict(self, tmp_path, capsys):
        # grid-sampled states gave g_uu = 357158.6 and K = -1.836 at q = 1000, with exit 0
        for q in ("1", "1000"):
            assert run(["--out", str(tmp_path), "metric", "--family", "affine",
                        "--beta", "1", "--q", q, "--p", "0"]) == 0
            summary = json.loads(_read(tmp_path / "metric_summary.json"))
            assert summary["K_mean"] == pytest.approx(-1.0, abs=1e-3)
            _, v, g_uu, g_uv, g_vv, _, _ = _affine_metric_row(tmp_path)
            assert (g_uu, g_uv, g_vv) == pytest.approx((v * v, 0.0, 1.0 / (v * v)), rel=1e-12, abs=0.0)

    def test_dynamics_singularity_verdict(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "dynamics", "--model", "toygravity",
                    "--hbar", "0", "--p0", "-1", "--q0", "1"]) == 0
        out = capsys.readouterr().out
        assert "singularity at t≈" in out
        summary = json.loads(_read(tmp_path / "dynamics_summary.json"))
        assert summary["status"] == "singularity"
        assert abs(summary["hit_time"] - 1.0) < 1e-4
        assert (summary["t_star"], summary["q_min_exact"]) == (1.0, 0.0)

    @pytest.mark.parametrize("argv,turn", [
        (["--hbar", "0.5", "--beta", "2", "--p0", "-2", "--q0", "1.5", "--t-end", "3"], "inside"),
        (["--hbar", "1", "--beta", "2", "--p0", "1", "--t-end", "0.5"], "before"),
        (["--hbar", "1", "--beta", "2", "--p0=-2", "--t-end", "0.05"], "after"),
        (["--hbar", "0", "--p0", "1", "--t-end", "0.5"], "before"),
    ], ids=["inside", "enhanced-before", "enhanced-after", "classical-before"])
    def test_dynamics_reports_the_exact_bounce(self, tmp_path, capsys, argv, turn):
        # t* lies inside the run, before it or after it: q's exact minimum is
        # c / E, q0 or q(t_end), and t* is reported only inside the run
        assert run(["--out", str(tmp_path), "dynamics", *argv]) == 0
        summary = json.loads(_read(tmp_path / "dynamics_summary.json"))
        cfg = summary["config"]
        hbar, p0, q0 = cfg["hbar"], cfg["p0"], cfg["q0"]
        c = hbar * hbar * cprime_closed_form(cfg["beta"], hbar) if hbar else 0.0
        energy = q0 * p0 * p0 + c / q0
        if turn == "inside":
            assert summary["t_star"] == pytest.approx(-q0 * p0 / energy, rel=1e-14)
            assert summary["q_min_exact"] == pytest.approx(c / energy, rel=1e-13)
        else:
            assert summary["t_star"] is None
            q_min = q0 if turn == "before" else toy_gravity_solution(p0, q0, c, cfg["t_end"])[1]
            assert summary["q_min_exact"] == pytest.approx(q_min, rel=1e-13)
        assert summary["min_q"] == pytest.approx(summary["q_min_exact"], rel=1e-6)

    def test_oscillator_has_no_turn(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "dynamics", "--model", "oscillator"]) == 0
        summary = json.loads(_read(tmp_path / "dynamics_summary.json"))
        assert summary["t_star"] is None and summary["q_min_exact"] is None

    def test_rotsym_artifacts(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "rotsym", "--N", "3",
                    "--t-end", "0.5"]) == 0
        summary = json.loads(_read(tmp_path / "rotsym_summary.json"))
        assert summary["shuffle_deviation"] < 1e-9
        header = _read(tmp_path / "rotsym.csv").splitlines()[0]
        assert header == "t,p_1,p_2,p_3,q_1,q_2,q_3,H,drift"

    @pytest.mark.parametrize("m0", ["1", "1e150"])
    def test_free_rotsym_is_exactly_shuffle_symmetric(self, tmp_path, capsys, m0):
        # at g0 = 0 both runs share one closed-form plane, whatever the
        # Gram matrix; m0 = 1e150 used to fail its first Newton start
        assert run(["--out", str(tmp_path), "rotsym", "--g0", "0", "--m0", m0]) == 0
        summary = json.loads(_read(tmp_path / "rotsym_summary.json"))
        assert summary["shuffle_deviation"] == 0.0

    def test_rotsym_reads_states_only_where_written(self, tmp_path, capsys, monkeypatch):
        reads, states = [], Trajectory.states

        def spy(traj, k):
            reads.append(k)
            return states(traj, k)

        monkeypatch.setattr(Trajectory, "states", spy)
        assert run(["--out", str(tmp_path), "rotsym", "--N", "4", "--t-end", "0.2",
                    "--stride", "3"]) == 0
        assert reads == [slice(None, None, 3)]
        assert len(_read(tmp_path / "rotsym.csv").splitlines()) == 1 + 667

    def test_rotsym_holds_no_state_array(self, tmp_path, capsys):
        # the default run at N = 32 peaks below one (T, B, N) float64 array
        assert run(["--out", str(tmp_path), "rotsym", "--N", "2", "--t-end", "0.01"]) == 0
        tracemalloc.start()
        try:
            assert run(["--out", str(tmp_path), "rotsym", "--N", "32", "--t-end", "2"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_001 * 2 * 32 * 8

    def test_rotsym_holds_no_deviation_array(self, tmp_path, capsys):
        # the shuffle deviation is folded a block of steps at a time, so the
        # run at N = 64 peaks below one (T, N) float64 array of 10.24 MB,
        # which the fold over the whole run used to allocate
        assert run(["--out", str(tmp_path), "rotsym", "--N", "2", "--t-end", "0.01"]) == 0
        tracemalloc.start()
        try:
            assert run(["--out", str(tmp_path), "rotsym", "--N", "64", "--t-end", "2"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_001 * 64 * 8

    def test_dynamics_holds_only_the_written_rows(self, tmp_path, capsys):
        # the classical hit takes 552,614 steps for a 5,527-row table, and
        # peaks below one float64 array of its steps
        argv = ["--out", str(tmp_path), "dynamics", "--hbar", "0", "--p0=-1.5", "--t-end", "3"]
        assert run(argv) == 0
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(_read(tmp_path / "dynamics.csv").splitlines()) == 1 + 5_527
        assert peak < 552_614 * 8

    @pytest.mark.parametrize("argv", [
        ["--model", "oscillator", "--t-end", "1"],
        ["--hbar", "0.5", "--beta", "2", "--p0=-2", "--t-end", "1"],
    ], ids=["oscillator", "bounce"])
    def test_cross_check_reads_the_last_step_at_any_stride(self, tmp_path, capsys, argv):
        # at stride 13 the last step is not a table row; the check still
        # reads the run's last step
        errors = []
        for stride in ("1", "13"):
            assert run(["--out", str(tmp_path), "dynamics", *argv, "--stride", stride]) == 0
            errors.append(json.loads(_read(tmp_path / "dynamics_summary.json"))
                          ["cross_check_error"])
        last = _read(tmp_path / "dynamics.csv").splitlines()[-1]
        assert float(last.split(",")[0]) < 1.0
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("argv", [
        ["--model", "oscillator", "--t-end", "1"],
        ["--hbar", "0", "--t-end", "0.9"],
        ["--hbar", "0.5", "--beta", "2", "--p0=-2", "--t-end", "1"],
    ], ids=["oscillator", "classical", "bounce"])
    def test_cross_check_is_the_exact_flow_error(self, tmp_path, capsys, argv):
        assert run(["--out", str(tmp_path), "dynamics", *argv, "--stride", "1"]) == 0
        summary = json.loads(_read(tmp_path / "dynamics_summary.json"))
        cfg = summary["config"]
        p0, q0 = cfg["p0"], cfg["q0"]
        t, p, q = map(float, _read(tmp_path / "dynamics.csv").splitlines()[-1].split(",")[:3])
        assert t == cfg["t_end"]
        if cfg["model"] == "oscillator":
            p_exact, q_exact = p0 * np.cos(t) - q0 * np.sin(t), q0 * np.cos(t) + p0 * np.sin(t)
        else:
            c = toy_gravity_flow(hbar=cfg["hbar"], beta=cfg["beta"]).barrier
            p_exact, q_exact = toy_gravity_solution(p0, q0, c, t)
        error = max(abs(p - p_exact), abs(q - q_exact))
        assert summary["cross_check_error"] == error
        assert 0 < error < 1e-6

    @pytest.mark.parametrize("q0", ["1", "1e200"])
    def test_cross_check_of_a_classical_hit(self, tmp_path, capsys, q0):
        # the run ends at its last step before the floor, short of the pole,
        # where the exact flow raises
        assert run(["--out", str(tmp_path), "dynamics", "--hbar", "0", "--q0", q0]) == 0
        summary = json.loads(_read(tmp_path / "dynamics_summary.json"))
        assert summary["status"] == "singularity"
        assert math.isfinite(summary["cross_check_error"])

    def test_every_run_checks_itself(self, tmp_path, capsys):
        # the check is one closed-form evaluation, so no switch turns it on
        argv = ["--out", str(tmp_path), "dynamics", "--model", "oscillator", "--t-end", "0.5",
                "--stride", "1"]
        assert run(argv) == 0
        summary = json.loads(_read(tmp_path / "dynamics_summary.json"))
        t, p, q = map(float, _read(tmp_path / "dynamics.csv").splitlines()[-1].split(",")[:3])
        p_exact, q_exact = -np.cos(t) - np.sin(t), np.cos(t) - np.sin(t)  # p0 = -1, q0 = 1
        assert summary["cross_check_error"] == max(abs(p - p_exact), abs(q - q_exact))
        assert run([*argv, "--cross-check"]) == 1
        assert "unrecognized arguments: --cross-check" in capsys.readouterr().err

    def test_wcp_verdict(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "wcp", "--family", "canonical",
                    "--p", "0,1", "--q", "1"]) == 0
        summary = json.loads(_read(tmp_path / "wcp_summary.json"))
        assert summary["scaling_exponent"] == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("hbar,p,q", [
        (1.0, 10.0, 3.0), (1.0, 20.0, 20.0), (0.01, -0.5852891519223444, -1.9523610466359287)])
    def test_wcp_beyond_the_truncation(self, tmp_path, capsys, hbar, p, q):
        # canonical words act on the fiducial, so no Fock truncation bounds (p, q): at
        # hbar = 1 these points exited 1, and at hbar = 0.01 the aliased state read H = 0.374
        assert run(["--out", str(tmp_path), "wcp", "--hbar", repr(hbar), f"--p={p!r}",
                    f"--q={q!r}"]) == 0
        h = float(_read(tmp_path / "wcp.csv").splitlines()[1].split(",")[2])
        assert h == pytest.approx(0.5 * (p * p + q * q) + hbar / 2, rel=1e-14)

    def test_json_table_format(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "--format", "json", "inequality",
                    "--n", "3", "--alphas", "0.1"]) == 0
        doc = json.loads(_read(tmp_path / "inequality.json"))
        assert doc["columns"] == ["n", "alpha", "eps", "lhs", "rhs", "ratio"]
        assert len(doc["rows"]) == 6

    def test_selftest_passes(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "selftest"]) == 0
        out = capsys.readouterr().out
        assert "invariants pass" in out

    def test_selftest_table_is_golden(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "selftest"]) == 0
        assert (tmp_path / "selftest.csv").read_bytes() == SELFTEST_TABLE.encode()
        summary = json.loads(_read(tmp_path / "selftest_summary.json"))
        rows = list(csv.reader(SELFTEST_TABLE.splitlines()))[1:]
        assert list(summary["residuals"]) == [r[0] for r in rows]
        for (name, _, detail), residuals in zip(rows, summary["residuals"].values()):
            tol = float(detail.rsplit(" ", 1)[1])
            assert residuals and all(0.0 <= v < tol for v in residuals.values()), name
        assert run(["--out", str(tmp_path), "--format", "json", "selftest"]) == 0
        assert json.loads(_read(tmp_path / "selftest.json"))["rows"] == [
            [_cell(x) for x in r] for r in rows]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_render_cell_by_cell(self, tmp_path, fmt):
        # a written row must print what each cell prints alone, whatever
        # mix of floats, numpy floats, ints and strings a row holds
        rows = [(1.0, np.float64(0.1), 3, "a,b", 'say "x"', float("inf"), -0.0, 1e-300),
                (2, 0.2, 3.0, "plain", None, float("nan"), np.float64(-1.5), True),
                (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)]
        header = [f"c{i}" for i in range(8)]
        path = cli._write_table(str(tmp_path / "t"), header, rows, fmt)
        cells = [[_cell(x) for x in r] for r in rows]
        if fmt == "csv":
            expected = "".join(",".join(r) + "\n" for r in [header, *cells])
            assert open(path).read() == expected
        else:
            assert json.load(open(path)) == {"columns": header, "rows": cells}


class TestArrayTable:
    """A float64 array table writes the bytes its rows write as tuples."""

    @staticmethod
    def _same_bytes(tmp_path, header, table, fmt):
        rows = [tuple(r) for r in table.tolist()]
        a = cli._write_table(str(tmp_path / "array"), header, table, fmt)
        b = cli._write_table(str(tmp_path / "rows"), header, rows, fmt)
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("stride", [1, 7, 100])
    def test_scalar_runs(self, tmp_path, fmt, stride):
        traj = integrate(toy_gravity_flow(hbar=0.5, beta=2.0), (-1.0, 1.0), 1.0, stride=stride)
        header, table = cli._trajectory_table(traj, 1)
        assert table.shape == (traj.times.size, 5) and table.shape[0] % cli._BLOCK
        self._same_bytes(tmp_path, header, table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_vector_runs(self, tmp_path, fmt, n):
        rng = np.random.default_rng(n)
        p0, q0 = 0.5 / np.sqrt(n) * rng.normal(size=(2, n))
        traj = integrate(rotsym_flow(n, 1.0, 1.0), (p0, q0), 0.05)
        header, table = cli._trajectory_table(traj, 1)
        assert table.shape == (501, 2 * n + 3)
        self._same_bytes(tmp_path, header, table, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows", [1, 2, cli._BLOCK, cli._BLOCK + 1])
    def test_edge_values(self, tmp_path, fmt, rows):
        cells = [-0.0, 0.0, 0.1, -1e-300, 5e-324, np.inf, -np.inf, np.nan, 1 / 3, -2.5e17]
        table = np.resize(np.array(cells), (rows, 4))
        self._same_bytes(tmp_path, ["a", "b", "c", "d"], table, fmt)
        path = tmp_path / f"array.{fmt}"
        first = (_read(path).splitlines()[1].split(",") if fmt == "csv"
                 else json.loads(_read(path))["rows"][0])
        assert first == ["-0", "0", "0.10000000000000001", "-1e-300"]


class TestRunWritesArtifacts:
    @pytest.mark.parametrize("argv", [
        ["metric", "--family", "affine", "--p", "0", "--q", "1"],
        ["wcp", "--family", "affine", "--p", "0", "--q", "1"],
        ["dynamics", "--model", "oscillator", "--t-end", "0.1"],
        ["rotsym", "--N", "3", "--t-end", "0.1"],
        ["inequality", "--n", "3", "--alphas", "0.2"],
        ["selftest"],
    ], ids=lambda argv: argv[0])
    def test_one_contract_for_every_subcommand(self, tmp_path, capsys, argv):
        assert run(["--out", str(tmp_path), *argv]) == 0
        table = str(tmp_path / f"{argv[0]}.csv")
        summary = str(tmp_path / f"{argv[0]}_summary.json")
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].endswith(f" -> {table}, {summary}")
        doc = json.loads(_read(tmp_path / f"{argv[0]}_summary.json"))
        assert list(doc)[:3] == ["config", "version", "wall_time_s"]
        assert list(doc)[-1] == "table" and doc["table"] == table

    def test_failed_selftest_writes_both_and_exits_2(self, tmp_path, capsys, monkeypatch):
        from enhq import selftest

        monkeypatch.setattr(selftest, "run_all", lambda: [
            ("good", True, "ok < 1", {"r": 0.5}), ("bad", False, "off < 1", {"r": 2.0})])
        assert run(["--out", str(tmp_path), "selftest"]) == 2
        assert "selftest: 1/2 invariants pass ->" in capsys.readouterr().out
        assert _read(tmp_path / "selftest.csv").splitlines()[1:] == [
            "good,pass,ok < 1", "bad,FAIL,off < 1"]
        summary = json.loads(_read(tmp_path / "selftest_summary.json"))
        assert (summary["passed"], summary["failed"]) == (1, ["bad"])

    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_spin_metric_defaults_to_the_equator(self, tmp_path, capsys, s):
        # theta = 0, the shared default, is a pole of the spin angles chart
        assert run(["--out", str(tmp_path), "metric", "--family", "spin", "--s", str(s)]) == 0
        summary = json.loads(_read(tmp_path / "metric_summary.json"))
        assert summary["config"]["p"] == [math.pi / 2]
        assert summary["K_mean"] == pytest.approx(1.0 / s, abs=1e-3)  # 1/(s hbar), hbar = 1
        assert run(["--out", str(tmp_path), "metric", "--family", "affine"]) == 0
        assert json.loads(_read(tmp_path / "metric_summary.json"))["config"]["p"] == [0.0]


    @pytest.mark.parametrize("family,hamiltonian", [
        ("canonical", "0.5*P.P + 0.5*Q.Q"), ("affine", "D.Qinv.D")])
    def test_wcp_echoes_its_family_default(self, tmp_path, capsys, family, hamiltonian):
        assert run(["--out", str(tmp_path), "wcp", "--family", family, "--p", "0",
                    "--q", "1"]) == 0
        config = json.loads(_read(tmp_path / "wcp_summary.json"))["config"]
        assert config["hamiltonian"] == hamiltonian
        assert "s" not in config and "N" not in config

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
    def test_version_is_the_package_version(self, tmp_path, capsys):
        import tomllib

        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            assert enhq.__version__ == tomllib.load(fh)["project"]["version"]
        assert run(["--out", str(tmp_path), "inequality", "--n", "3", "--alphas", "0.2"]) == 0
        assert json.loads(_read(tmp_path / "inequality_summary.json"))["version"] == (
            enhq.__version__)
        assert run(["--out", str(tmp_path), "inequality", "--n", "400", "--alphas", "0"]) == 2
        assert json.loads(_read(tmp_path / "failure.json"))["version"] == enhq.__version__

    def test_runs_share_one_parser(self, tmp_path, capsys, monkeypatch):
        # the command line is built on a process's first run, not on every run
        built, init = [], argparse.ArgumentParser.__init__

        def spy(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for _ in range(2):
            assert run(["--out", str(tmp_path), "inequality", "--n", "3",
                        "--alphas", "0.2"]) == 0
        assert built.count("enhq") <= 1


class TestSharedFlags:
    @pytest.mark.parametrize("flag", [["--format", "json"], ["--format=json"]])
    def test_either_side_of_the_subcommand(self, tmp_path, capsys, flag):
        argv = ["metric", "--family", "affine", "--p=-0.5,0", "--q", "1"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["--out", str(a)] + flag + argv) == 0
        assert run(argv + ["--out", str(b)] + flag) == 0
        assert (a / "metric.json").read_bytes() == (b / "metric.json").read_bytes()

    def test_config_after_the_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": "0.3"}))
        assert run(["inequality", "--n", "3", "--config", str(cfg),
                    "--out", str(tmp_path)]) == 0
        summary = json.loads(_read(tmp_path / "inequality_summary.json"))
        assert summary["config"]["alphas"] == [0.3]
        assert summary["config"]["format"] == "csv"

    def test_config_yields_only_to_a_full_flag(self, tmp_path, capsys):
        # argparse used to take --hb for --hbar while the config scan did not,
        # so the config's hbar won; an abbreviated flag is now refused
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hbar": 0.5}))
        argv = ["--out", str(tmp_path), "--config", str(cfg), "dynamics", "--t-end", "0.1"]
        assert run([*argv, "--hb", "0.7"]) == 1
        assert "unrecognized arguments: --hb 0.7" in capsys.readouterr().err
        for flag in (["--hbar", "0.7"], ["--hbar=0.7"]):
            assert run([*argv, *flag]) == 0
            assert json.loads(_read(tmp_path / "dynamics_summary.json"))["config"]["hbar"] == 0.7


class TestNegativeLists:
    def test_equals_form_runs(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "metric", "--p=-1,0", "--q=-0.5"]) == 0
        rows = _read(tmp_path / "metric.csv").splitlines()[1:]
        assert [tuple(r.split(",")[:2]) for r in rows] == [("-1", "-0.5"), ("0", "-0.5")]

    def test_bare_form_is_a_usage_error(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "metric", "--p", "-1,0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: enhq metric")
        assert "--p: expected one argument" in err
        assert "Traceback" not in err


class TestDeterminism:
    def test_identical_configs_byte_identical_csv(self, tmp_path, capsys):
        argv = ["inequality", "--n", "5", "--alphas", "0.5,1.3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["--out", str(a)] + argv) == 0
        assert run(["--out", str(b)] + argv) == 0
        assert (a / "inequality.csv").read_bytes() == (b / "inequality.csv").read_bytes()

    def test_sweeps_run_serially_by_default(self, monkeypatch):
        monkeypatch.delenv("ENHQ_THREADS", raising=False)
        assert cli._worker_count() == 1
        for raw, workers in (("2", 2), ("0", 1), ("many", 1)):
            monkeypatch.setenv("ENHQ_THREADS", raw)
            assert cli._worker_count() == workers

    def test_thread_pool_writes_the_serial_table(self, tmp_path, capsys, monkeypatch):
        # metric's threads share one family's factor caches
        for argv in (["metric", "--family", "canonical", "--N", "40", "--p=-0.5,0.5", "--q=0,0.7"],
                     ["metric", "--family", "affine", "--p=-0.5,0.5", "--q=0.8,0.81"],
                     ["metric", "--family", "spin", "--s", "1.5", "--p=1,1.01", "--q=0.3,0.31"],
                     ["wcp", "--family", "canonical", "--hbar", "0.5", "--p=-0.5,0.5",
                      "--q=0,0.7"]):
            tables = []
            for threads in ("1", "2"):
                monkeypatch.setenv("ENHQ_THREADS", threads)
                out = tmp_path / argv[0] / threads
                assert run(["--out", str(out)] + argv) == 0
                tables.append((out / f"{argv[0]}.csv").read_bytes())
            assert tables[0] == tables[1]

    def test_rotsym_seeded(self, tmp_path, capsys):
        argv = ["rotsym", "--N", "3", "--t-end", "0.2", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["--out", str(a)] + argv) == 0
        assert run(["--out", str(b)] + argv) == 0
        assert (a / "rotsym.csv").read_bytes() == (b / "rotsym.csv").read_bytes()


class TestConfigFile:
    def test_file_supplies_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "alphas": "0.3", "m0": 2.0}))
        assert run(["--out", str(tmp_path), "--config", str(cfg),
                    "inequality", "--n", "3"]) == 0
        summary = json.loads(_read(tmp_path / "inequality_summary.json"))
        assert summary["config"]["n"] == 3  # flag wins
        assert summary["config"]["m0"] == 2.0  # file fills the gap

    def test_values_parse_like_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": [0.1, 0.3], "n": "3", "m0": 2, "eps": None}))
        assert run(["--out", str(tmp_path), "--config", str(cfg), "inequality"]) == 0
        config = json.loads(_read(tmp_path / "inequality_summary.json"))["config"]
        assert config["alphas"] == [0.1, 0.3]
        assert config["n"] == 3 and config["m0"] == 2.0 and config["eps"] is None
        assert "fn" not in config

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        assert run(["--out", str(tmp_path), "--config", str(cfg),
                    "inequality"]) == 1

    def test_malformed_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2, 3]")
        assert run(["--out", str(tmp_path), "--config", str(cfg),
                    "inequality"]) == 1
