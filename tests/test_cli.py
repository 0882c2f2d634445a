"""Driver behavior: exit codes, artifacts, determinism, config handling."""

import json

import pytest

from enhq.cli import run


def _read(path):
    return path.read_text()


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

    def test_unresolved_affine_state(self, tmp_path, capsys):
        # the curvature stencil's metric at q = 0.015 samples q +- 0.002 on a
        # grid centred at 0.015; unchecked, those states give K = 3.57e6 (true -1)
        code = run(["--out", str(tmp_path), "metric", "--family", "affine", "--q", "0.025"])
        assert code == 1
        assert "does not resolve" in capsys.readouterr().err
        assert not (tmp_path / "metric.csv").exists()

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
    ])
    def test_flag_rejected(self, tmp_path, capsys, argv):
        assert run(["--out", str(tmp_path)] + argv) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_out_of_range_inequality_is_numerical_failure(self, tmp_path, capsys):
        # n = 400 overflows Gamma(200); the run stops instead of writing NaN
        assert run(["--out", str(tmp_path), "inequality", "--n", "400", "--alphas", "0"]) == 2
        assert "numerical failure" in capsys.readouterr().err
        assert json.loads(_read(tmp_path / "failure.json"))["type"] == "ArithmeticError"
        assert not (tmp_path / "inequality.csv").exists()

    @pytest.mark.parametrize("command,cfg", [
        ("dynamics", {"dt": 0}),
        ("dynamics", {"stride": 0}),
        ("rotsym", {"stride": -1}),
        ("dynamics", {"stride": 2.5}),
        ("metric", {"family": "nonsense"}),
        ("dynamics", {"cross_check": "yes"}),
        ("inequality", {"alphas": [0.3, "x"]}),
        ("inequality", {"command": "metric"}),
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
        assert run(["--out", str(tmp_path), "metric", "--family", "affine",
                    "--beta", "1", "--q", "1", "--p", "0"]) == 0
        summary = json.loads(_read(tmp_path / "metric_summary.json"))
        assert summary["K_mean"] == pytest.approx(-1.0, abs=1e-3)

    def test_dynamics_singularity_verdict(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "dynamics", "--model", "toygravity",
                    "--hbar", "0", "--p0", "-1", "--q0", "1"]) == 0
        out = capsys.readouterr().out
        assert "singularity at t≈" in out
        summary = json.loads(_read(tmp_path / "dynamics_summary.json"))
        assert summary["status"] == "singularity"
        assert abs(summary["hit_time"] - 1.0) < 1e-4

    def test_rotsym_artifacts(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "rotsym", "--N", "3",
                    "--t-end", "0.5"]) == 0
        summary = json.loads(_read(tmp_path / "rotsym_summary.json"))
        assert summary["shuffle_deviation"] < 1e-9
        header = _read(tmp_path / "rotsym.csv").splitlines()[0]
        assert header == "t,p_1,p_2,p_3,q_1,q_2,q_3,H,drift"

    def test_wcp_verdict(self, tmp_path, capsys):
        assert run(["--out", str(tmp_path), "wcp", "--family", "canonical",
                    "--p", "0,1", "--q", "1"]) == 0
        summary = json.loads(_read(tmp_path / "wcp_summary.json"))
        assert summary["scaling_exponent"] == pytest.approx(1.0, abs=0.02)

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
