"""Command-line surface: subcommands, exit codes, determinism, config."""

import json

import pytest

from turbox import cli
from turbox.serialize import format_float, to_json_text


def run_cli(args, capsys):
    code = cli.run(args)
    out = capsys.readouterr()
    return code, out.out, out.err


RES_FLAGS = ["--TL", "1", "--TR", "0.2", "--muL", "-1", "--muR", "0.5"]


def test_eval_zero_boxcar(capsys):
    code, out, _ = run_cli(
        ["eval", *RES_FLAGS, "--boxcar", "[]"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["I"] == 0.0 and data["var_I"] == 0.0
    assert data["fano"] is None


def test_eval_full_line_json_fields(capsys):
    code, out, _ = run_cli(
        ["eval", "--betaL", "1", "--betaR", "1", "--muL", "-1", "--muR", "1",
         "--boxcar", '[["-inf", "inf"]]'],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["I"] == pytest.approx(-2.0, abs=1e-9)
    assert data["eta_eff"] is None


def test_eval_model(capsys):
    code, out, _ = run_cli(
        ["eval", *RES_FLAGS, "--model", "dqd",
         "--params", "Gamma=0.1,Omega=0.05,omega=0"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["var_I"] > 0.0


def test_eval_table(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("energy,transmission\n-5,0\n0,1\n5,0\n")
    code, out, _ = run_cli(["eval", *RES_FLAGS, "--table", str(table)], capsys)
    assert code == 0
    assert json.loads(out)["var_I"] > 0.0


def test_mixing_reservoir_styles_rejected(capsys):
    code, _, err = run_cli(
        ["eval", "--TL", "1", "--betaL", "1", "--TR", "1", "--muL", "0",
         "--muR", "0", "--boxcar", "[]"],
        capsys,
    )
    assert code == 1
    assert "not both" in err


def test_eval_requires_one_source(capsys):
    code, _, err = run_cli(["eval", *RES_FLAGS], capsys)
    assert code == 1
    assert "exactly one" in err


def test_optimize_round_trip(tmp_path, capsys):
    out_file = tmp_path / "sol.json"
    code, _, _ = run_cli(
        ["optimize", *RES_FLAGS, "--I", "0.05", "--J", "0.3",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["I"] == pytest.approx(0.05, rel=1e-6)
    assert data["J"] == pytest.approx(0.3, rel=1e-6)
    assert isinstance(data["boxcar"], list)


def test_optimize_infeasible_exit_2_no_file(tmp_path, capsys):
    out_file = tmp_path / "never.json"
    code, _, err = run_cli(
        ["optimize", *RES_FLAGS, "--I", "50.0", "--J", "0.0",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 2
    assert not out_file.exists()
    assert "error" in err


def test_validation_failure_writes_no_file(tmp_path, capsys):
    out_file = tmp_path / "never.json"
    code, _, _ = run_cli(
        ["eval", *RES_FLAGS, "--boxcar", "not json", "--out", str(out_file)],
        capsys,
    )
    assert code == 1
    assert not out_file.exists()


def test_sweep_csv_and_determinism(tmp_path, capsys):
    args = ["sweep", "--Gamma", "0.1", "--Omega", "0.05", "--omega", "0",
            "--beta", "1", "--dmu", "0.5,2,8"]
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    assert cli.run(args + ["--out", str(f1)]) == 0
    assert cli.run(args + ["--out", str(f2)]) == 0
    b1 = f1.read_bytes()
    assert b1 == f2.read_bytes()
    header = b1.decode().splitlines()[0]
    assert header == "dmu,I,J,var_model,fano_model_scaled,var_opt,fano_opt_scaled"
    assert len(b1.decode().strip().splitlines()) == 4


def test_oracle_report_and_seed(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["oracle", *RES_FLAGS, "--I", "-0.2", "--J", "0.3", "--N", "8",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["verdict"] == "PASS"
    assert "seed" not in rep  # the --seed option, which only echoed here, is gone
    assert rep["N"] == 8


def test_oracle_fail_verdict_exit_3(monkeypatch, capsys):
    def fake_verify(*a, **k):
        return {"verdict": "FAIL"}

    monkeypatch.setattr(cli, "verify", fake_verify)
    code, out, _ = run_cli(
        ["oracle", *RES_FLAGS, "--I", "0.03", "--J", "0.2"], capsys
    )
    assert code == 3
    assert json.loads(out)["verdict"] == "FAIL"


def test_linear_subcommand(capsys):
    code, out, _ = run_cli(
        ["linear", "--beta", "1", "--mu", "0", "--dbeta", "0.01",
         "--dbetamu", "0.01", "--boxcar", "[[-1.0, 2.0]]"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["ratio"] > 2.0
    assert data["sigma"] >= 0.0


def test_region_subcommand_csv_dir(tmp_path, capsys):
    out_dir = tmp_path / "region"
    code, _, err = run_cli(
        ["region", *RES_FLAGS, "--nI", "5", "--nJ", "5",
         "--n-boundary", "6", "--tol", "1e-4", "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"boundary.csv", "bifurcations.csv", "topology.csv",
                     "region.json"}


def test_region_subcommand_json_bundle(tmp_path, capsys):
    out_file = tmp_path / "region.json"
    code, _, _ = run_cli(
        ["region", *RES_FLAGS, "--nI", "4", "--nJ", "4",
         "--n-boundary", "5", "--tol", "1e-4", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    bundle = json.loads(out_file.read_text())
    assert set(bundle) == {"i_range", "boundary", "bifurcations", "topology",
                           "notes"}
    assert len(bundle["boundary"]) == 5


def test_config_file_supplies_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "TL": 1.0, "TR": 0.2, "muL": -1.0, "muR": 0.5, "boxcar": "[]",
    }))
    code, out, _ = run_cli(["--config", str(cfg), "eval"], capsys)
    assert code == 0
    assert json.loads(out)["I"] == 0.0

    # explicit flag overrides the config value
    code, out, _ = run_cli(
        ["--config", str(cfg), "eval", "--boxcar", '[[0.875, "inf"]]'], capsys
    )
    assert code == 0
    assert json.loads(out)["I"] > 0.0


def test_float_format_round_trips(rng):
    for _ in range(200):
        x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
        assert float(format_float(x)) == x


def test_json_emitter_shapes():
    text = to_json_text({"a": [1.5, None, True], "b": "x"})
    data = json.loads(text)
    assert data == {"a": [1.5, None, True], "b": "x"}
