import json
import os
import subprocess
import sys

import pytest

from tricomilab.cli import (
    EXIT_CENSORED,
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_REPORT_GAP,
    dispatch,
    fmt,
    resolve_config,
)
from tricomilab.errors import ConfigError
from tricomilab.tricomi_ode import OdeParams, fundamental_pair_scaled, ode_oracle_scaled


def run_cli(args):
    return dispatch(list(args))


def test_exponents_json(tmp_path):
    out = tmp_path / "exp.json"
    code = run_cli(
        ["exponents", "--set", "exponents.m=0", "--set", "exponents.n=3",
         "--output", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["p_crit"] == pytest.approx(2.414213562373, abs=1e-9)
    assert doc["config"]["exponents"]["m"] == 0.0
    assert abs(doc["identity_residual_frame"]) <= 1e-10


def test_unknown_key_rejected(tmp_path, capsys):
    code = run_cli(["exponents", "--set", "exponents.bogus=1"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bogus" in err


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        resolve_config("exponents", None, ["nosuch.m=1"])


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required"):
        resolve_config("exponents", None, [])


def test_domain_error_exit_code(capsys):
    # supercritical p routes the lifespan request into a domain error
    code = run_cli(
        ["exponents", "--set", "exponents.m=1", "--set", "exponents.n=2",
         "--set", "exponents.p=3.5", "--set", "exponents.eps=0.5"]
    )
    assert code == EXIT_DOMAIN


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[exponents]\nm = 1\nn = 2\n")
    out = tmp_path / "o.json"
    code = run_cli(
        ["exponents", "--config", str(cfg), "--set", "exponents.n=3",
         "--output", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["n"] == 3  # override wins over file


def test_config_echoed_in_csv_header(tmp_path):
    out = tmp_path / "spec.csv"
    code = run_cli(
        ["specfun", "--set", "specfun.a=1", "--set", "specfun.b=2",
         "--set", "specfun.z=2", "--output", str(out), "--format", "csv"]
    )
    assert code == EXIT_OK
    text = out.read_text()
    assert "# specfun.a = 1" in text
    assert "value" in text.splitlines()[-2]  # header row precedes data row


def test_specfun_reports_regime(tmp_path):
    out = tmp_path / "spec.json"
    run_cli(
        ["specfun", "--set", "specfun.z=-60", "--output", str(out),
         "--format", "json"]
    )
    doc = json.loads(out.read_text())
    assert doc["regime"] == "asymptotic"


def test_determinism_byte_identical(tmp_path):
    args = [
        "simulate", "--set", "model.m=1", "--set", "model.n=1",
        "--set", "model.p=2", "--set", "grid.dx=0.05", "--set", "grid.t_max=1.5",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--output", str(out1)]) == EXIT_OK
    assert run_cli(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_determinism_subprocess(tmp_path):
    # same invocation through a fresh interpreter: still byte-identical
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    cmd = [
        sys.executable, "-m", "tricomilab", "exponents",
        "--set", "exponents.m=1", "--set", "exponents.n=2",
        "--set", "exponents.eps=0.25",
    ]
    r1 = subprocess.run(cmd + ["--output", str(out1)], capture_output=True)
    r2 = subprocess.run(cmd + ["--output", str(out2)], capture_output=True)
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_writes_records_and_fit(tmp_path):
    rec_path = tmp_path / "records.csv"
    fit_path = tmp_path / "fit.json"
    code = run_cli(
        ["scan", "--set", "model.m=1", "--set", "model.n=1", "--set", "model.p=2",
         "--set", "grid.dx=0.05", "--set", "scan.eps_list=0.8,1.0,1.2,1.4",
         "--set", "grid.u1_mode=zero",
         "--output", str(rec_path), "--fit-output", str(fit_path)]
    )
    assert code == EXIT_OK
    lines = [l for l in rec_path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "eps,t_blowup,censored,peak,threshold_sensitivity"
    assert len(lines) == 5
    fit = json.loads(fit_path.read_text())
    assert fit["fit"]["n_used"] == 4
    assert fit["fit"]["theory_slope"] == -1.0


def test_scan_all_censored_exit_code(tmp_path):
    rec_path = tmp_path / "records.csv"
    code = run_cli(
        ["scan", "--set", "model.m=1", "--set", "model.n=1", "--set", "model.p=2",
         "--set", "grid.dx=0.1", "--set", "grid.t_max=0.5",
         "--set", "scan.eps_list=0.001,0.002",
         "--output", str(rec_path), "--fit-output", str(tmp_path / "f.json")]
    )
    assert code == EXIT_CENSORED
    assert rec_path.exists()  # records still written
    body = [l for l in rec_path.read_text().splitlines() if not l.startswith("#")]
    assert all("true" in l for l in body[1:])


def test_report_merges_and_flags(tmp_path):
    exp_out = tmp_path / "exp.json"
    run_cli(["exponents", "--set", "exponents.m=1", "--set", "exponents.n=2",
             "--output", str(exp_out)])
    summary = tmp_path / "summary.json"
    code = run_cli(["report", str(exp_out), "--output", str(summary)])
    assert code == EXIT_OK
    doc = json.loads(summary.read_text())
    assert doc["overall_pass"] is True
    assert any(c["name"] == "identity_residual_frame" for c in doc["checks"])


def test_report_missing_inputs(tmp_path, capsys):
    assert run_cli(["report"]) == EXIT_REPORT_GAP
    assert run_cli(["report", str(tmp_path / "absent.json")]) == EXIT_REPORT_GAP
    err = capsys.readouterr().err
    assert "absent.json" in err


def test_unknown_flag_is_config_error(capsys):
    code = run_cli(["exponents", "--bogus-flag", "1"])
    assert code == EXIT_CONFIG
    assert "--bogus-flag" in capsys.readouterr().err


def test_config_round_trip(tmp_path):
    # the echoed resolved config re-runs to byte-identical output
    first = tmp_path / "first.json"
    run_cli(["exponents", "--set", "exponents.m=1.5", "--set", "exponents.n=3",
             "--set", "exponents.eps=0.4", "--output", str(first)])
    doc = json.loads(first.read_text())
    ini = tmp_path / "echo.ini"
    lines = ["[exponents]"]
    for key, value in doc["config"]["exponents"].items():
        if value is not None:
            lines.append(f"{key} = {value}")
    ini.write_text("\n".join(lines) + "\n")
    second = tmp_path / "second.json"
    run_cli(["exponents", "--config", str(ini), "--output", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_outdir_env_redirect(tmp_path, monkeypatch):
    monkeypatch.setenv("TRICOMILAB_OUTDIR", str(tmp_path))
    code = run_cli(
        ["exponents", "--set", "exponents.m=1", "--set", "exponents.n=2",
         "--output", "sub/exp.json"]
    )
    assert code == EXIT_OK
    assert (tmp_path / "sub" / "exp.json").exists()


def test_float_formatting_12_digits():
    assert fmt(2.4142135623730951) == "2.41421356237"
    assert fmt(True) == "true"
    assert fmt(None) == ""
    assert fmt(100000000.0) == "100000000"


def test_iterate_csv_columns(tmp_path):
    out = tmp_path / "it.csv"
    code = run_cli(
        ["iterate", "--set", "iterate.mode=critical", "--set", "iterate.m=1",
         "--set", "iterate.n=2", "--set", "iterate.eps=0.1",
         "--set", "iterate.jmax=10", "--output", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "j,a_j,b_j,log_d_or_c_j,l_j"
    assert any(l.startswith("# threshold.log_t_scan") for l in lines)


def test_odecheck_propagators_present(tmp_path):
    out = tmp_path / "ode.json"
    run_cli(
        ["odecheck", "--set", "odecheck.m=1", "--set", "odecheck.lambda=1",
         "--set", "odecheck.t=2", "--set", "odecheck.s=1",
         "--format", "json", "--output", str(out)]
    )
    doc = json.loads(out.read_text())
    assert "phi1" in doc and "phi2_ratio" in doc
    assert abs(doc["wronskian_residual"]) < 1e-8
    assert doc["oracle_rel_deviation"] < 1e-6


def test_odecheck_deviation_covers_derivatives(tmp_path):
    # the oracle returns (y, y') for both solutions; all four are compared
    out = tmp_path / "ode.json"
    run_cli(
        ["odecheck", "--set", "odecheck.m=1", "--set", "odecheck.lambda=1",
         "--set", "odecheck.t=2", "--format", "json", "--output", str(out)]
    )
    doc = json.loads(out.read_text())
    params = OdeParams(1.0, 1.0)
    fe = fundamental_pair_scaled(params, 2.0)
    w1 = ode_oracle_scaled(params, 2.0, (1.0, 0.0))
    w2 = ode_oracle_scaled(params, 2.0, (0.0, 1.0))
    got = (fe.v1, fe.dv1, fe.v2, fe.dv2)
    ref = (w1[0], w1[1], w2[0], w2[1])
    dev = max(abs(g / r - 1.0) for g, r in zip(got, ref))
    assert doc["oracle_rel_deviation"] == pytest.approx(dev, rel=1e-9)


def test_scan_rejects_json_format(tmp_path, capsys):
    # scan records are CSV only; asking for JSON is a usage error
    code = run_cli(
        ["scan", "--set", "model.m=1", "--set", "model.n=1", "--set", "model.p=2",
         "--set", "scan.eps_list=1.0", "--format", "json",
         "--output", str(tmp_path / "r.json")]
    )
    assert code == EXIT_CONFIG
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "p, words",
    [
        # p_crit(1,2) as the 12-digit config echo writes it: gamma = 2.6e-11,
        # within the critical tolerance
        ("2.18614066163", "subcritical runs only"),
        # gamma = 5.7e-8: subcritical, but eps^theta overflows (theta ~ 9e7)
        ("2.18614065163", "double range"),
    ],
)
def test_scan_near_p_crit_is_a_domain_error(tmp_path, capsys, p, words):
    code = run_cli(
        ["scan", "--set", "model.m=1", "--set", "model.n=2", "--set", f"model.p={p}",
         "--set", "scan.eps_list=1.5,2,3,4", "--set", "grid.dx=0.05",
         "--output", str(tmp_path / "r.csv"), "--fit-output", str(tmp_path / "f.json")]
    )
    assert code == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert words in err
    if words == "double range":
        assert "eps=" in err and "theta=" in err


@pytest.mark.parametrize(
    "command, key",
    [("scan", "scan.fit_mode=subcritical"), ("simulate", "grid.profile=bump"),
     ("scan", "grid.profile=bump")],
)
def test_removed_keys_are_unknown(command, key, capsys):
    argv = [command, "--set", "model.m=1", "--set", "model.n=1", "--set", "model.p=2",
            "--set", key]
    if command == "scan":
        argv += ["--set", "scan.eps_list=1.0"]
    assert run_cli(argv) == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err
