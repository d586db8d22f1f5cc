import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from tricomilab.cli import (
    _SCHEMA,
    EXIT_CENSORED,
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_REPORT_GAP,
    OUTDIR_ENV,
    build_parser,
    dispatch,
    fmt,
    resolve_config,
)
from tricomilab.errors import ConfigError
from tricomilab.exponents import p_crit
from tricomilab.pde_solver import ModelParams, RunConfig
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
    assert doc["config"]["exponents"]["n"] == 3  # override wins over file


def test_config_echoed_in_csv_header(tmp_path):
    out = tmp_path / "spec.csv"
    code = run_cli(
        ["kummer", "--set", "specfun.a=1", "--set", "specfun.b=2",
         "--set", "specfun.z=2", "--output", str(out), "--format", "csv"]
    )
    assert code == EXIT_OK
    text = out.read_text()
    assert "# specfun.a = 1" in text
    assert "value" in text.splitlines()[-2]  # header row precedes data row


def test_specfun_reports_regime(tmp_path):
    out = tmp_path / "spec.json"
    run_cli(
        ["kummer", "--set", "specfun.z=-60", "--output", str(out),
         "--format", "json"]
    )
    doc = json.loads(out.read_text())
    assert doc["regime"] == "asymptotic"
    # dM/dz = (a/b) M(a+1, b+1; z) at the same point
    assert doc["deriv"] == pytest.approx(0.000743719277796, rel=1e-11)


@pytest.mark.parametrize("n, regime", [(1, "closed-form"), (2, "bessel"),
                                       (3, "closed-form"), (4, "bessel")])
def test_varphi_regime_follows_varphi_scaled(tmp_path, n, regime):
    # n = 2 is 2 pi i0e(r), a Bessel value, like every n other than 1 and 3
    out = tmp_path / "varphi.json"
    argv = ["varphi", "--set", f"specfun.n={n}", "--format", "json", "--output", str(out)]
    assert run_cli(argv) == EXIT_OK
    assert json.loads(out.read_text())["regime"] == regime


def test_readme_command_block_runs_as_written(tmp_path, monkeypatch):
    # every line of the README's command block, in order, from one directory,
    # so report finds the files that the lines before it wrote
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"```sh\n(tricomilab .*?)```", fh.read(), re.S).group(1)
    lines = [shlex.split(l) for l in block.replace("\\\n", " ").splitlines()]
    assert lines[-1][1] == "report"
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    for argv in lines:
        assert argv[0] == "tricomilab" and run_cli(argv[1:]) == EXIT_OK, argv
    # exponents.json carries both identity residuals, so report checks them
    summary = json.loads((tmp_path / lines[-1][-1]).read_text())
    assert [c["name"] for c in summary["checks"]] == [
        "fit_slope_vs_theory", "identity_residual_frame", "identity_residual_initiate"]
    assert summary["overall_pass"] is True


def test_determinism_byte_identical(tmp_path):
    args = [
        "simulate", "--set", "model.m=1", "--set", "model.n=1",
        "--set", "model.p=2", "--set", "grid.dx=0.05", "--set", "grid.t_max=1.5",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--output", str(out1)]) == EXIT_OK
    assert run_cli(args + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_determinism_with_f_tracking_ignores_call_history(tmp_path):
    # testfun memoizes the varphi block of the F weight across calls: the
    # same run repeated, with a run on another grid in between, must give
    # the same bytes
    base = [
        "simulate", "--set", "model.m=1", "--set", "model.n=2",
        "--set", "model.p=2", "--set", "grid.t_max=1", "--set", "grid.n_f_samples=4",
        "--set", "grid.track_f=true",
    ]
    outs = [tmp_path / f"f{k}.csv" for k in range(4)]
    for out, dx in zip(outs, ("0.05", "0.05", "0.04", "0.05")):
        assert run_cli(base + ["--set", f"grid.dx={dx}", "--output", str(out)]) == EXIT_OK
    same = outs[0].read_bytes()
    assert outs[1].read_bytes() == same and outs[3].read_bytes() == same
    rows = [l.split(",") for l in same.decode().splitlines() if not l.startswith("#")]
    f_col = rows[0].index("f")
    assert sum(1 for r in rows[1:] if r[f_col]) >= 2  # F was sampled


def test_testfun_reports_unconverged_points(tmp_path):
    base = ["testfun", "--set", "testfun.t_max=20", "--set", "testfun.nt=2",
            "--set", "testfun.ns=2", "--set", "testfun.nx=2"]

    def header(extra):
        out = tmp_path / "tf.csv"
        assert run_cli(base + extra + ["--output", str(out)]) == EXIT_OK
        return [l for l in out.read_text().splitlines() if l.startswith("# ")]

    lines = header([])
    at = lines.index("# unconverged_points = 0")
    assert lines[at - 1].startswith("# excluded_points = ")
    # rtol below double precision: no quadrature can meet it, and the count says so
    strict = [l for l in header(["--set", "testfun.rtol=1e-17"])
              if l.startswith("# unconverged_points = ")]
    assert len(strict) == 1 and int(strict[0].rpartition(" ")[2]) > 0


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


# run in a fresh interpreter: prints whether scipy.special is loaded and the
# leggauss calls after `import tricomilab.cli`, then after each command
_LAZY_PROBE = """
import json, sys
import numpy.polynomial.legendre as legendre
calls, rule = [], legendre.leggauss
legendre.leggauss = lambda deg: calls.append(deg) or rule(deg)
import tricomilab.cli as cli
print(json.dumps(["import", 0, "scipy.special" in sys.modules, calls]))
for argv in json.loads(sys.argv[1]):
    code = cli.dispatch(argv)
    print(json.dumps([argv[0], code, "scipy.special" in sys.modules, calls]))
"""


def _lazy_probe(cmds, tmp_path, tag):
    cmds = [argv + ["--output", str(tmp_path / f"{tag}{i}.out")] for i, argv in enumerate(cmds)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _LAZY_PROBE, json.dumps(cmds)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_bessel_free_commands_never_load_scipy_special(tmp_path):
    sim = ["--set", "model.m=1", "--set", "grid.dx=0.1", "--set", "grid.track_f=true"]
    cmds = [
        ["scan", "--set", "model.m=1", "--set", "model.n=1", "--set", "model.p=2",
         "--set", "grid.dx=0.1", "--set", "scan.eps_list=1.0,1.2",
         "--set", "grid.u1_mode=zero", "--fit-output", str(tmp_path / "fit.json")],
        ["exponents", "--set", "exponents.m=1", "--set", "exponents.n=2"],
        ["subcritical", "--set", "iterate.m=1", "--set", "iterate.n=2", "--set", "iterate.eps=0.1"],
        ["critical", "--set", "iterate.m=1", "--set", "iterate.n=2", "--set", "iterate.eps=0.1"],
        ["kummer", "--set", "specfun.a=0.25", "--set", "specfun.b=0.5", "--set", "specfun.z=-60"],
        ["log_gamma", "--set", "specfun.x=7"],
        ["varphi", "--set", "specfun.n=3", "--set", "specfun.r=1"],
        ["simulate", "--set", "model.n=1", "--set", "model.p=2", *sim,
         "--set", "grid.track_f=false"],
        # F's sphere average at n = 1, 2 (q = 0 and q < 0) and 3 (q > 0)
        ["simulate", "--set", "model.n=1", "--set", "model.p=2", *sim],
        ["simulate", "--set", "model.n=2", "--set", "model.p=2", *sim],
        ["simulate", "--set", "model.n=2", "--set", "model.p=1.8", *sim],
        ["simulate", "--set", "model.n=3", "--set", "model.p=1.6", *sim],
    ]
    steps = _lazy_probe(cmds, tmp_path, "free")
    assert steps[0] == ["import", 0, False, []]
    assert [step[:3] for step in steps[1:]] == [[a[0], EXIT_OK, False] for a in cmds]
    # each Bessel command, in a fresh interpreter, loads it at its first value
    loads = [
        ["varphi", "--set", "specfun.n=2", "--set", "specfun.r=1"],
        ["testfun", "--set", "testfun.m=1", "--set", "testfun.n=2", "--set", "testfun.nt=2"],
        ["odecheck", "--set", "odecheck.m=1", "--set", "odecheck.lambda=1",
         "--set", "odecheck.t=2", "--set", "odecheck.s=1"],
    ]
    for i, argv in enumerate(loads):
        assert _lazy_probe([argv], tmp_path, f"bessel{i}")[1][:3] == [argv[0], EXIT_OK, True]


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


def test_report_checks_identities_at_every_power(tmp_path):
    # at (m, n, p) = (1, 2, 2) gamma = 1 and both residuals are -gamma/(2p) =
    # -0.25 (p_crit = 2.186): report checks them against that, and against
    # the same reference, 0 up to rounding, at p_crit
    off, crit, ode = (tmp_path / f"{name}.json" for name in ("off", "crit", "ode"))
    run_cli(["exponents", "--set", "exponents.m=1", "--set", "exponents.n=2",
             "--set", "exponents.p=2", "--format", "json", "--output", str(off)])
    off_doc = json.loads(off.read_text())
    assert off_doc["gamma"] == 1.0 and off_doc["identity_residual_initiate"] == -0.25
    run_cli(["exponents", "--set", "exponents.m=1", "--set", "exponents.n=2",
             "--format", "json", "--output", str(crit)])
    run_cli(["odecheck", "--set", "odecheck.m=1", "--set", "odecheck.lambda=1",
             "--set", "odecheck.t=2", "--format", "json", "--output", str(ode)])
    summary = tmp_path / "summary.json"
    assert run_cli(["report", str(off), str(crit), str(ode), "--output", str(summary)]) == EXIT_OK
    doc = json.loads(summary.read_text())
    identities = ["identity_residual_frame", "identity_residual_initiate"]
    assert [(c["source"], c["name"]) for c in doc["checks"]] == [
        *(("off.json", name) for name in identities), *(("crit.json", name) for name in identities),
        ("ode.json", "wronskian_residual"), ("ode.json", "oracle_rel_deviation")]
    assert all(c["pass"] for c in doc["checks"]) and doc["overall_pass"] is True

    def report_alone(edit):
        bad = tmp_path / "edited.json"
        edited = dict(off_doc)
        edit(edited)
        bad.write_text(json.dumps(edited))
        assert run_cli(["report", str(bad), "--output", str(summary)]) == EXIT_OK
        return json.loads(summary.read_text())

    # alone, the off-critical document passes both identity checks
    alone = report_alone(lambda d: None)
    assert [c["name"] for c in alone["checks"]] == identities
    assert alone["overall_pass"] is True
    # a residual off by 1e-6 fails, and so do residuals with no gamma or p
    shifted = report_alone(lambda d: d.update(identity_residual_frame=-0.25 + 1e-6))
    assert [c["pass"] for c in shifted["checks"]] == [False, True]
    for key in ("gamma", "p"):
        unreferenced = report_alone(lambda d: d.pop(key))
        assert [c["pass"] for c in unreferenced["checks"]] == [False, False]
        assert unreferenced["overall_pass"] is False

    # at (20, 7, 4.1) gamma = -1017.76: the 12-digit renderings of the
    # residuals (124.117073171), gamma and p differ by 2.7e-10, within the
    # tolerance 1e-11 |-gamma/(2p)|
    supercritical = tmp_path / "super.json"
    run_cli(["exponents", "--set", "exponents.m=20", "--set", "exponents.n=7",
             "--set", "exponents.p=4.1", "--format", "json", "--output", str(supercritical)])
    assert json.loads(supercritical.read_text())["identity_residual_frame"] == 124.117073171
    assert run_cli(["report", str(supercritical), "--output", str(summary)]) == EXIT_OK
    doc = json.loads(summary.read_text())
    assert [c["name"] for c in doc["checks"]] == identities and doc["overall_pass"] is True
    assert all(c["tolerance"] == pytest.approx(1.24117073171e-09) for c in doc["checks"])


def test_report_missing_inputs(tmp_path, capsys):
    assert run_cli(["report"]) == EXIT_REPORT_GAP
    assert run_cli(["report", str(tmp_path / "absent.json")]) == EXIT_REPORT_GAP
    err = capsys.readouterr().err
    assert "absent.json" in err


_MALFORMED_REPORT_INPUTS = {
    "directory": None,
    "not-utf8": b'{"wronskian_residual": "\xff"}',
    "json-list": b"[1, 2]",
    "residual-not-a-number": json.dumps({"identity_residual_frame": "abc", "gamma": 1.0,
                                         "p": 2.0}).encode(),
    "slope-not-a-number": json.dumps({"fit": {"slope": "x", "theory_slope": -1.0}}).encode(),
    "zero-p": json.dumps({"identity_residual_frame": 0.0, "gamma": 1.0, "p": 0}).encode(),
}


@pytest.mark.parametrize("kind", list(_MALFORMED_REPORT_INPUTS))
def test_report_refuses_malformed_inputs(tmp_path, capsys, kind):
    path, summary = tmp_path / "input.json", tmp_path / "summary.json"
    content = _MALFORMED_REPORT_INPUTS[kind]
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert run_cli(["report", str(path), "--output", str(summary)]) == EXIT_REPORT_GAP
    assert str(path) in capsys.readouterr().err
    assert not summary.exists()


def test_report_reads_the_inf_strings_it_writes(tmp_path):
    # _round_floats writes an infinite value as "inf" or "-inf"
    path, summary = tmp_path / "input.json", tmp_path / "summary.json"
    path.write_text(json.dumps({"wronskian_residual": "inf",
                                "fit": {"slope": "-inf", "theory_slope": -1.0}}))
    assert run_cli(["report", str(path), "--output", str(summary)]) == EXIT_OK
    doc = json.loads(summary.read_text())
    assert [(c["value"], c["pass"]) for c in doc["checks"]] == [("inf", False), ("-inf", False)]


@pytest.mark.parametrize("slope, passed", [
    (-0.5186, True),  # the (0,1,2) u1 = u0 scan at eps 0.01-0.03: shallower, within the bound
    (-0.2, True),
    (-0.7, True),
    (-0.79, True),
    (-0.85, False),  # steeper than -theta by more than 20% of theta
])
def test_report_slope_check_is_one_sided(tmp_path, slope, passed):
    path, summary = tmp_path / "fit.json", tmp_path / "summary.json"
    path.write_text(json.dumps({"kind": "lifespan_fit",
                                "fit": {"slope": slope, "theory_slope": -0.666666666667}}))
    assert run_cli(["report", str(path), "--output", str(summary)]) == EXIT_OK
    doc = json.loads(summary.read_text())
    assert [(c["name"], c["pass"]) for c in doc["checks"]] == [("fit_slope_vs_theory", passed)]
    assert doc["checks"][0]["tolerance"] == pytest.approx(0.1333333333334)
    assert doc["overall_pass"] is passed


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


@pytest.mark.parametrize("value, text", [
    (2.4142135623730951, "2.41421356237"), (np.float64(2.4142135623730951), "2.41421356237"),
    (7, "7"), (np.int64(-7), "-7"), (True, "true"), (False, "false"), (None, ""),
    ("abc", "abc"), (math.nan, "nan"), (np.float64(math.nan), "nan"), (math.inf, "inf"),
    (-math.inf, "-inf"), (np.float64(-math.inf), "-inf"), (-0.0, "-0"),
    (np.float64(-0.0), "-0"), (1e-300, "1e-300"), (np.float64(1e-300), "1e-300"),
], ids=repr)
def test_fmt_pins_every_cell_type(value, text):
    # a Python float takes fmt's first branch, every other type the
    # isinstance chain: both render the same number to the same string
    assert fmt(value) == text


def test_one_parser_serves_every_dispatch(tmp_path):
    # the parser is built once per process: no --set list of one dispatch
    # leaks into the next, and a usage error still exits 2
    argvs = (["kummer", "--set", "specfun.a=2", "--set", "specfun.z=-3"],
             ["kummer", "--set", "specfun.b=1.5"])

    def written(argv, name):
        out = tmp_path / name
        assert run_cli(argv + ["--output", str(out)]) == EXIT_OK
        return out.read_bytes()

    alone = []
    for k, argv in enumerate(argvs):
        build_parser.cache_clear()
        alone.append(written(argv, f"alone{k}"))
    parser = build_parser()
    for k in range(4):
        assert written(argvs[k % 2], f"run{k}") == alone[k % 2]
    assert run_cli(["kummer", "--set"]) == EXIT_CONFIG == 2
    assert build_parser() is parser and parser.parse_args(["kummer"]).overrides == []


def test_iterate_csv_columns(tmp_path):
    # each engine command writes its own columns: no merged or empty field
    for command, columns in (("critical", "j,a_j,b_j,log_c_j,l_j"),
                             ("subcritical", "j,a_j,b_j,log_d_j")):
        out = tmp_path / f"{command}.csv"
        code = run_cli(
            [command, "--set", "iterate.m=1", "--set", "iterate.n=2",
             "--set", "iterate.eps=0.1", "--set", "iterate.jmax=10", "--output", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        rows = [l for l in lines if not l.startswith("#")]
        assert rows[0] == columns
        assert all(r.count(",") == columns.count(",") and not r.endswith(",")
                   for r in rows[1:])
        assert any(l.startswith("# threshold.log_t_scan") for l in lines)


def test_iterate_near_p_crit(tmp_path):
    # gamma = 5.7e-8: the threshold is finite (log t ~ 6.5e8), the closed
    # form passes e^709 and is written as inf
    out = tmp_path / "it.csv"
    code = run_cli(
        ["subcritical", "--set", "iterate.m=1", "--set", "iterate.n=2",
         "--set", "iterate.p=2.18614065163", "--output", str(out)]
    )
    assert code == EXIT_OK
    header = dict(
        l[2:].split(" = ") for l in out.read_text().splitlines() if l.startswith("# threshold")
    )
    assert float(header["threshold.log_t_scan"]) == pytest.approx(6.46102624e8, rel=1e-8)
    assert header["threshold.t_closed_form"] == "inf"


def test_iterate_critical_small_eps(tmp_path):
    # the crossing sits at w = log log t ~ 49.9
    out = tmp_path / "it.csv"
    code = run_cli(
        ["critical", "--set", "iterate.m=1", "--set", "iterate.n=2",
         "--set", "iterate.eps=1e-7", "--output", str(out)]
    )
    assert code == EXIT_OK
    header = dict(
        l[2:].split(" = ") for l in out.read_text().splitlines() if l.startswith("# threshold")
    )
    assert float(header["threshold.log_t_scan"]) == pytest.approx(4.35295213408e21, rel=1e-11)


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
     ("scan", "grid.profile=bump"), ("scan", "model.eps=7"),
     ("scan", "grid.domain_radius=500"), ("scan", "grid.track_f=true"),
     ("scan", "grid.n_f_samples=3")],
)
def test_removed_keys_are_unknown(command, key, capsys):
    argv = [command, "--set", "model.m=1", "--set", "model.n=1", "--set", "model.p=2",
            "--set", key]
    if command == "scan":
        argv += ["--set", "scan.eps_list=1.0"]
    assert run_cli(argv) == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


_SIM = ["--set", "model.m=1", "--set", "model.n=1", "--set", "model.p=2"]


_INVALID = [
    (["testfun", "--set", "testfun.t_max=0"], EXIT_DOMAIN),
    (["testfun", "--set", "testfun.nt=-1"], EXIT_DOMAIN),
    (["subcritical", "--set", "iterate.c0=0"], EXIT_DOMAIN),
    (["critical", "--set", "iterate.c=0"], EXIT_DOMAIN),
    (["simulate", *_SIM, "--set", "grid.t_max=inf"], EXIT_CONFIG),
    (["simulate", "--set", "model.n=1", "--set", "model.p=2", "--set", "model.m=nan"],
     EXIT_CONFIG),
    (["odecheck", "--set", "odecheck.oracle_rtol=0"], EXIT_DOMAIN),
    (["odecheck", "--set", "odecheck.oracle_rtol=-1"], EXIT_DOMAIN),
    (["simulate", *_SIM, "--set", "model.eps=nan"], EXIT_CONFIG),
    (["testfun", "--set", "testfun.rtol=0"], EXIT_DOMAIN),
    (["simulate", *_SIM, "--set", "grid.t_max=1e300"], EXIT_DOMAIN),
    (["testfun", "--set", "testfun.nt=2", "--set", "testfun.t_max=1e300"], EXIT_DOMAIN),
    (["simulate", *_SIM, "--set", "grid.t_max=1", "--set", "model.eps=inf"], EXIT_CONFIG),
    (["simulate", "--set", "model.n=1", "--set", "model.p=2", "--set", "model.m=inf"],
     EXIT_CONFIG),
    (["subcritical", "--set", "iterate.eps=inf"], EXIT_DOMAIN),
    (["scan", *_SIM, "--set", "scan.eps_list=1.0,inf"], EXIT_CONFIG),
]


@pytest.mark.parametrize(
    "argv, code", _INVALID, ids=[f"{a[0]}-{a[-1]}" for a, _ in _INVALID]
)
def test_invalid_input_exit_code(tmp_path, argv, code):
    argv = argv + ["--output", str(tmp_path / "out")]
    if "odecheck.oracle_rtol=0" in argv:
        # the integrator does not return at rtol = 0: a subprocess with a
        # timeout turns a regression into a failure instead of a hang
        proc = subprocess.run(
            [sys.executable, "-m", "tricomilab", *argv], capture_output=True, timeout=60
        )
        assert proc.returncode == code
    else:
        assert run_cli(argv) == code


_MALFORMED_CONFIG_FILES = {
    "no-section-header": "m = 1\n",
    "duplicate-option": "[exponents]\nm = 1\nm = 2\n",
    "interpolation": "[exponents]\nm = %(x)s\n",
}


@pytest.mark.parametrize("kind", list(_MALFORMED_CONFIG_FILES))
def test_malformed_config_file_is_a_config_error(tmp_path, capsys, kind):
    path = tmp_path / "bad.ini"
    path.write_text(_MALFORMED_CONFIG_FILES[kind])
    argv = ["exponents", "--config", str(path), "--set", "exponents.n=3"]
    assert run_cli(argv) == EXIT_CONFIG
    assert str(path) in capsys.readouterr().err


_CLI_ERRORS = [
    (["exponents", "--set", "exponents.m=abc", "--set", "exponents.n=3"], EXIT_CONFIG,
     "cannot parse value for 'exponents.m'"),
    (["simulate", *_SIM, "--set", "grid.linear_only=maybe"], EXIT_CONFIG,
     "cannot parse value for 'grid.linear_only'"),
    (["exponents", "--config", "{tmp}/absent.ini"], EXIT_CONFIG, "config file not found"),
    (["exponents", "--set", "m=1"], EXIT_CONFIG, "section.key=value"),
    (["scan", *_SIM, "--set", "scan.eps_list=a,b"], EXIT_CONFIG, "cannot parse scan.eps_list"),
    (["scan", *_SIM, "--set", "scan.eps_list=,"], EXIT_CONFIG, "scan.eps_list is empty"),
    (["report", "{tmp}/text.json"], EXIT_REPORT_GAP, "text.json"),
    (["report", "{tmp}/empty.json"], EXIT_REPORT_GAP, "nothing checkable"),
]


@pytest.mark.parametrize("argv, code, words", _CLI_ERRORS,
                         ids=[f"{a[0]}-{a[-1].rsplit('/', 1)[-1]}" for a, _, _ in _CLI_ERRORS])
def test_cli_error_paths(tmp_path, capsys, argv, code, words):
    (tmp_path / "text.json").write_text("not json\n")
    (tmp_path / "empty.json").write_text('{"kind": "lifespan_fit", "fit": null}\n')
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run_cli(argv + ["--output", str(tmp_path / "out")]) == code
    assert words in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# configs at the edge of the double range: each ends in a result or a domain
# error, never in an uncaught exception
_EDGE = [
    (["critical", "--set", "iterate.c0=1e-300"], EXIT_DOMAIN),
    (["critical", "--set", "iterate.b1=1e-300"], EXIT_DOMAIN),
    (["critical", "--set", "iterate.c0=1e300"], EXIT_OK),
    (["critical", "--set", "iterate.b1=1e300"], EXIT_OK),
    (["exponents", "--set", "exponents.m=1", "--set", "exponents.n=2",
      "--set", "exponents.eps=1e-200"], EXIT_OK),
    (["subcritical", "--set", "iterate.eps=-1"], EXIT_DOMAIN),
    (["subcritical", "--set", "iterate.eps=1e300"], EXIT_DOMAIN),
    # gamma(0, 1, p) = 2p + 2 > 0: every p > 1 is subcritical, with no p_crit
    (["subcritical", "--set", "iterate.m=0", "--set", "iterate.n=1", "--set", "iterate.p=2"],
     EXIT_OK),
    (["simulate", *_SIM, "--set", "grid.dx=inf"], EXIT_CONFIG),
    (["simulate", *_SIM, "--set", "grid.dx=1e300"], EXIT_CONFIG),
    # the speed t^{m/2} leaves the double range just past t = 1: the steps
    # there shrink until the speed at their end is finite, and reach t = 1
    (["simulate", "--set", "model.m=1e6", "--set", "model.n=1", "--set", "model.p=2",
      "--set", "grid.t_max=1"], EXIT_OK),
    # the domain is derived from R, m, t_max and dx, not set
    (["simulate", *_SIM, "--set", "grid.domain_radius=1e6"], EXIT_CONFIG),
    # grids past the cell cap are refused before any array is allocated
    (["simulate", *_SIM, "--set", "grid.t_max=1e6"], EXIT_CONFIG),
    (["simulate", *_SIM, "--set", "grid.dx=1e-300"], EXIT_CONFIG),
    (["simulate", *_SIM, "--set", "model.big_r=1e300"], EXIT_CONFIG),
    (["simulate", *_SIM, "--set", "model.big_r=1e6"], EXIT_CONFIG),
    # one command per special function: the op switch is gone, and each
    # command knows only its own keys
    (["specfun"], EXIT_CONFIG),
    (["kummer", "--set", "specfun.x=1"], EXIT_CONFIG),
    # the regime's sums leave the double range and give nan: refused by name
    *((["kummer", "--set", f"specfun.a={a}", "--set", f"specfun.b={b}", "--set",
        f"specfun.z={z}"], EXIT_DOMAIN)
      for a, b, z in (("3", "1", "-1e300"), ("-2", "40", "1e300"), ("1e6", "800", "-800"),
                      ("-480", "1", "700"), ("800", "1e-300", "-2"))),
    # the oracle refuses a growth lambda phi(t) past its cost bound
    (["odecheck", "--set", "odecheck.lambda=1e6"], EXIT_DOMAIN),
    (["odecheck", "--set", "odecheck.lambda=1e300"], EXIT_DOMAIN),
    (["odecheck", "--set", "odecheck.lambda=inf"], EXIT_DOMAIN),
    (["odecheck", "--set", "odecheck.t=1e6"], EXIT_DOMAIN),
    (["odecheck", "--set", "odecheck.oracle_rtol=inf"], EXIT_DOMAIN),
    # an rtol below scipy's floor (100 eps) is refused before integrating
    (["odecheck", "--set", "odecheck.oracle_rtol=1e-300"], EXIT_DOMAIN),
    # the graded rule of q would pass the depth where its panels underflow
    (["testfun", "--set", "testfun.q=1e6"], EXIT_DOMAIN),
    (["testfun", "--set", "testfun.q=1e300"], EXIT_DOMAIN),
    (["testfun", "--set", "testfun.q=inf"], EXIT_DOMAIN),
    # lambda phi(t) ~ 1e10 at t = 1e7, past the range of scipy's ive and kve
    (["testfun", "--set", "testfun.nt=2", "--set", "testfun.ns=2", "--set", "testfun.nx=2",
      "--set", "testfun.t_max=1e7"], EXIT_DOMAIN),
    # the discriminant of gamma(m, n, .) overflows (the root tends to 1)
    (["exponents", "--set", "exponents.m=1e300", "--set", "exponents.n=2"], EXIT_DOMAIN),
    # Gamma(n/2) of the sphere area overflows from n = 344
    (["varphi", "--set", "specfun.n=2000", "--set", "specfun.r=1"], EXIT_DOMAIN),
    (["varphi", "--set", "specfun.n=400", "--set", "specfun.r=0"], EXIT_DOMAIN),
    (["testfun", "--set", "testfun.n=400", "--set", "testfun.q=0", "--set", "testfun.nt=1",
      "--set", "testfun.ns=1", "--set", "testfun.nx=2"], EXIT_DOMAIN),
    (["log_gamma", "--set", "specfun.x=1e308"], EXIT_DOMAIN),
    # ive(170.5, r) underflows to 0 at small radii (the value itself is ~1e-222)
    (["varphi", "--set", "specfun.n=343", "--set", "specfun.r=1e-3"], EXIT_DOMAIN),
    (["testfun", "--set", "testfun.q=0", "--set", "testfun.nt=1", "--set", "testfun.ns=1",
      "--set", "testfun.nx=2", "--set", "testfun.n=343"], EXIT_DOMAIN),
    # varphi is inf, with no warning, wherever e^r leaves the double range
    (["varphi", "--set", "specfun.r=710"], EXIT_OK),
    (["varphi", "--set", "specfun.n=3", "--set", "specfun.r=1e308"], EXIT_OK),
    (["varphi", "--set", "specfun.r=inf"], EXIT_DOMAIN),
    # lambda phi(t) = 709.5: the unscaled pair's products pass the double range
    (["odecheck", "--set", "odecheck.m=1", "--set", "odecheck.lambda=1",
      "--set", "odecheck.t=104.238728661", "--set", "odecheck.s=0"], EXIT_OK),
    # lambda0^(q+1) of the diagonal's Kummer kernel leaves the double range
    (["testfun", "--set", "testfun.nt=2", "--set", "testfun.ns=2", "--set", "testfun.nx=2",
      "--set", "testfun.lambda0=1e300"], EXIT_DOMAIN),
    # the lambda-rule's weights lambda^q leave the double range: in the dyadic
    # panels, and (at a tiny R) in the end panel
    (["testfun", "--set", "testfun.n=4", "--set", "testfun.lambda0=1e300", "--set", "testfun.nt=1",
      "--set", "testfun.ns=1", "--set", "testfun.nx=2", "--set", "testfun.q=2"], EXIT_DOMAIN),
    (["testfun", "--set", "testfun.n=4", "--set", "testfun.q=2", "--set", "testfun.lambda0=1e300",
      "--set", "testfun.nt=1", "--set", "testfun.ns=1", "--set", "testfun.nx=2",
      "--set", "testfun.big_r=1e-300"], EXIT_DOMAIN),
    # part ii's envelope <phi(s)>^{-q-1+(m+4)/(2(m+2))} underflows at t = 1000
    (["testfun", "--set", "testfun.nt=4", "--set", "testfun.ns=3", "--set", "testfun.nx=2",
      "--set", "testfun.q=100"], EXIT_DOMAIN),
    (["simulate", "--set", "model.m=1", "--set", "model.n=2", "--set", "model.p=2",
      "--set", "grid.t_max=1", "--set", "grid.n_f_samples=-5"], EXIT_CONFIG),
]


@pytest.mark.parametrize("argv, code", _EDGE, ids=[f"{a[0]}-{a[-1]}" for a, _ in _EDGE])
def test_edge_config_exit_code(tmp_path, argv, code):
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert run_cli(argv + ["--format", "json", "--output", str(out)]) == code
    # refused before any unbounded work (each takes well under 1 s)
    assert time.perf_counter() - t0 < 5.0
    if argv[0] == "exponents" and code == EXIT_OK:
        # the critical law exp(C eps^{-p(p-1)}) passes the double range
        assert json.loads(out.read_text())["lifespan_bound"] == "inf"
    if argv[0] == "varphi" and code == EXIT_OK:
        assert json.loads(out.read_text())["value"] == "inf"


def test_edge_refusals_name_their_cause(tmp_path, capsys):
    out = str(tmp_path / "out")
    for argv, words in (
            (["testfun", "--set", "testfun.nt=2", "--set", "testfun.ns=2", "--set",
              "testfun.nx=2", "--set", "testfun.lambda0=1e300"], ["lambda0=1e+300"]),
            (["testfun", "--set", "testfun.n=4", "--set", "testfun.q=2", "--set",
              "testfun.lambda0=1e300", "--set", "testfun.nt=1", "--set", "testfun.ns=1",
              "--set", "testfun.nx=2"], ["lambda0=1e+300", "q=2"]),
            (["testfun", "--set", "testfun.nt=4", "--set", "testfun.ns=3", "--set",
              "testfun.nx=2", "--set", "testfun.q=100"], ["part ii", "t=1000", "q=100"]),
            (["testfun", "--set", "testfun.nt=4", "--set", "testfun.ns=3", "--set",
              "testfun.nx=2", "--set", "testfun.q=4999"], ["part ii", "t=0.05", "q=4999"]),
            (["simulate", *_SIM, "--set", "grid.n_f_samples=0"], ["n_f_samples"]),
            (["simulate", *_SIM, "--set", "grid.t_max=1e6"], ["3.33333e+10 cells", "4194304"]),
            (["simulate", *_SIM, "--set", "grid.dx=1e-300"], ["2.25819e+301 cells", "4194304"]),
            (["simulate", *_SIM, "--set", "model.big_r=1e300"], ["5e+301 cells", "4194304"]),
            (["simulate", *_SIM, "--set", "model.big_r=1e6"], ["5.00011e+07 cells", "4194304"])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(argv + ["--output", out]) in (EXIT_DOMAIN, EXIT_CONFIG)
        err = capsys.readouterr().err
        assert all(w in err for w in words) and len(err.splitlines()) == 1, err


def test_lifespan_bound_is_finite_up_to_the_double_range(tmp_path):
    out = tmp_path / "out"
    argv = ["exponents", "--set", "exponents.m=1", "--set", "exponents.n=1", "--set",
            "exponents.p=2", "--set", "exponents.eps=1", "--set", "exponents.constant=1.3e308",
            "--format", "json", "--output", str(out)]
    assert run_cli(argv) == EXIT_OK
    assert json.loads(out.read_text())["lifespan_bound"] == 1.3e308


def test_critical_search_warns_nothing(tmp_path):
    # past the double range the slicing bound is nan, which the search counts
    # as not above the ceiling; forming it raises no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["critical", "--set", "iterate.c0=1e-300", "--output", str(tmp_path / "c")]
        assert run_cli(argv) == EXIT_DOMAIN


def _flatten(doc: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _same_value(csv_text: str, json_value) -> bool:
    # JSON writes null for both nan and None, and CSV "nan" and ""
    if json_value is None:
        return csv_text in ("nan", "")
    return csv_text == fmt(json_value)


@pytest.mark.parametrize("argv", [
    ["testfun", "--set", "testfun.nt=2", "--set", "testfun.ns=2", "--set", "testfun.nx=2"],
    ["subcritical", "--set", "iterate.m=1", "--set", "iterate.n=2", "--set", "iterate.jmax=8"],
    ["critical", "--set", "iterate.m=1", "--set", "iterate.n=2", "--set", "iterate.jmax=8"],
    ["simulate", "--set", "model.m=1", "--set", "model.n=2", "--set", "model.p=2",
     "--set", "grid.dx=0.05", "--set", "grid.t_max=1", "--set", "grid.n_f_samples=3"],
], ids=lambda argv: argv[0])
def test_csv_and_json_carry_one_document(tmp_path, argv):
    csv_out, json_out = tmp_path / "a.csv", tmp_path / "a.json"
    assert run_cli(argv + ["--output", str(csv_out)]) == EXIT_OK
    assert run_cli(argv + ["--format", "json", "--output", str(json_out)]) == EXIT_OK
    doc = json.loads(json_out.read_text())
    lines = csv_out.read_text().splitlines()
    header = [l[2:].split(" = ", 1) for l in lines if l.startswith("# ")]
    columns, *rows = [l.split(",") for l in lines if not l.startswith("#")]
    # each "# a.b = v" line is the JSON entry a -> b; the config echo is JSON's "config"
    entries = {**_flatten(doc.pop("config")),
               **_flatten({k: v for k, v in doc.items() if k != "rows"})}
    keys = [k for k, _ in header]
    assert len(keys) == len(set(keys)) and set(keys) == set(entries)
    assert all(_same_value(v, entries[k]) for k, v in header)
    # each CSV row is the matching JSON row
    assert len(rows) == len(doc["rows"]) > 0
    for row, obj in zip(rows, doc["rows"]):
        assert list(obj) == sorted(columns)
        assert all(_same_value(v, obj[c]) for c, v in zip(columns, row)), (row, obj)
    if argv[0] == "simulate":
        assert sum(obj["f"] is not None for obj in doc["rows"]) >= 2


# cheap base configs, and one non-default value for every key of every
# command; critical's p stays within the critical gamma tolerance of
# p_crit(1, 1), its default
_BASE = {
    "testfun": {"testfun.t_max": "20", "testfun.nt": "2", "testfun.ns": "2", "testfun.nx": "2"},
    "exponents": {"exponents.m": "1", "exponents.n": "2"},
    "simulate": {"model.m": "1", "model.n": "1", "model.p": "2", "grid.dx": "0.1",
                 "grid.t_max": "1", "grid.n_f_samples": "2"},
    "scan": {"model.m": "1", "model.n": "1", "model.p": "2", "grid.dx": "0.1",
             "grid.t_max": "10", "scan.eps_list": "1.0"},
}
_PROBE = {
    "kummer": {"specfun.a": "0.5", "specfun.b": "1.5", "specfun.z": "-2"},
    "varphi": {"specfun.n": "2", "specfun.r": "2"},
    "log_gamma": {"specfun.x": "3"},
    "odecheck": {"odecheck.m": "2", "odecheck.lambda": "2", "odecheck.t": "1",
                 "odecheck.s": "1", "odecheck.oracle_rtol": "1e-6"},
    "testfun": {"testfun.m": "2", "testfun.n": "2", "testfun.q": "1.5",
                "testfun.lambda0": "0.25", "testfun.big_r": "2", "testfun.t_max": "10",
                "testfun.nt": "3", "testfun.ns": "3", "testfun.nx": "3",
                "testfun.rtol": "1e-17"},
    "exponents": {"exponents.m": "2", "exponents.n": "3", "exponents.p": "2",
                  "exponents.eps": "0.5", "exponents.constant": "2"},
    "subcritical": {"iterate.m": "2", "iterate.n": "2", "iterate.p": "2", "iterate.eps": "0.5",
                    "iterate.jmax": "10", "iterate.c0": "2", "iterate.t0": "1",
                    "iterate.c2": "2"},
    "critical": {"iterate.m": "2", "iterate.n": "2", "iterate.p": repr(p_crit(1.0, 1) + 1e-10),
                 "iterate.eps": "0.5", "iterate.jmax": "10", "iterate.c0": "2",
                 "iterate.c": "2", "iterate.b1": "2", "iterate.ceiling_log": "40"},
    "simulate": {"model.m": "2", "model.n": "2", "model.p": "3", "model.big_r": "2",
                 "model.eps": "0.5", "grid.dx": "0.05", "grid.t_max": "0.5",
                 "grid.cfl_safety": "0.3", "grid.blowup_threshold": "1.01",
                 "grid.u1_mode": "zero", "grid.linear_only": "true", "grid.track_f": "false",
                 "grid.n_f_samples": "3"},
    "scan": {"model.m": "2", "model.n": "2", "model.p": "1.5", "model.big_r": "2",
             "grid.dx": "0.05", "grid.t_max": "1", "grid.cfl_safety": "0.3",
             "grid.blowup_threshold": "1e4", "grid.u1_mode": "zero",
             "grid.linear_only": "true", "scan.eps_list": "0.8"},
}
# the one declared companion: the lifespan constant is read only with an eps
_COMPANION = {("exponents", "exponents.constant"): {"exponents.eps": "0.5"}}


@pytest.fixture(scope="module")
def base_artifacts():
    """Each base config's artifact, made once per module (runs are deterministic)."""
    return {}


def _artifact_past_echo(tmp_path, command, values: dict) -> list[str]:
    out = tmp_path / "out.csv"
    argv = [command, *(f for k, v in values.items() for f in ("--set", f"{k}={v}"))]
    if command == "scan":
        argv += ["--fit-output", str(tmp_path / "f.json")]
    # a censored scan still writes its records
    assert run_cli(argv + ["--output", str(out)]) in (EXIT_OK, EXIT_CENSORED)
    echo = ("# command = ", *(f"# {sec}." for sec in _SCHEMA[command]))
    return [l for l in out.read_text().splitlines() if not l.startswith(echo)]


@pytest.mark.parametrize(
    "command, address",
    [(command, f"{sec}.{key}") for command, sections in _SCHEMA.items()
     for sec, keys in sections.items() for key in sorted(keys)],
    ids=lambda v: v.rpartition(".")[2],
)
def test_engine_key_is_read(tmp_path, base_artifacts, command, address):
    # every accepted key of every command must move the artifact, not only
    # its config echo; a key without a value in _PROBE fails here
    probe = _PROBE[command][address]
    base = {**_BASE.get(command, {}), **_COMPANION.get((command, address), {})}
    key = (command, tuple(base.items()))
    if key not in base_artifacts:
        base_artifacts[key] = _artifact_past_echo(tmp_path, command, base)
    changed = _artifact_past_echo(tmp_path, command, {**base, address: probe})
    assert changed != base_artifacts[key]


def test_probe_table_names_only_schema_keys():
    assert {c: set(keys) for c, keys in _PROBE.items()} == {
        c: {f"{sec}.{k}" for sec, keys in sections.items() for k in keys}
        for c, sections in _SCHEMA.items()}


@pytest.mark.parametrize("command", sorted(_SCHEMA))
def test_document_repeats_no_config_key(tmp_path, command):
    # the config echo carries every input; no other entry or column of the
    # document may name a config key again, bar exponents' resolved p (its
    # nan default stands for p_crit)
    base = _BASE.get(command, {})
    argv = [command, *(f for k, v in base.items() for f in ("--set", f"{k}={v}"))]
    out = tmp_path / "out"
    if command == "scan":  # records are CSV only; the fit is JSON
        fit = tmp_path / "fit.json"
        assert run_cli(argv + ["--output", str(out), "--fit-output", str(fit)]) == EXIT_OK
        header = next(l for l in out.read_text().splitlines() if not l.startswith("#"))
        columns = set(header.split(","))
        doc = json.loads(fit.read_text())
    else:
        assert run_cli(argv + ["--format", "json", "--output", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        columns = {column for row in doc.pop("rows", []) for column in row}
    del doc["config"]
    names = set(_flatten(doc)) | columns
    config_keys = {key for keys in _SCHEMA[command].values() for key in keys}
    assert names & config_keys <= ({"p"} if command == "exponents" else set())


@pytest.mark.parametrize(
    "command, key",
    [("subcritical", k) for k in ("c", "b1", "ceiling_log", "mode")]
    + [("critical", k) for k in ("t0", "c2", "mode")],
)
def test_other_engine_keys_are_unknown(command, key, capsys):
    assert run_cli([command, "--set", f"iterate.{key}=1"]) == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


def test_iterate_command_is_gone(capsys):
    assert run_cli(["iterate", "--set", "iterate.mode=critical"]) == EXIT_CONFIG
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "scan"])
def test_grid_defaults_are_the_run_config_defaults(command):
    # one default per grid key, RunConfig's; scan alone sets its own horizon
    run = RunConfig(ModelParams(1.0, 1, 2.0))
    grid = _SCHEMA[command]["grid"]
    for key in ("dx", "cfl_safety", "blowup_threshold", "u1_mode", "linear_only"):
        assert grid[key] == (type(getattr(run, key)), getattr(run, key)), key
    assert grid["t_max"] == (float, run.t_max if command == "simulate" else 40.0)
