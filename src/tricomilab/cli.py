"""Command-line front end: one dispatcher, one subcommand per module, one
per special function (``kummer``, ``varphi``, ``log_gamma``) and one per
iteration engine (``subcritical``, ``critical``).

Runs are configured by an INI-style file (flat key = value entries grouped
in per-module sections) plus ``--set section.key=value`` overrides; unknown
keys are rejected rather than silently ignored.  Each command builds one
document, nested dicts of scalars plus an optional table, and ``_emit``
renders it: in CSV as ``# a.b = value`` comment lines over the table, in
JSON as the entry a -> b with one object per table row under "rows".  Both
start with the fully resolved configuration (its comment lines, or the
"config" object), so any artifact can be re-run to byte-identical results;
the document names no config key again, bar the resolved p of exponents.
Floats are rendered with 12 significant digits everywhere.

Exit codes: 0 success, 2 config error, 3 domain error, 4 scan with every
run censored, 5 report with missing or malformed inputs.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import operator
import os
import sys

import numpy as np

from . import exponents as expmod
from . import iteration as itmod
from . import pde_solver as pde
from . import testfun as tfmod
from . import tricomi_ode as ode
from .errors import ConfigError, DomainError
from .specfun import kummer_m_detail, kummer_m_deriv, log_gamma, varphi

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_CENSORED = 4
EXIT_REPORT_GAP = 5

OUTDIR_ENV = "TRICOMILAB_OUTDIR"


def fmt(x) -> str:
    """Deterministic 12-significant-digit rendering of floats."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    return str(x)


def _round_floats(obj):
    if isinstance(obj, dict):
        return {k: _round_floats(obj[k]) for k in obj}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isfinite(f):
            return float(f"{f:.12g}")
        return None if math.isnan(f) else ("inf" if f > 0 else "-inf")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def dump_json(payload: dict) -> str:
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# configuration schema and resolution
# ---------------------------------------------------------------------------

# schema[command][section][key] = (type, default); REQUIRED means no default
REQUIRED = object()

# the PDE model and grid keys shared by simulate and scan (scan overrides
# the t_max default); scan sets eps per run and tracks no F, so those keys
# are simulate's only.  The grid keys take type and default from RunConfig's
# fields, so the library and the CLI share one default
_MODEL = {
    "m": (float, REQUIRED),
    "n": (int, REQUIRED),
    "p": (float, REQUIRED),
    "big_r": (float, 1.0),
}
_GRID = {f.name: (type(f.default), f.default) for f in dataclasses.fields(pde.RunConfig)
         if f.name in ("dx", "t_max", "cfl_safety", "blowup_threshold", "u1_mode", "linear_only")}

# the keys both iteration engines read, in the [iterate] section of the
# subcritical and critical commands; each engine resolves a nan p its own way
_ENGINE = {
    "m": (float, 1.0),
    "n": (int, 1),
    "p": (float, float("nan")),
    "eps": (float, 0.1),
    "jmax": (int, 40),
    "c0": (float, 1.0),
}

_SCHEMA = {
    # one command per special function, each reading its own [specfun] keys
    "kummer": {"specfun": {"a": (float, 0.25), "b": (float, 0.5), "z": (float, -1.0)}},
    "varphi": {"specfun": {"n": (int, 3), "r": (float, 1.0)}},
    "log_gamma": {"specfun": {"x": (float, 1.0)}},
    "odecheck": {
        "odecheck": {
            "m": (float, 1.0),
            "lambda": (float, 1.0),
            "t": (float, 2.0),
            "s": (float, -1.0),  # negative -> propagators not evaluated
            "oracle_rtol": (float, 1e-10),
        }
    },
    "testfun": {
        "testfun": {
            "m": (float, 1.0),
            "n": (int, 3),
            "q": (float, float("nan")),  # nan -> q_choice(n, p_crit(m,n))
            "lambda0": (float, 0.5),
            "big_r": (float, 1.0),
            "t_max": (float, 1e3),
            "nt": (int, 9),
            "ns": (int, 3),
            "nx": (int, 3),
            "rtol": (float, 1e-8),
        }
    },
    "exponents": {
        "exponents": {
            "m": (float, REQUIRED),
            "n": (int, REQUIRED),
            "p": (float, float("nan")),  # nan -> p_crit(m,n)
            "eps": (float, float("nan")),
            "constant": (float, 1.0),
        }
    },
    "subcritical": {"iterate": {**_ENGINE, "t0": (float, 0.0), "c2": (float, 1.0)}},
    "critical": {"iterate": {**_ENGINE, "c": (float, 1.0), "b1": (float, 1.0),
                             "ceiling_log": (float, 30.0)}},
    "simulate": {
        "model": {**_MODEL, "eps": (float, 1.0)},
        "grid": {**_GRID, "track_f": (bool, True), "n_f_samples": (int, 64)},
    },
    "scan": {
        "model": _MODEL,
        "grid": {**_GRID, "t_max": (float, 40.0)},
        "scan": {"eps_list": (str, REQUIRED)},  # comma-separated
    },
}


def _coerce(raw: str, typ, key: str):
    try:
        if typ is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return typ(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"cannot parse value for {key!r}: {raw!r}") from exc


def resolve_config(command: str, config_path: str | None, overrides: list[str]) -> dict:
    """Merge file + overrides against the schema; reject unknown keys."""
    schema = _SCHEMA[command]
    values = {
        sec: {k: (None if d is REQUIRED else d) for k, (t, d) in keys.items()}
        for sec, keys in schema.items()
    }
    provided: list[tuple[str, str, str]] = []
    if config_path:
        parser = configparser.ConfigParser()
        try:  # no section header, a duplicate option, a bad %-interpolation
            if not parser.read(config_path):
                raise ConfigError(f"config file not found: {config_path}")
            provided += [(sec, key, raw) for sec in parser.sections()
                         for key, raw in parser.items(sec)]
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        addr, raw = item.split("=", 1)
        sec, key = addr.split(".", 1)
        provided.append((sec.strip(), key.strip(), raw.strip()))
    for sec, key, raw in provided:
        if sec not in schema:
            raise ConfigError(f"unknown config section {sec!r} for command {command!r}")
        if key not in schema[sec]:
            raise ConfigError(f"unknown config key {sec}.{key!r} for command {command!r}")
        typ = schema[sec][key][0]
        values[sec][key] = _coerce(raw, typ, f"{sec}.{key}")
    for sec, keys in schema.items():
        for key, (typ, default) in keys.items():
            if default is REQUIRED and values[sec][key] is None:
                raise ConfigError(f"missing required config key {sec}.{key}")
    return values


def config_echo(command: str, cfg: dict) -> dict:
    return {
        "command": command,
        **{sec: {k: cfg[sec][k] for k in sorted(cfg[sec])} for sec in sorted(cfg)},
    }


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_doc(args: argparse.Namespace, cfg: dict, doc: dict) -> str:
    return dump_json({"config": config_echo(args.command, cfg), **doc})


def _flat(doc: dict, prefix: str = ""):
    """The ``(a.b, value)`` leaves of a nested dict, in its order."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _flat(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _table(cls, records) -> tuple[list, list]:
    """The columns (the fields of dataclass ``cls``, two or more) and rows of
    ``records``, read flat: no copy of any field."""
    columns = [f.name for f in dataclasses.fields(cls)]
    return columns, list(map(operator.attrgetter(*columns), records))


def _emit(args: argparse.Namespace, cfg: dict, doc: dict, columns=None, rows=None) -> int:
    """Write one artifact in ``args.format``; the only code that knows both.

    JSON is ``{"config": ..., **doc, "rows": [one object per row]}``.  CSV is
    the config echo, then ``doc``, flattened to ``# a.b = value`` lines,
    then the table.  A ``doc`` without ``columns``/``rows`` is its own
    one-row table.
    """
    if args.format == "json":
        table = {} if columns is None else {"rows": [dict(zip(columns, r)) for r in rows]}
        text = _json_doc(args, cfg, {**doc, **table})
    else:
        if columns is None:
            columns = sorted(doc)
            rows = [tuple(doc[k] for k in columns)]
            doc = {}
        echo = config_echo(args.command, cfg)
        lines = [f"# {k} = {fmt(v)}" for part in (echo, doc) for k, v in _flat(part)]
        lines += [",".join(columns), *(",".join(fmt(v) for v in row) for row in rows)]
        text = "\n".join(lines) + "\n"
    _write(args.output, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_kummer(cfg: dict, args: argparse.Namespace) -> int:
    """M(a, b; z) with its regime and error estimate, and dM/dz at the same point."""
    c = cfg["specfun"]
    point = (c["a"], c["b"], c["z"])
    return _emit(args, cfg, {**kummer_m_detail(*point)._asdict(),
                             "deriv": kummer_m_deriv(*point)})


def _cmd_varphi(cfg: dict, args: argparse.Namespace) -> int:
    c = cfg["specfun"]
    # varphi_scaled's own split: elementary for n = 1, 3, Bessel otherwise
    return _emit(args, cfg, {"value": varphi(c["n"], c["r"]),
                             "regime": "closed-form" if c["n"] in (1, 3) else "bessel"})


def _cmd_log_gamma(cfg: dict, args: argparse.Namespace) -> int:
    return _emit(args, cfg, {"value": log_gamma(cfg["specfun"]["x"])})


def _cmd_odecheck(cfg: dict, args: argparse.Namespace) -> int:
    c = cfg["odecheck"]
    params = ode.OdeParams(c["m"], c["lambda"])
    t = c["t"]
    scaled = ode.fundamental_pair_scaled(params, t)
    oracle = (*ode.ode_oracle_scaled(params, t, (1.0, 0.0), rtol=c["oracle_rtol"]),
              *ode.ode_oracle_scaled(params, t, (0.0, 1.0), rtol=c["oracle_rtol"]))
    growth = params.lam * ode.phi_of_t(params.m, t)
    payload = {
        **dataclasses.asdict(ode.fundamental_pair(params, t)),
        "wronskian_residual": scaled.v1 * scaled.dv2 - scaled.dv1 * scaled.v2
        - math.exp(-2.0 * growth),
        # relative, or absolute against an oracle value of exactly 0
        "oracle_rel_deviation": max(
            abs(got / ref - 1.0) if ref else abs(got - ref)
            for got, ref in zip(dataclasses.astuple(scaled), oracle)
        ),
    }
    if c["s"] >= 0:
        payload["phi1"] = ode.phi1(t, c["s"], params)
        payload["phi2"] = ode.phi2(t, c["s"], params)
        payload["phi2_ratio"] = ode.phi2_ratio(t, c["s"], params)
    return _emit(args, cfg, payload)


def _cmd_exponents(cfg: dict, args: argparse.Namespace) -> int:
    c = cfg["exponents"]
    pc = expmod.p_crit(c["m"], c["n"])
    p = pc if math.isnan(c["p"]) else c["p"]
    ctx = expmod.ExponentContext(c["m"], c["n"], p)
    it = expmod.iteration_exponents(ctx)
    res1, res2 = expmod.critical_identities(ctx)
    payload = {
        "p": p,
        "gamma": expmod.gamma_mnp(ctx),
        "p_crit": pc,
        "mu": it.mu,
        "alpha_it": it.alpha_it,
        "beta_it": it.beta_it,
        "q_choice": expmod.q_choice(c["n"], p),
        "identity_residual_frame": res1,
        "identity_residual_initiate": res2,
    }
    if not math.isnan(c["eps"]):
        payload["lifespan_bound"] = expmod.lifespan_prediction(ctx, c["eps"], c["constant"])
    return _emit(args, cfg, payload)


def _cmd_testfun(cfg: dict, args: argparse.Namespace) -> int:
    c = cfg["testfun"]
    q = c["q"]
    if math.isnan(q):
        q = expmod.q_choice(c["n"], expmod.p_crit(c["m"], c["n"]))
    params = tfmod.TestFnParams(
        q=q, lambda0=c["lambda0"], R=c["big_r"], n=c["n"], m=c["m"]
    )
    grid = tfmod.Lemma22Grid.log_default(
        t_max=c["t_max"], nt=c["nt"], ns=c["ns"], nx=c["nx"]
    )
    report = tfmod.lemma22_report(params, grid, rtol=c["rtol"])
    doc = {
        "resolved": {"q": q},
        "constant": dict(sorted(report.constants.items())),
        "excluded_points": report.excluded,
        "unconverged_points": report.unconverged,
    }
    return _emit(args, cfg, doc, *_table(tfmod.Lemma22Row, report.rows))


def _engine_ctx(cfg: dict, p_default) -> tuple[dict, expmod.ExponentContext]:
    """The [iterate] keys and the exponents; only a nan p forms p_crit(m, n)."""
    c = cfg["iterate"]
    p = p_default(expmod.p_crit(c["m"], c["n"])) if math.isnan(c["p"]) else c["p"]
    return c, expmod.ExponentContext(c["m"], c["n"], p)


def _emit_engine(cfg, args, seq, log_t: float, columns: dict, **thresholds) -> int:
    """One row per j of a_j, b_j and the engine's own ``columns``, headed by
    the resolved p, the threshold log_t and any further ``thresholds``."""
    doc = {"resolved": {"p": seq.p}, "threshold": {"log_t_scan": log_t, **thresholds}}
    rows = list(zip(seq.j_index, seq.a_j, seq.b_j, *columns.values()))
    return _emit(args, cfg, doc, ["j", "a_j", "b_j", *columns], rows)


def _cmd_subcritical(cfg: dict, args: argparse.Namespace) -> int:
    c, ctx = _engine_ctx(cfg, lambda pc: 0.5 * (1.0 + pc))
    if not c["eps"] > 0:
        raise DomainError(f"eps must be > 0, got {c['eps']}")
    # past the double range D1 is inf, which subcritical_run rejects
    d1 = c["c2"] * expmod.pow_or_inf(c["eps"], ctx.p)
    seq = itmod.subcritical_run(ctx, d1=d1, t0=c["t0"], jmax=c["jmax"], c0=c["c0"])
    return _emit_engine(cfg, args, seq, itmod.threshold_time_log_scan(seq),
                        {"log_d_j": seq.log_d_j},
                        t_closed_form=itmod.j_threshold_time(seq))


def _cmd_critical(cfg: dict, args: argparse.Namespace) -> int:
    c, ctx = _engine_ctx(cfg, lambda pc: pc)
    seq = itmod.critical_run(ctx, eps=c["eps"], c=c["c"], c0=c["c0"], b1=c["b1"],
                             jmax=c["jmax"])
    log_t = itmod.critical_divergence_log_time(seq, ceiling_log=c["ceiling_log"])
    return _emit_engine(cfg, args, seq, log_t, {"log_c_j": seq.log_c_j, "l_j": seq.l_j})


def _build_run_config(cfg: dict) -> pde.RunConfig:
    """The model and grid keys are ModelParams' and RunConfig's fields (big_r
    is R); absent ones take their defaults."""
    mc = {("R" if k == "big_r" else k): v for k, v in cfg["model"].items()}
    return pde.RunConfig(model=pde.ModelParams(**mc), **cfg["grid"])


def _cmd_simulate(cfg: dict, args: argparse.Namespace) -> int:
    run_cfg = _build_run_config(cfg)
    record, series = pde.run_until_blowup(run_cfg)
    result = dataclasses.asdict(record)
    del result["eps"]  # the config's model.eps
    f_map = dict(zip(series.f_times.tolist(), series.f_values.tolist()))
    rows = [
        (t, series.max_u[i], series.g[i], f_map.get(t), series.support_radius[i])
        for i, t in enumerate(series.t.tolist())
    ]
    return _emit(args, cfg, {"result": result}, ["t", "max_u", "g", "f", "support_radius"], rows)


def _cmd_scan(cfg: dict, args: argparse.Namespace) -> int:
    run_cfg = _build_run_config(cfg)
    sc = cfg["scan"]
    try:
        eps_values = [float(tok) for tok in sc["eps_list"].split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse scan.eps_list: {sc['eps_list']!r}") from exc
    if not eps_values:
        raise ConfigError("scan.eps_list is empty")
    records = pde.lifespan_scan(run_cfg, eps_values)
    _emit(args, cfg, {}, *_table(pde.LifespanRecord, records))
    fit_doc: dict = {"kind": "lifespan_fit"}
    try:
        fit = pde.fit_scaling(records)
        md = run_cfg.model
        law = expmod.lifespan_law(expmod.ExponentContext(md.m, md.n, md.p))
        fit_doc["fit"] = {**dataclasses.asdict(fit), "theory_slope": -law.theta,
                          "note": fit.note}
    except DomainError as exc:
        fit_doc["fit"] = None
        fit_doc["fit_error"] = str(exc)
    _write(args.fit_output, _json_doc(args, cfg, fit_doc))
    return EXIT_CENSORED if all(r.censored for r in records) else EXIT_OK


# key -> tolerance on |value - reference|
_REPORT_CHECKS = {
    "identity_residual_frame": 1e-10,
    "identity_residual_initiate": 1e-10,
    "wronskian_residual": 1e-8,
    "oracle_rel_deviation": 1e-6,
}
# both exponent identities leave the residual -gamma/(2p), which is 0 at p_crit
_IDENTITIES = ("identity_residual_frame", "identity_residual_initiate")


def _report_rows(doc: dict):
    """(name, value, tolerance, pass) of each check ``doc`` carries: its
    ``_REPORT_CHECKS`` keys against 0, bar the identities against -gamma/(2p)
    from its own ``gamma`` and ``p``, and a fitted slope against the theory
    slope.  A check without a reference fails.  A tolerance is at least
    1e-11 |reference|, above the 12-digit rendering of the value and of the
    gamma and p the reference comes from.  theta bounds the lifespan from
    above, so only a slope steeper than the theory slope by more than 20%
    of it fails; a shallower one is consistent with the bound.  A value that
    is not a number raises ValueError or TypeError."""
    gamma, p = doc.get("gamma"), doc.get("p")
    identity = None if gamma is None or p is None else -float(gamma) / (2.0 * float(p))
    for key, tol in _REPORT_CHECKS.items():
        if doc.get(key) is not None:
            value, ref = float(doc[key]), identity if key in _IDENTITIES else 0.0
            tol = max(tol, 1e-11 * abs(ref or 0.0))
            yield key, value, tol, ref is not None and abs(value - ref) <= tol
    fit = doc.get("fit")
    if isinstance(fit, dict) and fit.get("slope") is not None:
        slope, theory = float(fit["slope"]), fit.get("theory_slope")
        tol = None if theory is None else 0.2 * abs(float(theory))
        yield ("fit_slope_vs_theory", slope, tol,
               theory is not None and slope >= float(theory) - tol)


def _cmd_report(paths: list[str], out: str | None) -> int:
    if not paths:
        sys.stderr.write("report: no input files given\n")
        return EXIT_REPORT_GAP
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        sys.stderr.write("report: missing inputs: " + ", ".join(missing) + "\n")
        return EXIT_REPORT_GAP
    checks = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)  # a JSONDecodeError or UnicodeDecodeError is a ValueError
            if not isinstance(doc, dict):
                raise TypeError(f"a JSON {type(doc).__name__}, not an object")
            rows = list(_report_rows(doc))
        except (OSError, ValueError, TypeError, ZeroDivisionError) as exc:
            sys.stderr.write(f"report: cannot check {path}: {exc}\n")
            return EXIT_REPORT_GAP
        checks += [{"source": os.path.basename(path), "name": name, "value": value,
                    "tolerance": tol, "pass": ok} for name, value, tol, ok in rows]
    if not checks:
        sys.stderr.write("report: inputs contained nothing checkable\n")
        return EXIT_REPORT_GAP
    summary = {"inputs": [os.path.basename(p) for p in paths], "checks": checks,
               "overall_pass": all(c["pass"] for c in checks)}
    _write(out, dump_json(summary))
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


# command -> (handler, default --format, allowed --format values); the scan
# records are CSV only, and its fit goes to --fit-output as JSON
_COMMANDS = {
    "kummer": (_cmd_kummer, "csv", ("csv", "json")),
    "varphi": (_cmd_varphi, "csv", ("csv", "json")),
    "log_gamma": (_cmd_log_gamma, "csv", ("csv", "json")),
    "odecheck": (_cmd_odecheck, "csv", ("csv", "json")),
    "testfun": (_cmd_testfun, "csv", ("csv", "json")),
    "exponents": (_cmd_exponents, "json", ("csv", "json")),
    "subcritical": (_cmd_subcritical, "csv", ("csv", "json")),
    "critical": (_cmd_critical, "csv", ("csv", "json")),
    "simulate": (_cmd_simulate, "csv", ("csv", "json")),
    "scan": (_cmd_scan, "csv", ("csv",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricomilab",
        description="Numerical laboratory for the semilinear generalized "
        "Tricomi equation u_tt - t^m Lap(u) = |u|^p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, default_fmt, formats) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one config entry (repeatable)",
        )
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=formats, default=default_fmt)
        if name == "scan":
            p.add_argument("--fit-output", default=None, help="fit JSON path")
    rep = sub.add_parser("report")
    rep.add_argument("inputs", nargs="*", help="prior JSON outputs to merge")
    rep.add_argument("--output", default=None)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors, which matches EXIT_CONFIG
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command == "report":
            return _cmd_report(args.inputs, args.output)
        cfg = resolve_config(args.command, args.config, args.overrides)
        return _COMMANDS[args.command][0](cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
