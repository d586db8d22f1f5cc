"""The four benchmark workloads: seeded inputs, the timed op, output checks.

Each workload draws one op's inputs from a ``numpy.random.Generator`` fed
by the benchmark seed (``draw``), runs the op (``run``, the timed part) and
checks its outputs against the acceptance tolerances (``check``, untimed;
it returns a list of problems, empty when the op is correct).  Ops with a
CLI command go in-process through ``tricomilab.cli.dispatch`` and write
their artifacts to ``outdir``; ``kernels`` calls the library directly.

The library is reached only through module attributes (``lib.cli.dispatch``,
``lib.specfun.kummer_m``, ...) so the tracer's wrappers see every call.
``smoke=True`` shrinks every input for the self-test.
"""

from __future__ import annotations

import json
import math
import os
from types import SimpleNamespace

import numpy as np


def load_library() -> SimpleNamespace:
    """Import the tricomilab modules the workloads and the tracer use."""
    from tricomilab import cli, exponents, iteration, pde_solver, specfun, testfun
    from tricomilab import tricomi_ode

    return SimpleNamespace(
        cli=cli, exponents=exponents, iteration=iteration, pde_solver=pde_solver,
        specfun=specfun, testfun=testfun, tricomi_ode=tricomi_ode,
    )


def read_csv_artifact(path: str):
    """(header dict from '# key = value' lines, column names, rows of strings)."""
    header, rows, columns = {}, [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                header[key] = value
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append(line.split(","))
    return header, columns or [], rows


def _sets(pairs: dict) -> list[str]:
    argv = []
    for key, value in pairs.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# sweep: the criterion-8 lifespan sweep through `scan`
# ---------------------------------------------------------------------------


class Sweep:
    name = "sweep"
    cap_s = 90.0
    slope_window = (-1.2, -0.8)

    def __init__(self, smoke: bool = False):
        self.dx = 0.1 if smoke else 0.02

    def draw(self, rng):
        # 7 eps log-spread over [0.3, 1.2]: the ends are fixed and each
        # interior point moves by at most a tenth of the log spacing, since
        # the cost of a run grows like eps^-3
        log_eps = np.log(np.geomspace(0.3, 1.2, 7))
        gap = log_eps[1] - log_eps[0]
        log_eps[1:-1] += rng.uniform(-0.1, 0.1, 5) * gap
        eps = [float(e) for e in np.exp(log_eps)]
        argv = ["scan"] + _sets({
            "model.m": 1, "model.n": 1, "model.p": 2, "grid.dx": self.dx,
            "grid.t_max": 60, "grid.u1_mode": "zero",
            "scan.eps_list": ",".join(repr(e) for e in eps),
        })
        return {"eps": eps, "argv": argv}

    def artifacts(self, outdir):
        return [os.path.join(outdir, "records.csv"), os.path.join(outdir, "fit.json")]

    def run(self, lib, inp, outdir):
        records, fit = self.artifacts(outdir)
        return lib.cli.dispatch(inp["argv"] + ["--output", records, "--fit-output", fit])

    def check(self, lib, inp, result, outdir):
        if result != 0:
            return [f"scan exited with {result}"]
        records, fit = self.artifacts(outdir)
        _, columns, rows = read_csv_artifact(records)
        recs = [dict(zip(columns, row)) for row in rows]
        with open(fit, encoding="utf-8") as fh:
            fit_doc = json.load(fh)
        return check_sweep(recs, fit_doc, inp["eps"], self.slope_window)


def check_sweep(records, fit_doc, eps, slope_window) -> list[str]:
    """No censored record, every eps present, fitted slope inside the window."""
    problems = []
    if sorted(r["eps"] for r in records) != sorted(_fmt(e) for e in eps):
        problems.append("scan records do not match the requested eps values")
    censored = [r["eps"] for r in records if r["censored"] != "false"]
    if censored:
        problems.append(f"censored records at eps {censored}")
    fit = fit_doc.get("fit")
    if not fit:
        problems.append(f"no fit: {fit_doc.get('fit_error')}")
    elif not slope_window[0] <= fit["slope"] <= slope_window[1]:
        problems.append(f"slope {fit['slope']} outside {list(slope_window)}")
    return problems


# ---------------------------------------------------------------------------
# tracked: one long n=2 `simulate` run with F tracking
# ---------------------------------------------------------------------------


class Tracked:
    name = "tracked"
    cap_s = 60.0

    def __init__(self, smoke: bool = False):
        self.t_max = 2.0 if smoke else 10.0
        self.n_f = 4 if smoke else 16

    def draw(self, rng):
        eps = float(rng.uniform(0.8, 1.2))
        argv = ["simulate"] + _sets({
            "model.m": 1, "model.n": 2, "model.p": 2, "model.eps": repr(eps),
            "grid.t_max": self.t_max, "grid.n_f_samples": self.n_f,
            "grid.track_f": "true",
        })
        return {"eps": eps, "argv": argv}

    def artifacts(self, outdir):
        return [os.path.join(outdir, "simulate.csv")]

    def run(self, lib, inp, outdir):
        return lib.cli.dispatch(inp["argv"] + ["--output", self.artifacts(outdir)[0]])

    def check(self, lib, inp, result, outdir):
        if result != 0:
            return [f"simulate exited with {result}"]
        pde, ode = lib.pde_solver, lib.tricomi_ode
        _, columns, rows = read_csv_artifact(self.artifacts(outdir)[0])
        col = {name: i for i, name in enumerate(columns)}
        t = np.array([float(r[col["t"]]) for r in rows])
        support = np.array([float(r[col["support_radius"]]) for r in rows])
        f = np.array([float(r[col["f"]]) for r in rows if r[col["f"]]])
        problems = []
        # criterion 7: support cone, R + phi(t) + 2 dx
        dx, radius = 0.02, 1.0
        cone = radius + np.array([ode.phi_of_t(1.0, x) for x in t]) + 2.0 * dx
        if np.any(support > cone):
            problems.append("support radius leaves the cone R + phi(t) + 2dx")
        if len(f) < 2 or not np.all(np.isfinite(f)) or not np.all(f > 0):
            problems.append(f"F samples not finite and positive: {f.tolist()}")
        # the artifact has no L^p column: rerun without F (cheap) to get it,
        # after checking that this rerun reproduces the artifact's t and G
        cfg = pde.RunConfig(
            pde.ModelParams(1.0, 2, 2.0, R=radius, eps=inp["eps"]),
            dx=dx, t_max=self.t_max,
        )
        _, ser = pde.run_until_blowup(cfg)
        same = len(ser.t) == len(rows) and all(
            _fmt(ser.t[i]) == r[col["t"]] and _fmt(ser.g[i]) == r[col["g"]]
            for i, r in enumerate(rows)
        )
        if not same:
            return problems + ["artifact t/G differ from an untracked rerun"]
        k = 10
        i = np.arange(k, len(ser.t) - k, k)
        dtp, dtm = ser.t[i + k] - ser.t[i], ser.t[i] - ser.t[i - k]
        d2 = 2.0 * (
            ser.g[i + k] * dtm - ser.g[i] * (dtp + dtm) + ser.g[i - k] * dtp
        ) / (dtp * dtm * (dtp + dtm))
        t_end = ser.t[-1]
        win = (ser.t[i] > 0.3 * t_end) & (ser.t[i] < 0.6 * t_end)
        rel = np.abs(d2 - ser.lp[i])[win] / np.abs(ser.lp[i])[win]
        if not win.any() or np.max(rel) > 0.02:
            problems.append(f"G'' vs L^p mismatch {np.max(rel) if win.any() else 'n/a'}")
        return problems


# ---------------------------------------------------------------------------
# envelope: criterion-5 envelope constants through `testfun`
# ---------------------------------------------------------------------------


class Envelope:
    name = "envelope"
    cap_s = 30.0
    cases = ((1, 2), (1, 3), (0, 3))

    def __init__(self, smoke: bool = False):
        self.grid = (6, 3, 3) if smoke else (24, 7, 7)

    def draw(self, rng):
        t_max = float(np.exp(rng.uniform(math.log(500.0), math.log(2000.0))))
        nt, ns, nx = self.grid
        argvs = [
            ["testfun"] + _sets({
                "testfun.m": m, "testfun.n": n, "testfun.t_max": repr(t_max),
                "testfun.nt": nt, "testfun.ns": ns, "testfun.nx": nx,
            })
            for m, n in self.cases
        ]
        return {"t_max": t_max, "argvs": argvs}

    def artifacts(self, outdir):
        return [os.path.join(outdir, f"testfun_m{m}_n{n}.csv") for m, n in self.cases]

    def run(self, lib, inp, outdir):
        return [
            lib.cli.dispatch(argv + ["--output", path])
            for argv, path in zip(inp["argvs"], self.artifacts(outdir))
        ]

    def check(self, lib, inp, result, outdir):
        problems = []
        for code, path in zip(result, self.artifacts(outdir)):
            if code != 0:
                problems.append(f"{os.path.basename(path)}: testfun exited with {code}")
                continue
            header, _, rows = read_csv_artifact(path)
            const = {k[len("constant."):]: float(v)
                     for k, v in header.items() if k.startswith("constant.")}
            if not rows:
                problems.append(f"{os.path.basename(path)}: no rows")
            for part in ("i-xi", "i-eta", "ii"):
                if not (math.isfinite(const.get(part, math.nan)) and const[part] > 0):
                    problems.append(f"{os.path.basename(path)}: constant {part} = {const.get(part)}")
            if not math.isfinite(const.get("iii", math.nan)):
                problems.append(f"{os.path.basename(path)}: constant iii = {const.get('iii')}")
        return problems


# ---------------------------------------------------------------------------
# kernels: Kummer grid, fundamental-system atlas, iteration threshold curves
# ---------------------------------------------------------------------------


def _kummer_pairs():
    pairs = []
    for m in (0.5, 1.0, 2.0, 3.0, 4.0):
        alpha, gk = m / (2 * (m + 2)), m / (m + 2)
        pairs += [(alpha, gk), (1 + alpha - gk, 2 - gk), (alpha + 1, gk + 1)]
    return pairs


class Kernels:
    name = "kernels"
    cap_s = 30.0

    def __init__(self, smoke: bool = False):
        self.n_z = 71 if smoke else 701
        self.n_atlas = 20 if smoke else 200
        self.n_oracle = 2 if smoke else 8

    def draw(self, rng):
        # criterion 3's grid on [-50, 20], interior points moved within
        # 0.4 of the spacing; it spans all four Kummer regimes
        zs = np.linspace(-50.0, 20.0, self.n_z)
        zs[1:-1] += rng.uniform(-0.4, 0.4, self.n_z - 2) * (zs[1] - zs[0])
        exp_z = rng.uniform(-50.0, 20.0, 8)
        # (m, lambda, t) with lambda phi(t) <= 7, where the unscaled pair and
        # the propagators are representable (criterion 4); t_s for the
        # scaled pair ranges out to 20 as in criterion 4's oracle check
        atlas = []
        for _ in range(self.n_atlas):
            m = float(rng.uniform(0.0, 3.0))
            lam = float(rng.uniform(0.1, 5.0))
            t_cap = min(20.0, ((m + 2.0) * 7.0 / (2.0 * lam)) ** (2.0 / (m + 2.0)))
            t = float(rng.uniform(0.0, t_cap))
            s = float(rng.uniform(0.0, 1.0)) * t
            t_s = float(rng.uniform(0.5, 20.0))
            atlas.append((m, lam, t, s, t_s))
        oracle = sorted(rng.choice(self.n_atlas, self.n_oracle, replace=False).tolist())
        # criterion 6's eps ladders, shifted by a seeded factor
        eps_sub = 2.0 ** -np.arange(4, 15) * rng.uniform(1.0, 2.0)
        eps_crit = 2.0 ** -np.arange(8, 17) * rng.uniform(1.0, 2.0)
        return {"zs": zs, "exp_z": exp_z, "atlas": atlas, "oracle": oracle,
                "eps_sub": eps_sub, "eps_crit": eps_crit}

    def artifacts(self, outdir):
        return []

    def result_bytes(self, result) -> bytes:
        """The op's numbers as bytes, for a digest (it writes no artifact)."""
        values = [v for pair in result["kummer"] for v in pair] + list(result["exp"])
        for pair, scaled, p1, p2r in result["atlas"]:
            values += [pair.v1, pair.dv1, pair.v2, pair.dv2,
                       scaled.v1, scaled.dv1, scaled.v2, scaled.dv2, p1, p2r]
        it = result["iteration"]
        values += list(it["sub_curve"]) + list(it["crit_curve"])
        return np.asarray(values, dtype=float).tobytes()

    def run(self, lib, inp, outdir):
        sf, ode, it, ex = lib.specfun, lib.tricomi_ode, lib.iteration, lib.exponents
        kummer = [
            (sf.kummer_m(a, b, z), sf.kummer_m(b - a, b, -z))
            for a, b in _kummer_pairs()
            for z in inp["zs"].tolist()
        ]
        exp_regime = [sf.kummer_m(b, b, z) for _, b in _kummer_pairs() for z in inp["exp_z"].tolist()]
        atlas = []
        for m, lam, t, s, t_s in inp["atlas"]:
            params = ode.OdeParams(m, lam)
            atlas.append((
                ode.fundamental_pair(params, t),
                ode.fundamental_pair_scaled(params, t_s),
                ode.phi1(t, s, params),
                ode.phi2_ratio(t, s, params),
            ))
        ctx = ex.ExponentContext(1.0, 1, 2.0)
        ctx_c = ex.ExponentContext(1.0, 2, ex.p_crit(1.0, 2))
        iteration = {
            "sub_seq": it.subcritical_run(ctx, d1=0.37, t0=0.2, jmax=40),
            "crit_seq": it.critical_run(ctx_c, eps=0.05, jmax=40),
            "sub_curve": it.subcritical_threshold_curve(ctx, inp["eps_sub"]),
            "crit_curve": it.critical_threshold_curve(ctx_c, inp["eps_crit"]),
            "theory_sub": -2.0 * ctx.p * (ctx.p - 1.0) / ex.gamma_mnp(ctx),
            "theory_crit": -ctx_c.p * (ctx_c.p - 1.0),
        }
        return {"kummer": kummer, "exp": exp_regime, "atlas": atlas, "iteration": iteration}

    def check(self, lib, inp, result, outdir):
        ode, tf = lib.tricomi_ode, lib.testfun
        problems = []
        zs = inp["zs"].tolist()
        worst = 0.0
        for k, (lhs, refl) in enumerate(result["kummer"]):
            z = zs[k % len(zs)]
            worst = max(worst, abs(lhs - math.exp(z) * refl) / max(1.0, abs(lhs)))
        if not worst <= 1e-10:
            problems.append(f"Kummer transformation residual {worst:.3g} > 1e-10")
        exp_z = inp["exp_z"].tolist()
        for k, val in enumerate(result["exp"]):
            ref = math.exp(exp_z[k % len(exp_z)])
            if not abs(val - ref) <= 1e-12 * ref:
                problems.append(f"M(b,b;z) != e^z at z={exp_z[k % len(exp_z)]}")
                break
        for idx, ((m, lam, t, s, t_s), (pair, scaled, p1, p2r)) in enumerate(
            zip(inp["atlas"], result["atlas"])
        ):
            w = pair.v1 * pair.dv2 - pair.dv1 * pair.v2
            if not abs(w - 1.0) <= 1e-8:
                problems.append(f"Wronskian residual {w - 1.0:.3g} at m={m}, lam={lam}, t={t}")
            if t > s:
                # propagators against the independent scaled Bessel kernels
                grow = math.exp(lam * (ode.phi_of_t(m, t) - ode.phi_of_t(m, s)))
                lam_arr = np.array([lam])
                k1 = float(tf.kernel_phi1_scaled(t, s, lam_arr, m)[0]) * grow
                k2 = float(tf.kernel_phi2_ratio_scaled(t, s, lam_arr, m)[0]) * grow
                if not (abs(p1 - k1) <= 1e-6 * abs(k1) and abs(p2r - k2) <= 1e-6 * abs(k2)):
                    problems.append(f"propagators off the Bessel form at m={m}, lam={lam}, t={t}, s={s}")
            if idx in inp["oracle"]:
                params = ode.OdeParams(m, lam)
                w1 = ode.ode_oracle_scaled(params, t_s, (1.0, 0.0))
                w2 = ode.ode_oracle_scaled(params, t_s, (0.0, 1.0))
                for got, ref in ((scaled.v1, w1[0]), (scaled.dv1, w1[1]),
                                 (scaled.v2, w2[0]), (scaled.dv2, w2[1])):
                    if not abs(got - ref) <= 1e-6 * max(abs(ref), 1e-30):
                        problems.append(f"scaled pair off the oracle at m={m}, lam={lam}, t={t_s}")
                        break
        problems += _check_iteration(result["iteration"], inp)
        return problems


def _check_iteration(res, inp) -> list[str]:
    problems = []
    for name in ("sub_seq", "crit_seq"):
        seq = res[name]
        closed = [(seq.a_closed(seq.j_index), seq.a_j), (seq.b_closed(seq.j_index), seq.b_j)]
        if name == "crit_seq":
            closed.append((seq.log_c_closed(seq.j_index), seq.log_c_j))
        if not all(np.allclose(a, b, rtol=1e-12, atol=0.0) for a, b in closed):
            problems.append(f"{name}: closed forms differ from the recursion")
    slope_sub = np.polyfit(np.log(inp["eps_sub"]), res["sub_curve"], 1)[0]
    if not abs(slope_sub - res["theory_sub"]) <= 0.05 * abs(res["theory_sub"]):
        problems.append(f"subcritical threshold slope {slope_sub} vs {res['theory_sub']}")
    slope_crit = np.polyfit(np.log(inp["eps_crit"]), np.log(res["crit_curve"]), 1)[0]
    if not abs(slope_crit - res["theory_crit"]) <= 0.05 * abs(res["theory_crit"]):
        problems.append(f"critical threshold slope {slope_crit} vs {res['theory_crit']}")
    return problems


WORKLOADS = {cls.name: cls for cls in (Sweep, Tracked, Envelope, Kernels)}
