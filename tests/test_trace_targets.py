"""The benchmark tracer's names (``bench/spans.py`` TARGETS) exist in the library.

The tracer patches ``module.attr`` for each target; a refactor that drops
one of those bindings breaks every traced benchmark run.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spans():
    path = os.path.join(ROOT, "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    spans = _spans()
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"tricomilab.{mod}"), attr, None))
    ]
    assert spans.TARGETS and not missing


def test_traced_scan_books_every_level_under_step(monkeypatch):
    # a scan whose last three eps step as one batch: every level the scheme
    # computes, batched or not, is one pde_solver.step span
    pde = importlib.import_module("tricomilab.pde_solver")
    spans = _spans()
    levels, batches = [], []
    next_level, run = pde._next_level, pde._run

    def counted_level(*args):
        levels.append(args[4])  # the time the level starts from
        return next_level(*args)

    def counted_run(cfg, *runs, **kw):
        batches.append(len(runs))
        return run(cfg, *runs, **kw)

    monkeypatch.setattr(pde, "_next_level", counted_level)
    monkeypatch.setattr(pde, "_run", counted_run)
    tracer = spans.Tracer({mod: importlib.import_module(f"tricomilab.{mod}")
                           for mod, _, _ in spans.TARGETS})
    tracer.install()
    try:
        cfg = pde.RunConfig(pde.ModelParams(1.0, 1, 2.0), dx=0.05, t_max=20.0)
        records = pde.lifespan_scan(cfg, [0.7, 0.8, 1.0, 1.2])
    finally:
        tracer.uninstall()
    assert max(batches) == 3 and not any(r.censored for r in records)
    steps = [s for s in tracer.spans if s[2] == "pde_solver.step"]
    assert len(steps) == len(levels) > 0
    assert spans.layer_metrics(tracer.spans)["pde_solver.step.calls"] == len(levels)


def test_traced_testfun_books_the_quadrature(tmp_path, monkeypatch):
    # an envelope run: every quadrature call shows up with the Gauss levels
    # it evaluated (each call's radii all stop at level 16, so 8 and 16
    # points per panel), the nodes of those levels on the k + 1 panels its
    # scale sets, and no unconverged call
    spans = _spans()
    cli = importlib.import_module("tricomilab.cli")
    testfun = importlib.import_module("tricomilab.testfun")
    quad, panels = testfun.integrate_lambda_weighted, []

    def recorded(g, q, lam0, scale, rtol=1e-8):
        panels.append(testfun._dyadic_panels(lam0, scale) + 1)
        return quad(g, q, lam0, scale, rtol)

    monkeypatch.setattr(testfun, "integrate_lambda_weighted", recorded)
    tracer = spans.Tracer({mod: importlib.import_module(f"tricomilab.{mod}")
                           for mod, _, _ in spans.TARGETS})
    tracer.install()
    try:
        code = cli.dispatch([
            "testfun", "--set", "testfun.m=1", "--set", "testfun.n=2", "--set", "testfun.nt=3",
            "--set", "testfun.ns=2", "--set", "testfun.nx=3",
            "--output", str(tmp_path / "envelope.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = spans.layer_metrics(tracer.spans)
    calls = metrics["testfun.quad.calls"]
    assert calls > 0 and metrics["testfun.quad.levels"] == 2 * calls
    assert metrics["testfun.quad.unconverged"] == 0
    assert len(panels) == calls and max(panels) > 1  # some calls have dyadic panels
    assert metrics["testfun.quad.nodes"] == (8 + 16) * sum(panels)
