"""Self-test of the benchmark at smoke size.

Run from the repository root:  python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert self_total + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])
        assert abs(m["trace.unattributed_s"]) <= 0.1 * m["trace.wall_s"]


def test_slope_outside_window_is_a_failed_op(tmp_path):
    workload = workloads.Sweep(smoke=True)
    workload.slope_window = (0.0, 1.0)  # the fitted slope is about -1
    ops = run.run_loop(workload, workloads.load_library(), 1, 0.0, str(tmp_path))
    result = run.summarize(ops, {})
    assert result["attempted"] == 1 and result["failed"] == 1
    assert not result["correct"]
    assert any("slope" in p for p in ops[0]["problems"])


def test_sweep_checker_flags_censored_and_missing_fit():
    eps = [0.3, 0.6]
    recs = [{"eps": "0.3", "censored": "true"}, {"eps": "0.6", "censored": "false"}]
    problems = workloads.check_sweep(recs, {"fit": None, "fit_error": "x"}, eps, (-1.2, -0.8))
    assert len(problems) == 2


def test_op_past_its_cap_is_a_failed_op(tmp_path):
    workload = workloads.Tracked(smoke=True)
    workload.cap_s = 1e-3
    ops = run.run_loop(workload, workloads.load_library(), 1, 0.0, str(tmp_path))
    assert ops[0]["failed"] and "cap" in ops[0]["problems"][0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = workloads.WORKLOADS[name]()

    def argv(seed):
        inp = wl.draw(np.random.default_rng(seed))
        return repr({k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in inp.items()})

    assert argv(5) == argv(5)
    assert argv(5) != argv(6)


def test_tracer_restores_the_library():
    lib = workloads.load_library()
    before = {(m, a): getattr(getattr(lib, m), a) for m, a, _ in spans.TARGETS}
    tracer = spans.Tracer(vars(lib))
    tracer.install()
    lib.specfun.kummer_m(0.25, 0.5, -1.0)
    tracer.uninstall()
    after = {(m, a): getattr(getattr(lib, m), a) for m, a, _ in spans.TARGETS}
    assert before == after
    layers = spans.layer_metrics(tracer.spans)
    assert layers["specfun.kummer_m.calls"] == 1
    assert layers["specfun.kummer_m.regime.series"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench("--workload", "kernels", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
