"""Benchmark of tricomilab: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: it draws an op's inputs
from the seed, runs the op, checks its output (untimed), and repeats until
``--seconds`` have passed (at least one op).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs every input twice, untraced and then
traced, and reports the per-layer metrics of the traced op with the median
wall time.  The last line of stdout is the result as one JSON object.  The
full report (run metadata, every op with its artifact digests, all
metrics) and, when traced, the spans go to
``.bench_build/perfbench/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

# Only the standard library is imported here: the set-up probe (a fresh
# interpreter running this file with --probe) times `import tricomilab.cli`
# before anything else loads numpy.
import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROBES = 3
HARD_LIMIT_S = 170.0

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "tracked", "envelope", "kernels"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink every input (self-test only)")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def source_dir(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tricomilab", "__init__.py")):
        raise SystemExit(f"error: no tricomilab sources under {src}; "
                         "run from the root of a tricomilab checkout")
    return src


def probe(args, src: str) -> None:
    """Set-up as a CLI user pays it: import tricomilab.cli, build the inputs."""
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import tricomilab.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    sys.path.insert(0, BENCH_DIR)
    import numpy as np
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.smoke).draw(np.random.default_rng(args.seed))
    print(json.dumps({"import_s": import_s}))


def measure_setup(args, root: str, count: int) -> tuple[list, list]:
    """Wall time of `count` fresh interpreters each running the probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    walls, imports = [], []
    for _ in range(count):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


def run_metadata(root: str, loadavg) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 **{k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "git_commit": git_commit(root),
        "source_sha256": source_digest(os.path.join(root, "src", "tricomilab")),
        "platform": platform.platform(),
    }


def blas_threads():
    """Thread count of the OpenBLAS this process loaded, as found (not set)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root: str):
    """HEAD of the checkout if it is a git work tree, else None."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def source_digest(pkg: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_probe_s() -> float:
    """Time of a fixed pure-Python loop: how fast this host runs us right now.

    Other tenants of a shared host can slow every op of a run alike; this
    figure, taken before and after the loop, tells such runs apart.
    """
    t0 = time.perf_counter()
    sum(i * i for i in range(400_000))
    return time.perf_counter() - t0


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_op(workload, lib, inp, outdir: str, tracer=None) -> dict:
    """Run one op under its wall-clock cap, then check it (untimed, untraced)."""
    for path in workload.artifacts(outdir):
        if os.path.exists(path):
            os.remove(path)
    rec = {"traced": tracer is not None, "failed": False, "problems": []}
    result = None
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, workload.cap_s)
    if tracer is not None:
        rec["span_range"] = [len(tracer.spans), None]
        tracer.install()
    cpu0, kids0, t0 = time.process_time(), os.times(), time.perf_counter()
    try:
        result = workload.run(lib, inp, outdir)
    except OpTimeout:
        rec["problems"].append(f"op ran past its {workload.cap_s} s cap")
    except Exception:  # the loop must go on; the op counts as failed
        rec["problems"].append(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1, cpu1, kids1 = time.perf_counter(), time.process_time(), os.times()
        signal.signal(signal.SIGALRM, old)
        if tracer is not None:
            tracer.uninstall()
            rec["span_range"][1] = len(tracer.spans)
    rec["wall_s"] = t1 - t0
    rec["cpu_s"] = (cpu1 - cpu0) + (kids1.children_user - kids0.children_user) + (
        kids1.children_system - kids0.children_system)
    if not rec["problems"]:
        try:
            rec["problems"] = workload.check(lib, inp, result, outdir)
        except Exception:
            rec["problems"] = [traceback.format_exc()]
    rec["failed"] = bool(rec["problems"])
    rec["artifacts"] = {}
    rec["artifact_bytes"] = 0
    for path in workload.artifacts(outdir):
        if os.path.exists(path):
            rec["artifacts"][os.path.basename(path)] = sha256_file(path)
            rec["artifact_bytes"] += os.path.getsize(path)
    if result is not None and hasattr(workload, "result_bytes"):
        rec["artifacts"]["values"] = hashlib.sha256(workload.result_bytes(result)).hexdigest()
    return rec


def run_loop(workload, lib, seed, seconds, outdir, tracer=None, started=None) -> list[dict]:
    """Closed loop: one op at a time until `seconds` have passed (at least one)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    started = time.perf_counter() if started is None else started
    loop_start = time.perf_counter()
    ops = []
    rounds = 0
    while True:
        inp = workload.draw(rng)
        ops.append(run_op(workload, lib, inp, outdir))
        if tracer is not None:
            ops.append(run_op(workload, lib, inp, outdir, tracer))
        rounds += 1
        now = time.perf_counter()
        if now - loop_start >= seconds:
            break
        # keep the whole process inside its time limit even if the next
        # round is as slow as the average one plus an op that hits its cap
        if now - started + (now - loop_start) / rounds + workload.cap_s > HARD_LIMIT_S:
            break
    return ops


def layer_report(ops, tracer, setup_imports) -> dict:
    """Per-layer metrics of the traced op with the median traced wall time."""
    from spans import layer_metrics

    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    walls = [op["wall_s"] for op in traced]
    pick = traced[walls.index(statistics.median_low(walls))]
    lo, hi = pick["span_range"]
    spans = tracer.spans[lo:hi]
    metrics = layer_metrics(spans)
    total_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    metrics["trace.wall_s"] = pick["wall_s"]
    metrics["trace.unattributed_s"] = pick["wall_s"] - total_self
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(
        op["wall_s"] for op in untraced)
    metrics["cli.import_s"] = statistics.median(setup_imports)
    metrics["cli.artifact_bytes"] = pick["artifact_bytes"]
    return metrics


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def summarize(ops, metrics) -> dict:
    """The result line: failed ops against attempted ones, metrics with units."""
    failed = sum(op["failed"] for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    process_start = time.perf_counter()
    args = parse_args(argv)
    root = os.getcwd()
    src = source_dir(root)
    if args.probe:
        probe(args, src)
        return 0
    loadavg = os.getloadavg()
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    from spans import Tracer
    from workloads import WORKLOADS, load_library

    lib = load_library()
    if not os.path.abspath(lib.cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"error: imported tricomilab from {lib.cli.__file__}, not {src}")
    meta = run_metadata(root, loadavg)
    meta["cpu_probe_s"] = [cpu_probe_s()]
    setup_walls, setup_imports = measure_setup(args, root, 1 if args.smoke else PROBES)

    outdir = os.path.join(root, ".bench_build", "perfbench",
                          f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    workload = WORKLOADS[args.workload](args.smoke)
    tracer = Tracer(vars(lib)) if args.trace else None
    ops = run_loop(workload, lib, args.seed, args.seconds, outdir, tracer, process_start)
    meta["cpu_probe_s"].append(cpu_probe_s())

    untraced = [op for op in ops if not op["traced"]]
    if args.trace:
        metrics = layer_report(ops, tracer, setup_imports)
        tracer.dump(os.path.join(outdir, "spans.jsonl"))
    else:
        metrics = {
            "wall_s": statistics.median(op["wall_s"] for op in untraced),
            "cpu_s": statistics.median(op["cpu_s"] for op in untraced),
            "setup_s": statistics.median(setup_walls),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = summarize(ops, metrics)
    failed = result["failed"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "meta": meta,
        "setup": {"walls_s": setup_walls, "import_s": setup_imports},
        "ops": [{k: v for k, v in op.items() if k != "span_range"} for op in ops],
        "result": result,
    }
    report_path = os.path.join(outdir, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(ops)} ops, {failed} failed; report in {os.path.relpath(report_path, root)}")
    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED op: {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
