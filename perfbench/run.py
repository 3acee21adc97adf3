"""Benchmark of the lognls certificate pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every run of the program is a fresh child
process (``child.py``) with one worker thread: LOGNLS_NUM_THREADS and the
OpenBLAS/OpenMP/MKL thread counts are pinned to 1.  One warm-up child runs
first.  Runs repeat, closed loop, until the next one would end after
``--seconds``; at least two are made so their outputs can be compared.

--trace 0 prints the end-to-end metrics: median wall time per run, set-up
time (median over the runs plus set-up-only children) and peak RSS.  --trace 1 makes the same untraced runs, then one traced run that
records spans around every public function of the layer modules, then the
kernel rows, and prints the per-layer metrics.

Every run's outputs are checked (exit code, the five certificate flags, the
numerical m(c0) within 2% of the closed form, D_eps above m(c0) less the
code's allowance, identical output hashes across runs of one seed); an
operation (a certificate row or a ground solve) that fails any check counts
in ``failed``.  The last line of standard output is one JSON object.  The
full report, and the spans of a traced run, are written under
``perfbench/.work/``.  BENCHMARK.json must declare exactly the workloads and
metrics below; design.json holds the reasons and predictions behind them.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
WORK = os.path.join(BENCH, ".work")

WORKLOADS = ("sweep_default", "ground_refine", "cert_small_eps")
THREAD_ENV = {
    "LOGNLS_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_ONLY_CHILDREN = 9
MIN_RUNS = 2
CHILD_TIMEOUT_S = 120

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_N = (65, 135, 269)
_EPS = ("0.4", "0.2", "0.1", "0.05", "0.03")
PER_LAYER = (
    [
        ("grid.laplacian.calls", "count", "lower"),
        ("grid.laplacian.self_s", "s", "lower"),
        ("grid.laplacian.calls_per_iter", "ratio", "lower"),
    ]
    + [(f"grid.laplacian.us_per_call.n{n}", "us", "lower") for n in _N]
    + [(f"grid.laplacian.flop_computed.n{n}", "flop", "lower") for n in _N]
    + [(f"grid.laplacian.bytes_computed.n{n}", "B", "lower") for n in _N]
    + [
        ("grid.integrate.calls", "count", "lower"),
        ("grid.integrate.self_s", "s", "lower"),
        ("energy.potential_samples.calls", "count", "lower"),
        ("energy.potential_samples.self_s", "s", "lower"),
    ]
    + [(f"energy.prox_f1.ns_per_node.n{n}", "ns", "lower") for n in _N]
    + [(f"energy.prox_f1.node_passes.n{n}", "count", "lower") for n in _N]
    + [(f"energy.prox_f1.bytes_computed.n{n}", "B", "lower") for n in _N]
    + [
        ("nehari.minimize.calls", "count", "lower"),
        ("nehari.minimize.iterations", "count", "lower"),
        ("nehari.minimize.self_s", "s", "lower"),
    ]
    + [(f"nehari.ground_state.iterations.n{n}", "count", "lower") for n in _N]
    + [
        ("potential.evaluate.nodes", "count", "lower"),
        ("potential.evaluate.self_s", "s", "lower"),
        ("minimax.level_d.s", "s", "lower"),
        ("minimax.level_d.stage_iters", "count", "lower"),
        ("minimax.theta_r_estimate.s", "s", "lower"),
        ("minimax.theta_r_estimate.candidates", "count", "lower"),
        ("minimax.theta_r_estimate.n_feasible", "count", "higher"),
        ("minimax.theta_r_estimate.feasible_ratio", "ratio", "higher"),
        ("minimax.theta_r_estimate.rss_mb", "MB", "lower"),
        ("minimax.phi_path.calls", "count", "lower"),
        ("minimax.phi_path.self_s", "s", "lower"),
        ("minimax.phi_path.failed", "count", "lower"),
        ("minimax.choose_r.s", "s", "lower"),
        ("minimax.level_sup_x.s", "s", "lower"),
    ]
    + [(f"minimax.certificate.s.eps{e}", "s", "lower") for e in _EPS]
    + [(f"minimax.path_grid.nodes.eps{e}", "count", "lower") for e in _EPS]
    + [
        ("cli.config_s", "s", "lower"),
        ("cli.write_s", "s", "lower"),
        ("cli.output_bytes", "B", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("check.m_relerr", "ratio", "lower"),
        ("check.ordering_violations", "count", "lower"),
        ("check.fail_ratio", "ratio", "lower"),
    ]
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def preflight() -> None:
    if not os.path.isfile(os.path.join(SRC, "lognls", "__init__.py")):
        raise BenchError(f"no lognls sources under {SRC}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read BENCHMARK.json: {err}") from err
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    }
    emitted = {"workloads": list(WORKLOADS), "end_to_end": END_TO_END, "per_layer": PER_LAYER}
    for key, want in emitted.items():
        if declared[key] != want:
            raise BenchError(f"BENCHMARK.json {key} do not match what run.py measures")


def environment(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    l3 = "unknown"
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            l3 = fh.read().strip()
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "pinned_env": THREAD_ENV,
    }


def spawn(workdir: str, name: str, workload: str, seed: int, mode: str, trace: int = 0) -> dict:
    """Run child.py once; wall time is measured from just before the spawn."""
    rundir = os.path.join(workdir, name)
    os.makedirs(rundir)
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    argv = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--mode", mode, "--trace", str(trace)]
    with open(os.path.join(rundir, "stdout.txt"), "wb") as out, open(os.path.join(rundir, "stderr.txt"), "wb") as err:
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=rundir, env=env, stdout=out, stderr=err)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        end_ns = time.monotonic_ns()
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime)
    child = None
    if rc == 0:
        with open(os.path.join(rundir, "child.json"), encoding="utf-8") as fh:
            child = json.load(fh)
    else:
        with open(os.path.join(rundir, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        print(f"child {name} ({mode}) exited with {rc}:\n{tail}", file=sys.stderr)
    setup_s = None
    if child is not None and "setup_end_ns" in child:
        setup_s = (child["setup_end_ns"] - spawn_ns) / 1e9
    return {"name": name, "rc": rc, "wall_s": (end_ns - spawn_ns) / 1e9, "cpu_s": cpu_s, "setup_s": setup_s, "child": child}


def timed_runs(workdir: str, workload: str, seed: int, seconds: float) -> list[dict]:
    """Closed loop of untraced runs until the next one would overrun ``seconds``."""
    runs: list[dict] = []
    start = time.monotonic()
    while True:
        runs.append(spawn(workdir, f"run{len(runs)}", workload, seed, "run"))
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] for r in runs)
        if len(runs) >= MIN_RUNS and elapsed + typical > seconds:
            return runs


def check_runs(runs: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over all runs of one seed."""
    expected = next((r["child"]["expected_ops"] for r in runs if r["child"] and "expected_ops" in r["child"]), 1)
    reference = next((r["child"]["output_sha256"] for r in runs if r["child"] and r["child"].get("rc") == 0), None)
    attempted = failed = 0
    messages = []
    for r in runs:
        attempted += expected
        child = r["child"]
        if child is None or child.get("rc") != 0:
            failed += expected
            messages.append(f"{r['name']}: exit code {r['rc'] if child is None else child.get('rc')}")
            continue
        if child["output_sha256"] != reference:
            failed += expected
            messages.append(f"{r['name']}: outputs differ from the first run of this seed")
            continue
        bad = [op for op in child["ops"] if not op["ok"]]
        failed += len(bad) + max(0, expected - len(child["ops"]))
        messages += [f"{r['name']}: {op['op']}: {'; '.join(op['why'])}" for op in bad]
    return attempted, failed, messages


def main() -> int:
    ap = argparse.ArgumentParser(description="lognls benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        preflight()
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    # the program's seed is a 32-bit sweep.seed; any --seed value maps onto it
    seed = args.seed % 2**32
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = environment(args.workload, args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))

    spawn(workdir, "warmup", args.workload, seed, "warmup")
    runs = timed_runs(workdir, args.workload, seed, args.seconds)
    if all(r["child"] is None for r in runs):
        print("perfbench: no run of the program completed, nothing was measured", file=sys.stderr)
        return 1
    walls = sorted(r["wall_s"] for r in runs)
    metrics: dict[str, float] = {}
    report: dict = {"environment": env, "runs": runs}

    if args.trace == 0:
        setups = [spawn(workdir, f"setup{k}", args.workload, seed, "setup") for k in range(SETUP_ONLY_CHILDREN)]
        setup_samples = [r["setup_s"] for r in setups + runs if r["setup_s"] is not None]
        report["setup_runs"] = setups
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(r["child"]["maxrss_kb"] / 1024.0 for r in runs if r["child"]),
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        traced = spawn(workdir, "traced", args.workload, seed, "run", trace=1)
        kernels = spawn(workdir, "kernels", args.workload, seed, "kernels")
        runs = runs + [traced]
        report["kernels"] = kernels
        if traced["child"] is None or kernels["child"] is None:
            print("perfbench: the traced run or the kernel rows failed", file=sys.stderr)
            return 1
        metrics.update(traced["child"]["layers"])
        for n, row in kernels["child"]["kernels"].items():
            for key, value in row.items():
                metrics[f"{key}.n{n}"] = value
        untraced = statistics.median(walls)
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced
        units = {name: unit for name, unit, _ in PER_LAYER}

    attempted, failed, messages = check_runs(runs)
    facts = next((r["child"] for r in runs if r["child"] and "m_relerr" in r["child"]), {})
    metrics["check.m_relerr"] = facts.get("m_relerr", float("nan"))
    metrics["check.ordering_violations"] = facts.get("ordering_violations", float("nan"))
    metrics["check.fail_ratio"] = failed / attempted

    # fewer than 11 runs fit in a run of --seconds, so no percentile has ten
    # runs beyond it: the highest wall time is printed with the run count
    print(f"untraced runs: {len(walls)}, wall s: {', '.join(f'{w:.4f}' for w in walls)} (highest {walls[-1]:.4f})")
    print(
        f"checks: attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.4g}, "
        f"m_relerr {metrics['check.m_relerr']:.6g}, ordering_violations {metrics['check.ordering_violations']}"
    )
    for msg in messages:
        print(f"  FAILED {msg}")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    report.update(metrics=metrics, attempted=attempted, failed=failed, messages=messages)
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
