"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with the working directory set to an empty run
directory and ``PYTHONPATH`` pointing at the checkout's ``src``.  The program
writes its outputs to ``out/``; this script writes ``child.json`` next to it
with the set-up timestamp, the per-operation checks, the output hashes and,
when traced, the per-layer numbers (spans go to ``spans.json``).

Modes:
  run      the whole workload
  setup    stop right before the first solver call (set-up time only)
  warmup   set-up plus one small ground solve (fills caches, writes .pyc)
  kernels  kernel rows of grid.laplacian_array and energy.prox_f1
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SWEEP_EPS = (0.4, 0.2, 0.1, 0.05)
SMALL_EPS = 0.03
EPS_KEYS = SWEEP_EPS + (SMALL_EPS,)
REFINE_N = (65, 135, 269)
M_RELERR_LIMIT = 0.02  # the acceptance suite's bound on |J - m(c0)| / m(c0)
FLAGS = ("constrained_gap", "sup_below_two_m", "boundary_radius_found", "theta_above_half_gap", "sandwich")


class SetupDone(Exception):
    """Raised at the first solver call in ``setup`` mode."""


def first_call_stamp(fn, state: dict, stop: bool):
    """Record the monotonic time of the first call to fn (the end of set-up)."""

    def stamped(*args, **kwargs):
        if "setup_end_ns" not in state:
            state["setup_end_ns"] = time.monotonic_ns()
            if stop:
                raise SetupDone
        return fn(*args, **kwargs)

    return stamped


def sha256_tree(root: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# certificate rows (sweep_default, cert_small_eps)
# ---------------------------------------------------------------------------

def solver_spacing(cli) -> float:
    """Spacing of the solver grid certificate() builds from the default config."""
    c = cli.DEFAULT_CONFIG["certificate"]
    half, h_target = c["solver_half_extent"], c["h_target"]
    n = max(17, int(round(2.0 * half / h_target)) + 1)
    n += 1 - n % 2
    return 2.0 * half / (n - 1)


def check_rows(rows: list, spacing: float) -> tuple[list, dict]:
    ops = []
    violations = 0
    m_relerr = 0.0
    for row in rows:
        why = [f"flag {f} false" for f in FLAGS if not row["flags"].get(f)]
        if row["inconclusive"]:
            why.append(f"inconclusive {sorted(row['inconclusive'])}")
        m_c0, d = float(row["m_c0"]), float(row["D_eps_estimate"])
        sup_x, theta = float(row["sup_X_J"]), float(row["theta_r_estimate"])  # NaN is written as "nan"
        allowance = 1e-6 + m_c0 * spacing**2  # the allowance certificate() itself applies
        if not d >= m_c0 - allowance:
            why.append(f"D_eps {d!r} below m_c0 - allowance {m_c0 - allowance!r}")
        if row["m_c0_numerical"] is not None:
            m_relerr = abs(row["m_c0_numerical"] - m_c0) / m_c0
            if not m_relerr <= M_RELERR_LIMIT:
                why.append(f"m_relerr {m_relerr!r} above {M_RELERR_LIMIT}")
        # strict orderings with no allowance, so the known defects show
        violations += int(not m_c0 <= d)
        violations += int(not d <= sup_x)
        violations += int(not d <= theta)
        ops.append({"op": f"certificate eps={row['eps']!r}", "ok": not why, "why": why})
    return ops, {"m_relerr": m_relerr, "ordering_violations": violations}


def run_cli_workload(argv: list, config: dict, result_file: str, stamp_name: str, state: dict, stop: bool) -> tuple:
    import lognls.cli as cli

    with open("config.json", "w", encoding="ascii") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    setattr(cli, stamp_name, first_call_stamp(getattr(cli, stamp_name), state, stop))
    rc = cli.main(argv + ["--config", "config.json"])
    rows = []
    if rc == 0:
        with open(os.path.join("out", result_file), encoding="ascii") as fh:
            data = json.load(fh)
        rows = data if isinstance(data, list) else [data]
    return rc, rows, solver_spacing(cli)


def sweep_default(seed: int, state: dict, stop: bool):
    config = {"sweep": {"seed": seed}, "output": {"directory": "out"}}
    rc, rows, spacing = run_cli_workload(["sweep-eps"], config, "sweep_eps.json", "sweep_eps", state, stop)
    return rc, rows, spacing, len(SWEEP_EPS)


def cert_small_eps(seed: int, state: dict, stop: bool):
    config = {
        "sweep": {"seed": seed},
        "certificate": {"compute_numerical_m": False},
        "output": {"directory": "out"},
    }
    rc, rows, spacing = run_cli_workload(
        ["saddle-cert", "--eps", repr(SMALL_EPS)], config, f"certificate_eps_{SMALL_EPS:g}.json", "certificate", state, stop
    )
    return rc, rows, spacing, 1


# ---------------------------------------------------------------------------
# ground_refine: no random input, the seed does not change it
# ---------------------------------------------------------------------------

def ground_refine(state: dict, stop: bool, sizes=REFINE_N) -> tuple[list, dict]:
    # import_module, not attribute access: lognls.energy is shadowed by the function energy
    nehari = importlib.import_module("lognls.nehari")
    grids = [importlib.import_module("lognls.grid").Grid(2, 10.0, n) for n in sizes]
    params = importlib.import_module("lognls.energy").SplitParams()
    solver = nehari.SolverConfig(tol=1e-6, max_iters=4000)
    m_c0 = nehari.m_closed_form(1.0, 2)
    state["setup_end_ns"] = time.monotonic_ns()
    if stop:
        raise SetupDone

    ops, records = [], []
    m_relerr = 0.0
    for grid in grids:
        sol = nehari.ground_state(grid, 1.0, 1.0, params, solver)
        m_relerr = abs(sol.energy - m_c0) / m_c0
        why = [] if sol.converged else ["not converged"]
        if not m_relerr <= M_RELERR_LIMIT:
            why.append(f"m_relerr {m_relerr!r} above {M_RELERR_LIMIT}")
        ops.append({"op": f"ground_state n={grid.points_per_axis}", "ok": not why, "why": why})
        records.append(
            {
                "n": grid.points_per_axis,
                "energy": repr(sol.energy),
                "nehari_residual": repr(sol.nehari_residual),
                "iterations": sol.iterations,
                "converged": sol.converged,
                "field_sha256": hashlib.sha256(sol.field.values.tobytes()).hexdigest(),
            }
        )
    os.makedirs("out", exist_ok=True)
    with open(os.path.join("out", "ground_refine.json"), "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=1)
    return ops, {"m_relerr": m_relerr, "ordering_violations": 0}


def run_workload(workload: str, seed: int, state: dict, stop: bool) -> dict:
    if workload == "ground_refine":
        ops, facts = ground_refine(state, stop)
        return {"rc": 0, "ops": ops, "expected_ops": len(REFINE_N), **facts}
    fn = sweep_default if workload == "sweep_default" else cert_small_eps
    rc, rows, spacing, expected = fn(seed, state, stop)
    ops, facts = check_rows(rows, spacing)
    return {"rc": rc, "ops": ops, "expected_ops": expected, **facts}


# ---------------------------------------------------------------------------
# kernel rows
# ---------------------------------------------------------------------------

def _median_time(fn, min_total_s: float = 0.15, repeats: int = 5) -> tuple[float, int]:
    """Median seconds per call over ``repeats`` batches of at least min_total_s."""
    fn()
    t = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t, 1e-7)
    batch = max(1, int(min_total_s / once))
    per_call = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(batch):
            fn()
        per_call.append((time.perf_counter() - t) / batch)
    per_call.sort()
    return per_call[len(per_call) // 2], batch * repeats


def kernel_rows(seed: int) -> dict:
    """Timed laplacian_array and prox_f1 on seeded 2D fields at each n.

    Operation counts and bytes are computed from the array sizes, not
    measured: the laplacian does 6 n^2 - 4 n flops (scale, four neighbour
    adds, divide by h^2) and must read and write the n^2 field once
    (16 n^2 bytes); prox_f1 does one Newton/bisection pass over every node
    per f1_prime call and must read and write its field once.
    """
    from tracing import Tracer

    grid_mod = importlib.import_module("lognls.grid")
    energy_mod = importlib.import_module("lognls.energy")
    rng = np.random.default_rng(seed)
    params = energy_mod.SplitParams()
    rows = {}
    for n in REFINE_N:
        grid = grid_mod.Grid(2, 10.0, n)
        nodes = grid.num_nodes
        field = rng.standard_normal(nodes)
        lap_s, lap_calls = _median_time(lambda: grid_mod.laplacian_array(grid, field))
        # prox input: magnitudes spanning both branches of F1 (|s| < delta and beyond)
        v = rng.standard_normal(nodes) * np.exp(rng.uniform(-6.0, 1.0, nodes))
        prox_s, prox_calls = _median_time(lambda: energy_mod.prox_f1(v, 0.1, params), min_total_s=0.3, repeats=3)
        tracer = Tracer(f"kernels-n{n}")
        tracer.install()
        try:
            energy_mod.prox_f1(v, 0.1, params)
        finally:
            tracer.uninstall()
        passes = sum(1 for s in tracer.spans if s[0] == "energy.f1_prime")
        rows[n] = {
            "field_bytes": 8 * nodes,
            "grid.laplacian.us_per_call": lap_s * 1e6,
            "grid.laplacian.timed_calls": lap_calls,
            "grid.laplacian.flop_computed": 6 * n * n - 4 * n,
            "grid.laplacian.bytes_computed": 16 * nodes,
            "energy.prox_f1.ns_per_node": prox_s * 1e9 / nodes,
            "energy.prox_f1.timed_calls": prox_calls,
            "energy.prox_f1.node_passes": passes * nodes,
            "energy.prox_f1.bytes_computed": 16 * nodes,
        }
    return rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "setup", "warmup", "kernels"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    state: dict = {}
    import lognls

    if os.path.dirname(os.path.abspath(lognls.__file__)) != os.path.join(SRC, "lognls"):
        print(f"lognls imported from {lognls.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    out: dict = {}
    if args.mode == "kernels":
        out["kernels"] = kernel_rows(args.seed)
    elif args.mode == "warmup":
        ground_refine(state, stop=False, sizes=(REFINE_N[0],))
    else:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(f"{args.workload}-seed{args.seed}")
            tracer.install()
        try:
            out.update(run_workload(args.workload, args.seed, state, stop=args.mode == "setup"))
        except SetupDone:
            pass
        finally:
            if tracer is not None:
                tracer.uninstall()
        if args.mode == "run":
            out["output_sha256"] = sha256_tree("out") if os.path.isdir("out") else {}
        if tracer is not None:
            from tracing import layer_metrics

            out["layers"] = layer_metrics(tracer.spans, EPS_KEYS, REFINE_N)
            with open("spans.json", "w", encoding="ascii") as fh:
                json.dump(tracer.dump(), fh, separators=(",", ":"))
    out.update(state)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("child.json", "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
