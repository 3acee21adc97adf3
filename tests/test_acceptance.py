"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion; tolerances are fixed here, not tuned elsewhere.
"""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from lognls.cli import main
from lognls.energy import SplitParams, energy, f1, f2
from lognls.grid import Grid, GridField, integrate_array
from lognls.minimax import (
    level_d,
    level_sup_x,
    path_levels,
    _odd_points,
)
from lognls.nehari import SolverConfig, gausson, ground_state, m_closed_form
from lognls.hypotheses import check_V4
from lognls.oracles import (
    barycenter,
    barycenter_zero_finder,
    grad_L2,
    log_sobolev_slack,
    nehari_scale,
    phi_path,
    sq_log_sq,
)
from lognls.potential import constant_potential, model_saddle

from conftest import smooth_field

PARAMS = SplitParams()
SADDLE = model_saddle(1.0, 1.25, 2, (0,), 0.5)
EPS_SWEEP = (0.4, 0.2, 0.1, 0.05)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_splitting_identity():
    mags = np.geomspace(1e-8, 10.0, 5000)
    s = np.concatenate([mags, -mags])
    worst = 0.0
    for delta in (0.05, 0.1, 0.2):
        params = SplitParams(delta=delta)
        err = np.max(np.abs(f2(s, params) - f1(s, params) - 0.5 * sq_log_sq(s)))
        worst = max(worst, float(err))
    report("1", worst <= 1e-12, f"max |f2-f1 - s^2 log(s^2)/2| = {worst:.3e} over 10^4 points")


def test_criterion_02_gausson_oracle_1d():
    g = Grid(1, 10.0, 512)
    sol = ground_state(g, 0.0, 1.0, config=SolverConfig(tol=1e-8, max_iters=20000))
    m = 0.5 * math.e * math.sqrt(math.pi)
    rel = abs(sol.energy - m) / m
    report("2 (1D)", rel <= 1e-12, f"energy {sol.energy:.6f} vs {m:.6f}, rel {rel:.2e}")


def test_criterion_02_gausson_oracle_2d():
    g = Grid(2, 7.0, 128)
    sol = ground_state(g, 0.0, 1.0, config=SolverConfig(tol=1e-8, max_iters=20000))
    m = 0.5 * math.e**2 * math.pi
    rel = abs(sol.energy - m) / m
    report("2 (2D)", rel <= 1e-12, f"energy {sol.energy:.6f} vs {m:.6f}, rel {rel:.2e}")


def test_criterion_03_residual_convergence():
    # the sine-spectral operator resolves the Gausson, so its residual sits
    # at the rounding floor on every grid, not at an O(h^2) error
    errs = []
    for n in (129, 257, 513):  # h, h/2, h/4
        g = Grid(1, 10.0, n)
        res = grad_L2(gausson(g, 0.0), 0.0, 1.0, PARAMS).values
        errs.append(float(np.max(np.abs(res))))
    ok = all(e <= 1e-10 for e in errs)
    report("3", ok, f"residuals {errs} at n = 129, 257, 513, each at most 1e-10")


def test_criterion_04_nehari_identities(rng):
    g = Grid(1, 10.0, 257)
    worst = {"scale": 0.0, "identity": 0.0, "compensation": 0.0, "fiber": 0.0}
    for _ in range(100):
        u = smooth_field(g, rng, positive=True)
        t = nehari_scale(u, 0.3, 1.0)

        def fiber(tt, u=u):
            eb = energy(GridField(g, tt * u.values), 0.3, 1.0, PARAMS)
            return eb["pairing_JprimeU"] / tt**2

        t_root = brentq(fiber, t * math.exp(-2), t * math.exp(2), xtol=1e-14, rtol=1e-13)
        worst["scale"] = max(worst["scale"], abs(t - t_root) / t)

        proj = GridField(g, t * u.values)
        eb = energy(proj, 0.3, 1.0, PARAMS)
        worst["identity"] = max(worst["identity"], abs(eb["J"] - eb["half_mass"]) / max(abs(eb["J"]), 1e-30))

        for c in (0.1, 2.0, 10.0):
            tc = nehari_scale(GridField(g, c * u.values), 0.3, 1.0)
            worst["compensation"] = max(worst["compensation"], abs(tc * c - t) / t)

        eb_u = energy(u, 0.3, 1.0, PARAMS)
        fiber_level = (2 * math.log(t) + 1) / 2 * (2 * eb_u["half_mass"])
        worst["fiber"] = max(worst["fiber"], abs(eb_u["J"] - fiber_level) / max(abs(eb_u["J"]), 1e-30))

    ok = (
        worst["scale"] <= 1e-10
        and worst["identity"] <= 1e-8
        and worst["compensation"] <= 1e-12
        and worst["fiber"] <= 1e-10
    )
    report("4", ok, f"worst relative errors {worst}")


def test_criterion_05_log_sobolev(rng):
    g = Grid(1, 10.0, 511)  # n + 1 = 512: a power-of-two transform
    a_values = np.geomspace(0.2, 5.0, 19).tolist() + [math.sqrt(math.pi) / 2]  # includes a^2/pi = 1/4
    worst = math.inf
    for _ in range(100):
        u = smooth_field(g, rng, n_bumps=3)
        mass = integrate_array(g, u.values**2)
        u = GridField(g, u.values / math.sqrt(mass))
        for a in a_values:
            worst = min(worst, log_sobolev_slack(u, a))
    report("5", worst >= -1e-8, f"min slack over 100 fields x 20 a values = {worst:.3e}")


@pytest.fixture(scope="module")
def barycenter_sweep_data():
    directions = [
        2.0 * np.array([math.cos(2 * math.pi * k / 8), math.sin(2 * math.pi * k / 8)])
        for k in range(8)
    ]
    discrepancies = {}
    inners = {}
    for eps in EPS_SWEEP:
        half = 2.0 / eps + 6.0
        g = Grid(2, half, _odd_points(half, 0.4))
        ds, ins = [], []
        for z in directions:
            f = phi_path(g, SADDLE, eps, z)
            b = barycenter(f)
            ds.append(float(np.linalg.norm(b - z / np.linalg.norm(z))))
            ins.append(float(np.dot(b, z)))
        discrepancies[eps] = ds
        inners[eps] = ins
    return discrepancies, inners


def test_criterion_06_barycenter_limit(barycenter_sweep_data):
    discrepancies, _ = barycenter_sweep_data
    monotone = all(
        discrepancies[e2][k] <= discrepancies[e1][k] + 1e-12
        for e1, e2 in zip(EPS_SWEEP, EPS_SWEEP[1:])
        for k in range(8)
    )
    final = max(discrepancies[0.05])
    ok = monotone and final <= 0.1
    report("6", ok, f"monotone={monotone}, max |beta - z/|z|| at eps=0.05: {final:.5f}")


def test_criterion_07_sign_condition(barycenter_sweep_data):
    _, inners = barycenter_sweep_data
    bound = 2.0 / 2 - 0.05
    worst = min(inners[0.05])
    minima = {eps: min(inners[eps]) for eps in EPS_SWEEP}
    # the first direction is the X axis: for a radial translate the inner
    # product approaches |z| = 2
    aligned = inners[0.1][0]
    ok = worst >= bound and all(m > 0 for m in minima.values()) and abs(aligned - 2.0) <= 2e-3
    report("7", ok, f"min (beta, z) per eps {minima} (>= {bound} at 0.05); on the X axis at eps=0.1: {aligned:.6f}")


def test_criterion_08_level_separation():
    g = Grid(2, 10.0, _odd_points(10.0, 0.4))
    m = m_closed_form(SADDLE.c0, 2)
    solver = SolverConfig(tol=1e-6, max_iters=3000)
    sigmas = []
    d_values = []
    for eps in EPS_SWEEP:
        res = level_d(g, SADDLE, eps, solver=solver)
        d_values.append(res.value)
        sigmas.append(res.value - m)
    nondecreasing = all(s2 >= s1 - 1e-9 for s1, s2 in zip(sigmas, sigmas[1:]))
    ok = (
        sigmas[-1] > 0
        and nondecreasing
        and all(d >= m - 1e-6 for d in d_values)
    )
    report("8", ok, f"sigma over eps sweep: {[round(s, 4) for s in sigmas]}")


def test_criterion_09_upper_level():
    eps = 0.05
    half = min(60.0, 1.0 / eps + 6.0)
    g = Grid(2, half, _odd_points(half, 0.4))
    rep = level_sup_x(g, SADDLE, eps, -math.inf, path_levels(g, SADDLE, eps, np.zeros((1, 2)))[0])
    two_m = 2 * m_closed_form(SADDLE.c0, 2)
    ok = rep["value"] <= rep["cap"] + 1e-3 and rep["value"] < two_m
    report("9", ok, f"sup_X J = {rep['value']:.4f}, cap = {rep['cap']:.4f}, 2m = {two_m:.4f}")


def test_criterion_10_degree_evidence():
    eps = 0.05
    half = min(60.0, 1.0 / eps + 6.0)
    g = Grid(2, half, _odd_points(half, 0.15))
    res = barycenter_zero_finder(g, SADDLE, eps, R=1.0)
    ok = (
        not res["inconclusive"]
        and abs(res["x_star"][0]) <= 2 * g.spacing
        and res["degree_evidence"]["degree_one"]
    )
    report("10", ok, f"x* = {res['x_star']}, boundary = {res['degree_evidence']}")


def test_criterion_11_hypothesis_auditor(rng):
    rep = check_V4(SADDLE)
    model_ok = rep["ineq2"] and not rep["ineq1_m_based"] and not rep["ineq1_log2_based"]
    agree = True
    for _ in range(100):
        c0 = rng.uniform(-0.9, 3.0)
        v0 = rng.uniform(-0.9, 4.0)
        spec = constant_potential(c0, 2, (0,), 0.5)
        r = check_V4(spec, v_at_origin=v0)
        agree = agree and (r["ineq1_m_based"] == r["ineq1_log2_based"])
    report("11", model_ok and agree, f"model: ineq2={rep['ineq2']}, ineq1={rep['ineq1_m_based']}; paths agree on 100 pairs: {agree}")


def test_criterion_12_sweep_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {
        "grid": {"dim": 2, "half_extent": 7.0, "points_per_axis": 33},
        "solver": {"tol": 1e-3, "max_iters": 1},
        "sweep": {"eps": [0.4, 0.2], "seed": 7},
        "certificate": {
            "h_target": 0.5,
            "solver_half_extent": 6.0,
            "compute_numerical_m": False,
        },
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    # one solver iteration stalls the D_eps descent: every row is
    # inconclusive and the sweep exits with 4 after writing all of them
    assert main(["sweep-eps", "--config", str(path)]) == 4
    first = (tmp_path / "out" / "sweep_eps.csv").read_bytes()
    assert len(first.splitlines()) == 3
    assert main(["sweep-eps", "--config", str(path)]) == 4
    second = (tmp_path / "out" / "sweep_eps.csv").read_bytes()
    capsys.readouterr()
    report("12", first == second, f"rerun CSV identical: {first == second} ({len(first)} bytes)")
