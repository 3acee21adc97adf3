import inspect
import math

import numpy as np
import pytest

from lognls.energy import SplitParams, potential_samples
from lognls.grid import Grid, GridField, build_grid
import lognls.minimax as minimax_mod
from lognls.minimax import (
    CertificateConfig,
    _BarycenterPenalty,
    barycenter,
    barycenter_zero_finder,
    certificate,
    choose_r,
    direction_weights,
    eps_norm_sq,
    level_d,
    level_sup_x,
    phi_path,
    sign_condition,
    sweep_eps,
    theta_r_estimate,
    _odd_points,
)
from lognls.energy import energy
from lognls.nehari import NehariSolution, SolverConfig, gausson, m_closed_form, nehari_scale, project_nehari
from lognls.potential import constant_potential, model_saddle

from conftest import smooth_field

PARAMS = SplitParams()
SADDLE = model_saddle(1.0, 1.25, 2, (0,), 0.5)
CONST = constant_potential(1.0, 2, (0,), 0.5)


def path_grid(eps, R=2.0, h=0.15):
    half = max(10.0, R / eps + 6.0)
    return Grid(2, half, _odd_points(half, h))


def test_barycenter_radial_is_zero():
    g = build_grid(2, 7.0, 65)
    b = barycenter(gausson(g, 0.5))
    assert np.max(np.abs(b)) < 1e-14


def test_barycenter_scale_invariant(rng):
    g = build_grid(2, 7.0, 65)
    u = smooth_field(g, rng, positive=True)
    b = barycenter(u)
    b2 = barycenter(GridField(g, 2.0 * u.values))  # power of two: bit-exact
    assert np.array_equal(b, b2)
    b3 = barycenter(GridField(g, 0.37 * u.values))
    assert np.allclose(b3, b, rtol=1e-13, atol=1e-15)


def test_barycenter_reflection_equivariance(rng):
    g = build_grid(2, 7.0, 65)
    u = smooth_field(g, rng, positive=True)
    flipped = GridField(g, u.reshaped()[::-1, :].ravel())
    b, bf = barycenter(u), barycenter(flipped)
    assert bf[0] == pytest.approx(-b[0], rel=1e-12, abs=1e-14)
    assert bf[1] == pytest.approx(b[1], rel=1e-12, abs=1e-14)


def test_barycenter_rejects_zero(grid_2d):
    with pytest.raises(ValueError):
        barycenter(GridField(grid_2d, np.zeros(grid_2d.num_nodes)))


def test_phi_path_moving_frame_matches_translated_reference():
    # a lattice shift z = eps k h: the reference moves the profile over the
    # centered grid, the path moves the frame; both see the same nodes
    eps = 0.3
    g = Grid(2, 10.0, _odd_points(10.0, 0.15))
    z = np.array([eps * 7 * g.spacing, 0.0])
    u0 = gausson(g, SADDLE.c0)
    moving = phi_path(u0, z, eps, SADDLE)
    assert moving.grid.center == tuple(z / eps)
    reference = project_nehari(gausson(g, SADDLE.c0, center=z / eps), SADDLE, eps)
    j_moving = energy(moving, SADDLE, eps, PARAMS).J
    j_reference = energy(reference, SADDLE, eps, PARAMS).J
    assert abs(j_moving - j_reference) <= 1e-12 * abs(j_reference)
    b_moving, b_reference = barycenter(moving), barycenter(reference)
    assert np.linalg.norm(b_moving - b_reference) <= 1e-12 * np.linalg.norm(b_reference)


def test_phi_path_origin_is_nehari_with_unit_scale():
    g = path_grid(0.3)
    u0 = gausson(g, CONST.c0)
    f = phi_path(u0, np.zeros(2), 0.3, CONST)
    t = nehari_scale(f, CONST, 0.3)
    assert t == pytest.approx(1.0, abs=1e-10)
    # for the constant potential the exact profile is already critical
    t0 = nehari_scale(u0, CONST, 0.3)
    assert t0 == pytest.approx(1.0, abs=10 * g.spacing**2)
    assert np.max(np.abs(barycenter(f))) < 1e-12


def test_phi_path_continuity_along_lattice():
    g = path_grid(0.3)
    u0 = gausson(g, SADDLE.c0)
    eps = 0.3
    quantum = eps * g.spacing
    z = np.array([quantum * 10, 0.0])
    f_z = phi_path(u0, z, eps, SADDLE)
    diffs = []
    vsamp = potential_samples(SADDLE, g, eps)
    for k in (8, 4, 2, 1):
        f_k = phi_path(u0, z + np.array([quantum * k, 0.0]), eps, SADDLE)
        diffs.append(math.sqrt(eps_norm_sq(g, f_k.values - f_z.values, vsamp)))
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_sign_condition_report():
    eps_values = (0.4, 0.1)
    g = path_grid(min(eps_values))
    u0 = gausson(g, SADDLE.c0)
    zs = 2.0 * np.array([[math.cos(2 * math.pi * k / 8), math.sin(2 * math.pi * k / 8)] for k in range(8)])
    report = sign_condition(u0, zs, eps_values, SADDLE)
    assert report.threshold_eps == 0.4
    assert report.min_inner[-1] >= 2.0 / 2 - 0.05
    # axis-aligned direction of a radial translate: inner product close to |z|
    aligned = sign_condition(u0, np.array([[2.0, 0.0]]), (0.1,), SADDLE)
    assert aligned.min_inner[0] == pytest.approx(2.0, abs=2e-3)


def test_level_d_constant_potential_reaches_m():
    g = Grid(2, 8.0, _odd_points(8.0, 0.2))
    res = level_d(g, CONST, 1.0, solver=SolverConfig(tol=1e-6, max_iters=3000))
    m = m_closed_form(CONST.c0, 2)
    assert res.feasible
    assert res.value == pytest.approx(m, rel=0.02)
    assert res.beta_x_norm <= 1e-3
    assert res.upper_bound


def test_level_d_model_gap():
    g = Grid(2, 8.0, _odd_points(8.0, 0.2))
    res = level_d(g, SADDLE, 0.1, solver=SolverConfig(tol=1e-6, max_iters=3000))
    m = m_closed_form(SADDLE.c0, 2)
    assert res.feasible
    assert res.value > m + 1.0  # clear positive gap on the saddle
    assert res.value >= m - 1e-6


def test_barycenter_penalty_value_and_gradient(rng):
    g = build_grid(2, 7.0, 65)
    u = smooth_field(g, rng, positive=True).values
    pen = _BarycenterPenalty(10.0, direction_weights(g)[:, [0]], g.cell_volume)
    beta = barycenter(GridField(g, u))
    assert abs(beta[0]) > 1e-2  # the random field is off-center along X
    assert pen.value(u) == pytest.approx(10.0 * beta[0] ** 2, rel=1e-12)
    assert pen.value(3.0 * u) == pytest.approx(pen.value(u), rel=1e-12)
    # L2 gradient: h^N <grad, d> is the directional derivative
    d = smooth_field(g, rng).values
    s = 1e-5
    fd = (pen.value(u + s * d) - pen.value(u - s * d)) / (2 * s)
    assert g.cell_volume * float(np.dot(pen.gradient(u), d)) == pytest.approx(fd, rel=1e-6)
    zero = np.zeros(g.num_nodes)
    assert pen.value(zero) == 0.0 and not np.any(pen.gradient(zero))


def test_level_d_requires_nontrivial_y():
    g = build_grid(2, 7.0, 33)
    both_x = model_saddle(1.0, 1.25, 2, (0, 1), 0.5)
    with pytest.raises(ValueError):
        level_d(g, both_x, 0.1)


def test_level_sup_x_constant_potential():
    eps = 0.3
    g = path_grid(eps, R=1.0)
    u0 = gausson(g, CONST.c0)
    report = level_sup_x(u0, CONST, eps, R=1.0)
    m = m_closed_form(CONST.c0, 2)
    assert report.value == pytest.approx(m, rel=0.01)
    assert report.value < 2 * m


def test_level_sup_x_model_cap():
    eps = 0.1
    g = path_grid(eps, R=1.0)
    u0 = gausson(g, SADDLE.c0)
    report = level_sup_x(u0, SADDLE, eps, R=1.0)
    assert report.value <= report.cap + 1e-3
    assert report.value < 2 * m_closed_form(SADDLE.c0, 2)
    assert report.cap == pytest.approx(report.cap_closed_form, rel=1e-3)


def test_choose_r_constant_returns_first_entry():
    eps = 0.3
    g = path_grid(eps)
    u0 = gausson(g, CONST.c0)
    m = m_closed_form(CONST.c0, 2)
    res = choose_r(u0, CONST, eps, threshold=m + 0.5)
    assert res.succeeded and res.R == 0.25


def test_choose_r_model_finite_radius():
    eps = 0.1
    g = path_grid(eps)
    u0 = gausson(g, SADDLE.c0)
    m = m_closed_form(SADDLE.c0, 2)
    theta_proxy = m_closed_form(SADDLE.c1, 2)  # path value at the origin
    res = choose_r(u0, SADDLE, eps, threshold=0.5 * (m + theta_proxy))
    assert res.succeeded and res.R is not None
    # boundary values decrease toward m(c0) as R grows
    vals = list(res.boundary_max.values())
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_choose_r_reports_exhaustion():
    eps = 0.3
    g = path_grid(eps)
    u0 = gausson(g, SADDLE.c0)
    res = choose_r(u0, SADDLE, eps, threshold=0.0)
    assert not res.succeeded and res.R is None
    assert len(res.boundary_max) == 4


def test_theta_monotone_in_r_and_bounds():
    eps = 0.25
    g = Grid(2, 10.0, _odd_points(10.0, 0.2))
    u0 = gausson(g, SADDLE.c0)
    m = m_closed_form(SADDLE.c0, 2)
    values = []
    for r in (0.05, 0.5, 2.0):
        rep = theta_r_estimate(u0, SADDLE, eps, r=r, R=1.5, seed=11)
        assert rep.feasible and rep.upper_bound
        values.append(rep.value)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    # r -> 0 limit: the estimate approaches the path value at the origin
    assert values[0] >= m - m * g.spacing**2


def test_theta_links_to_level_d_via_minimizer():
    # on one shared grid, include the level_d minimizer once r covers the
    # distance to the sampled path image: theta <= D + tol by set inclusion
    eps = 0.25
    g = Grid(2, 10.0, _odd_points(10.0, 0.2))
    u0 = gausson(g, SADDLE.c0)
    d_res = level_d(g, SADDLE, eps, solver=SolverConfig(tol=1e-6, max_iters=3000))
    vsamp = potential_samples(SADDLE, g, eps)
    f0 = phi_path(u0, np.zeros(2), eps, SADDLE)
    dist = math.sqrt(eps_norm_sq(g, d_res.field.values - f0.values, vsamp))
    rep = theta_r_estimate(
        u0, SADDLE, eps, r=1.25 * dist + 1e-9, R=1.5, seed=11,
        extra_candidate=d_res.field,
    )
    assert rep.included_minimizer
    assert rep.value <= d_res.value + 1e-9


def test_zero_finder_1d_x_symmetric():
    eps = 0.1
    g = path_grid(eps, R=1.0)
    u0 = gausson(g, SADDLE.c0)
    res = barycenter_zero_finder(u0, SADDLE, eps, R=1.0)
    assert not res.inconclusive
    assert abs(res.x_star[0]) <= 2 * g.spacing
    assert res.degree_evidence["degree_one"]
    lo, hi = res.degree_evidence["boundary_values"]
    assert lo < 0 < hi


def test_zero_finder_2d_x_winding():
    # X spanning both axes: beta ~ x/|x| has winding one around the origin
    both_x = model_saddle(1.0, 1.25, 2, (0, 1), 0.5)
    eps = 0.2
    g = path_grid(eps, R=1.0)
    u0 = gausson(g, both_x.c0)
    res = barycenter_zero_finder(u0, both_x, eps, R=1.0)
    assert not res.inconclusive
    assert res.degree_evidence["winding"] == 1
    assert np.linalg.norm(res.x_star) <= 2 * g.spacing


def test_zero_finder_inconclusive_without_sign_change():
    # constant potential with a barycenter forced off Y: use a tiny Q that
    # stays on one side by translating the probe window
    eps = 0.3
    g = path_grid(eps, R=1.0)
    u0 = gausson(g, CONST.c0, center=[3.0, 0.0])
    res = barycenter_zero_finder(u0, CONST, eps, R=0.25, n_coarse=5)
    assert res.inconclusive


def test_certificate_model_flags_and_determinism():
    cfg = CertificateConfig(potential=SADDLE, h_target=0.2, solver_half_extent=8.0,
                            solver=SolverConfig(tol=1e-5, max_iters=2000))
    cert_a = certificate(0.1, cfg)
    cert_b = certificate(0.1, cfg)
    assert cert_a.to_dict() == cert_b.to_dict()
    assert cert_a.flags["constrained_gap"]
    assert cert_a.flags["sup_below_two_m"]
    assert cert_a.flags["sandwich"]
    assert cert_a.sigma_margin > 0
    assert cert_a.m_c0 > 0
    assert cert_a.D_eps_estimate >= cert_a.m_c0 - 1e-6


def test_certificate_d_eps_below_sup_x_on_one_grid():
    # the CertificateConfig defaults are the command line's default config;
    # Phi_eps(0) is D-feasible, so D_eps <= J(Phi_eps(0)) <= sup_X J holds
    # exactly once both come from the same grid
    cfg = CertificateConfig(potential=SADDLE, compute_numerical_m=False)
    cert = certificate(0.05, cfg)
    assert cert.details["path_grid"] == (2, 10.0, 135)
    assert cert.D_eps_estimate <= cert.sup_X_J


def test_certificate_constant_potential_fails():
    cfg = CertificateConfig(potential=CONST, h_target=0.2, solver_half_extent=8.0,
                            solver=SolverConfig(tol=1e-5, max_iters=2000))
    cert = certificate(0.3, cfg)
    assert cert.sigma_margin == 0.0
    assert not cert.flags["constrained_gap"]
    assert not cert.flags["sandwich"]


def test_sweep_sigma_trend():
    cfg = CertificateConfig(potential=SADDLE, h_target=0.2, solver_half_extent=8.0,
                            solver=SolverConfig(tol=1e-5, max_iters=2000))
    certs = sweep_eps((0.4, 0.2), cfg)
    assert certs[0].sigma_margin <= certs[1].sigma_margin + 1e-9
    assert all(c.D_eps_estimate >= c.m_c0 - 1e-6 for c in certs)


TINY_CERT = dict(h_target=0.5, solver_half_extent=6.0, q_samples=5, r_schedule=(0.25, 0.5))


@pytest.mark.parametrize("converged", [True, False])
def test_certificate_stalled_m_c0_is_inconclusive(monkeypatch, converged):
    def fake_ground_state(grid, potential, eps, params=None, config=None):
        u = gausson(grid, SADDLE.c0)
        return NehariSolution(
            field=u,
            energy=m_closed_form(SADDLE.c0, 2),
            nehari_residual=0.0,
            iterations=7,
            converged=converged,
            diagnostics={"stalled": not converged, "rel_grad": 1e-6 if converged else 1e-2},
        )

    monkeypatch.setattr(minimax_mod, "ground_state", fake_ground_state)
    cfg = CertificateConfig(potential=SADDLE, solver=SolverConfig(tol=1e-3, max_iters=60), **TINY_CERT)
    cert = certificate(0.4, cfg)
    assert cert.m_c0_numerical == m_closed_form(SADDLE.c0, 2)
    assert cert.inconclusive.get("m_c0_numerical", False) is (not converged)


@pytest.mark.parametrize("unconverged_stage", [None, 1])
def test_level_d_unconverged_stage_is_inconclusive(monkeypatch, unconverged_stage):
    real = minimax_mod.minimize_on_nehari
    stages = []

    def one_stage_unconverged(*args, **kwargs):
        values, info = real(*args, **kwargs)
        if len(stages) == unconverged_stage:
            info = {**info, "converged": False}
        stages.append(info["converged"])
        return values, info

    monkeypatch.setattr(minimax_mod, "minimize_on_nehari", one_stage_unconverged)
    cfg = CertificateConfig(potential=SADDLE, solver=SolverConfig(tol=1e-3, max_iters=60),
                            compute_numerical_m=False, **TINY_CERT)
    cert = certificate(0.4, cfg)
    converged = unconverged_stage is None
    # certificate runs level_d with its default penalty schedule
    assert len(stages) == len(inspect.signature(level_d).parameters["penalty_schedule"].default)
    assert cert.details["level_d"]["converged"] is converged
    assert cert.inconclusive.get("level_d", False) is (not converged)


def test_theta_bump_kinetic_term_once_per_bump(monkeypatch):
    # the kinetic part of a bump's eps-norm sees only spacing and shape, so
    # one Laplacian per bump serves every path center
    g = Grid(2, 10.0, _odd_points(10.0, 0.5))
    bump = gausson(g, 0.0, center=[1.0, -0.5]).values
    frame = Grid(2, 10.0, g.points_per_axis, center=(3.7, 0.0))
    vsamp = potential_samples(SADDLE, frame, 0.25)
    kin = minimax_mod.kinetic_array(g, bump, bump)
    assert kin + minimax_mod._weighted_mass(frame, bump, vsamp) == eps_norm_sq(frame, bump, vsamp)

    real = minimax_mod.kinetic_array
    calls = []

    def counted(grid, u, v):
        calls.append(grid.center)
        return real(grid, u, v)

    monkeypatch.setattr(minimax_mod, "kinetic_array", counted)
    u0 = gausson(g, SADDLE.c0)
    rep = theta_r_estimate(u0, SADDLE, 0.25, r=0.5, R=1.5, n_centers=9, n_perturb=6, seed=11)
    assert rep.feasible
    assert calls == [g.center] * 6
