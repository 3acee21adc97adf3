import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lognls.energy import SplitParams, eps_norm_sq, field_energy, potential_samples
import lognls.grid as grid_mod
from lognls.grid import Grid, GridField
import lognls.minimax as minimax_mod
import lognls.nehari as nehari_mod
from lognls.minimax import (
    CertificateConfig,
    LevelDResult,
    _BarycenterTilt,
    certificate,
    direction_weights,
    level_d,
    level_sup_x,
    level_theta,
    path_levels,
    sweep_eps,
    _odd_points,
)
from lognls.energy import energy
from lognls.nehari import (
    NehariSolution,
    SolverConfig,
    gausson,
    ground_state,
    m_closed_form,
)
from lognls.expression import expression_potential
from lognls.oracles import barycenter, barycenter_zero_finder, grad_array, nehari_scale, phi_path
from lognls.potential import constant_potential, model_saddle

from conftest import count_grid_calls, node_table, smooth_field

PARAMS = SplitParams()
SADDLE = model_saddle(1.0, 1.25, 2, (0,), 0.5)
CONST = constant_potential(1.0, 2, (0,), 0.5)
# an odd term in z0 moves the free minimizer off Y
ASYMMETRIC = "1 + 0.25*(1+z1**2)/(1+z0**2+z1**2) + 0.1*z0/(1+z0**2)"
# an odd term in z1 moves the D_eps minimizer along Y, to y*/eps with y* =
# (0, -1), where V on Y is least (centre x1 ~ -2.4 / -4.9 / -9.95 at eps
# 0.4 / 0.2 / 0.1)
Y_ASYMMETRIC = "1 + 0.25*(1+z1**2)/(1+z0**2+z1**2) + 0.1*z1/(1+z1**2)"


def path_grid(eps, R=2.0, h=0.15):
    half = max(10.0, R / eps + 6.0)
    return Grid(2, half, _odd_points(half, h))


def sup_x(g, potential, eps, threshold):
    """level_sup_x from the J of the z = 0 row, priced here as level_theta
    prices it for a certificate."""
    return level_sup_x(g, potential, eps, threshold, path_levels(g, potential, eps, np.zeros((1, 2)))[0])


def test_barycenter_radial_is_zero():
    g = Grid(2, 7.0, 65)
    b = barycenter(gausson(g, 0.5))
    assert np.max(np.abs(b)) < 1e-14


def test_barycenter_scale_invariant(rng):
    g = Grid(2, 7.0, 65)
    u = smooth_field(g, rng, positive=True)
    b = barycenter(u)
    b2 = barycenter(GridField(g, 2.0 * u.values))  # power of two: bit-exact
    assert np.array_equal(b, b2)
    b3 = barycenter(GridField(g, 0.37 * u.values))
    assert np.allclose(b3, b, rtol=1e-13, atol=1e-15)


def test_barycenter_reflection_equivariance(rng):
    g = Grid(2, 7.0, 65)
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
    moving = phi_path(g, SADDLE, eps, z)
    assert moving.grid.center == tuple(z / eps)
    translated = gausson(g, SADDLE.c0, center=z / eps)
    reference = GridField(g, nehari_scale(translated, SADDLE, eps) * translated.values)
    j_moving = energy(moving, SADDLE, eps, PARAMS)["J"]
    j_reference = energy(reference, SADDLE, eps, PARAMS)["J"]
    assert abs(j_moving - j_reference) <= 1e-12 * abs(j_reference)
    b_moving, b_reference = barycenter(moving), barycenter(reference)
    assert np.linalg.norm(b_moving - b_reference) <= 1e-12 * np.linalg.norm(b_reference)


def test_phi_path_origin_is_nehari_with_unit_scale():
    g = path_grid(0.3)
    u0 = gausson(g, CONST.c0)
    f = phi_path(g, CONST, 0.3, np.zeros(2))
    t = nehari_scale(f, CONST, 0.3)
    assert t == pytest.approx(1.0, abs=1e-10)
    # for the constant potential the exact profile is already critical
    t0 = nehari_scale(u0, CONST, 0.3)
    assert t0 == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(barycenter(f))) < 1e-12


def test_phi_path_continuity_along_lattice():
    g = path_grid(0.3)
    eps = 0.3
    quantum = eps * g.spacing
    z = np.array([quantum * 10, 0.0])
    f_z = phi_path(g, SADDLE, eps, z)
    diffs = []
    vsamp = potential_samples(SADDLE, g, eps)
    for k in (8, 4, 2, 1):
        f_k = phi_path(g, SADDLE, eps, z + np.array([quantum * k, 0.0]))
        diffs.append(math.sqrt(eps_norm_sq(g, f_k.values - f_z.values, vsamp)))
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))


BETA_ROUNDING = 16 * np.finfo(float).eps


# the two test names predate the path's barycenter read: path_levels gives
# J, and the zero finder reads beta off u0 in the moved frame
@pytest.mark.parametrize(
    "potential, eps",
    [(SADDLE, 0.4), (SADDLE, 0.05), (model_saddle(1.0, 1.25, 1, (0,), 0.5), 0.2), (CONST, 0.3)],
    ids=["saddle-0.4", "saddle-0.05", "saddle-1d", "constant"],
)
def test_path_table_matches_the_path_fields(potential, eps):
    # the table's J is the reduced objective, J of the field up to rounding;
    # beta(t u) = beta(u) up to the rounding of t u: measured 2.7e-15 at most
    # on these rows, so 16 ulps of 1 (|beta| <= 1) bound it
    g = Grid(potential.dim, 10.0, _odd_points(10.0, 0.15))
    u0 = gausson(g, potential.c0)
    zs = np.outer(np.linspace(-2.0, 2.0, 9), np.eye(potential.dim)[0])
    j = path_levels(g, potential, eps, zs)
    assert j.shape == (len(zs),)
    for k, z in enumerate(zs):
        f = phi_path(g, potential, eps, z)
        # the field, its frame's samples and the table entry are one row's
        frame, vsamp, _, j_row = minimax_mod._path_row(g, potential, eps, z)
        assert frame == f.grid and j_row == j[k]
        assert np.array_equal(vsamp, potential_samples(potential, f.grid, eps))
        j_field = field_energy(f.grid, f.values, vsamp)[0]
        assert abs(j[k] - j_field) <= 1e-13 * abs(j_field)
        beta_u0 = barycenter(GridField(f.grid, u0.values))
        assert np.max(np.abs(beta_u0 - barycenter(f))) <= BETA_ROUNDING
    # the zero finder's boundary values are those barycenters at z = -R, R
    res = barycenter_zero_finder(g, potential, eps, R=2.0)
    ends = [barycenter(phi_path(g, potential, eps, x * np.eye(potential.dim)[0]))[0] for x in (-2.0, 2.0)]
    assert np.max(np.abs(np.subtract(res["degree_evidence"]["boundary_values"], ends))) <= BETA_ROUNDING


def test_path_table_applies_one_forward_transform(monkeypatch):
    # the frame-independent terms of u0 come from one energy kernel call per
    # grid, whose kinetic form reads the forward sine transform alone: the
    # first table on a grid takes one transform, every later table none
    minimax_mod._path_terms.cache_clear()
    forward = count_grid_calls(monkeypatch, "sine_coefficients")
    inverse = count_grid_calls(monkeypatch, "laplacian_from_sine")
    g = Grid(2, 10.0, _odd_points(10.0, 0.3))
    for n, transforms in ((3, 1), (9, 0), (41, 0)):
        forward.clear()
        zs = np.outer(np.linspace(-2.0, 2.0, n), [1.0, 0.0])
        path_levels(g, SADDLE, 0.1, zs)
        assert len(forward) == transforms, f"{len(zs)} rows"
    assert not inverse


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.03])
def test_path_level_at_the_origin_matches_the_small_eps_expansion(eps):
    # J(Phi_eps(0)) = m(c0) exp(<V(eps x) - c0>) with the average over the
    # Gausson density u0^2 / |u0|^2, which is the Gaussian of variance 1/2
    # per axis; expanding V about 0 gives m(V(0)) exp(eps^2 Lap V(0) / 4)
    # up to O(eps^4), and Lap V(0) = -2 (c1 - c0) on the model saddle.  The
    # relative residual / eps^4 reads 0.243 / 0.248 / 0.249 here
    g = CertificateConfig(potential=SADDLE).grid()
    j = path_levels(g, SADDLE, eps, [[0.0, 0.0]])
    lap_v0 = -2.0 * (SADDLE.c1 - SADDLE.c0)
    expected = m_closed_form(SADDLE.c1, 2) * math.exp(eps**2 * lap_v0 / 4.0)
    assert abs(j[0] - expected) <= 0.3 * eps**4 * expected


# V = 1 + a (1 + z1^2) / (1 + |z|^2) + b z0 z1 / (1 + |z|^2) with a = 0.25,
# b = 0.05: grad V(0) = 0 and Hess V(0) = [[-2a, b], [b, 0]], so |Hess V(0)|_F^2
# = 4 a^2 + 2 b^2 = 0.255, with an off-diagonal term the model saddle lacks
SADDLE_WITH_TWIST = expression_potential(
    "1 + 0.25*(1+z1**2)/(1+z0**2+z1**2) + 0.05*z0*z1/(1+z0**2+z1**2)", 2, (0,), 0.5
)


@pytest.mark.parametrize(
    "potential, hessian_frobenius_sq, eps",
    [
        pytest.param(SADDLE, 4.0 * (SADDLE.c1 - SADDLE.c0) ** 2, eps, id=f"{eps}")
        for eps in (0.1, 0.05, 0.025)
    ]
    + [
        pytest.param(SADDLE_WITH_TWIST, 4.0 * 0.25**2 + 2.0 * 0.05**2, eps, id=f"expression-{eps}")
        for eps in (0.1, 0.05, 0.025)
    ],
)
def test_path_origin_over_d_eps_follows_the_eps4_law(potential, hessian_frobenius_sq, eps):
    # log(J(Phi_eps(0)) / D_eps) = eps^4 |Hess V(0)|_F^2 / 16 (1 + O(eps^2))
    # from second-order perturbation around the Gausson.  On the model saddle
    # Hess V(0) = diag(-2 (c1 - c0), 0), so the leading term is eps^4 (c1 -
    # c0)^2 / 4; the ratio to it reads 0.937 / 0.984 / 0.996 here, (1 -
    # ratio) / eps^2 = 6.29 / 6.57 / 6.69.  On SADDLE_WITH_TWIST it reads
    # 0.9373 / 0.9836 / 0.9958, (1 - ratio) / eps^2 = 6.27 / 6.55 / 6.66;
    # without the off-diagonal b^2 in the constant, eps 0.025 fails the bound.
    # The law needs grad V(0) = 0: the linear term of the asymmetric CI
    # potential couples to translations, so that potential is left out
    cfg = CertificateConfig(potential=potential)
    g = cfg.grid()
    d_eps = level_d(g, potential, eps, solver=cfg.solver).value
    j0 = path_levels(g, potential, eps, np.zeros((1, 2)))[0]
    ratio = math.log(j0 / d_eps) / (eps**4 * hessian_frobenius_sq / 16.0)
    assert abs(1.0 - ratio) <= 8.0 * eps**2, ratio


# c1 - c0 on either side of log(3/2), where the small-eps flags flip
_BELOW_LOG_THREE_HALVES = math.log(1.5) - 0.02
_ABOVE_LOG_THREE_HALVES = math.log(1.5) + 0.02


def _small_eps_certificate(c1):
    # the model saddle with c0 = 1 at eps 0.05 on the default grid and solver
    potential = model_saddle(1.0, c1, 2, (0,), 0.5)
    return certificate(0.05, CertificateConfig(potential=potential, compute_numerical_m=False))


@pytest.mark.parametrize("gap, holds", [(_BELOW_LOG_THREE_HALVES, True), (_ABOVE_LOG_THREE_HALVES, False)])
def test_sup_below_two_m_and_sandwich_flip_at_log_three_halves(gap, holds):
    # as eps -> 0, D_eps, J(Phi_eps(0)) and sup_X J tend to m(V(0)) = m(c1) =
    # m(c0) e^(c1 - c0), and sigma to m(c1) - m(c0), so sup_X J < 2 m(c0) -
    # sigma reads 2 e^(c1 - c0) < 3: both flags hold iff e^(c1 - c0) < 3/2
    cert = _small_eps_certificate(1.0 + gap)
    assert cert.flags["sup_below_two_m"] is holds
    assert cert.flags["sandwich"] is holds


@pytest.mark.parametrize("gap", [_BELOW_LOG_THREE_HALVES, _ABOVE_LOG_THREE_HALVES, 0.25])
def test_r_used_is_the_small_eps_prediction(gap):
    # as eps -> 0 the boundary level at radius R tends to m(V(R e_0)) =
    # m(c0) e^((c1 - c0) / (1 + R^2)) and the threshold (m(c0) + Theta_r) / 2
    # to m(c0) (1 + e^(c1 - c0)) / 2, so R_used is the smallest radius of the
    # schedule with e^((c1 - c0) / (1 + R^2)) < (1 + e^(c1 - c0)) / 2: 1 here
    predicted = min(
        R for R in minimax_mod.R_SCHEDULE if math.exp(gap / (1.0 + R * R)) < 0.5 * (1.0 + math.exp(gap))
    )
    assert predicted == 1.0
    assert _small_eps_certificate(1.0 + gap).R_used == predicted


@pytest.mark.parametrize(
    "eps, z",
    [(0.4, (0.0, 0.0)), (0.4, (1.0, 0.0)), (0.2, (-0.5, 0.0)), (0.1, (2.0, 0.0)), (0.05, (0.25, 0.0)), (0.05, (-1.5, 0.0))],
)
def test_path_level_is_the_ground_level_of_the_smoothed_potential(eps, z):
    # J(Phi_eps(z)) = m_h(c0) exp(W_eps(z) - c0), W_eps(z) = integral(V(eps x
    # + z) u0^2) / integral(u0^2): on the Nehari set J is M/2 exp(a/M) (a =
    # J'(u)u before scaling, M the mass of u0), and only pot sees the frame,
    # so the path level is the discrete ground level m_h at the u0^2-average
    # of V.  The three sides come from three routes: the path field priced by
    # the full kernel in its frame, the V = c0 ground solve, and a direct
    # quadrature of V
    g = CertificateConfig(potential=SADDLE).grid()
    frame_field = phi_path(g, SADDLE, eps, z)
    frame = frame_field.grid
    j_path = field_energy(frame, frame_field.values, potential_samples(SADDLE, frame, eps))[0]
    m_h = ground_state(g, SADDLE.c0, 1.0, config=SolverConfig(tol=1e-6, max_iters=4000)).energy
    weight = gausson(g, SADDLE.c0).values ** 2
    w = float(np.sum(SADDLE.evaluate((eps * node_table(g) + np.asarray(z)).T) * weight) / np.sum(weight))
    assert abs(j_path - m_h * math.exp(w - SADDLE.c0)) <= 1e-13 * j_path


def test_zero_finder_reads_beta_without_a_solve(monkeypatch):
    # beta(t u) = beta(u): the finder needs neither the Nehari scale, nor J,
    # nor V, for a one-axis and a two-axis X alike
    def refuse(*args, **kwargs):
        raise AssertionError("the zero finder must not evaluate the energy or V")

    for name in ("energy_terms", "potential_samples", "_projected_level", "path_levels"):
        monkeypatch.setattr(minimax_mod, name, refuse)
    g = Grid(2, 10.0, _odd_points(10.0, 0.4))
    for x_axes in ((0,), (0, 1)):
        res = barycenter_zero_finder(g, model_saddle(1.0, 1.25, 2, x_axes, 0.5), 0.2, R=1.0)
        assert res["degree_evidence"]["degree_one"] and not res["inconclusive"]


def test_level_d_constant_potential_reaches_m():
    g = Grid(2, 8.0, _odd_points(8.0, 0.2))
    res = level_d(g, CONST, 1.0, solver=SolverConfig(tol=1e-6, max_iters=3000))
    m = m_closed_form(CONST.c0, 2)
    assert res.feasible
    assert res.value == pytest.approx(m, rel=1e-12)
    assert res.beta_x_norm <= 1e-3


def test_level_d_model_gap():
    g = Grid(2, 8.0, _odd_points(8.0, 0.2))
    res = level_d(g, SADDLE, 0.1, solver=SolverConfig(tol=1e-6, max_iters=3000))
    m = m_closed_form(SADDLE.c0, 2)
    assert res.feasible
    assert res.value > m + 1.0  # clear positive gap on the saddle
    assert res.value >= m - 1e-6


def test_level_d_tilt_holds_an_asymmetric_minimizer_in_y():
    # the odd term in z0 moves the free minimizer off Y, so the tilt has to
    # hold every trial there.  The penalty continuation stopped at mu = 1000
    # with beta_X 7.5e-4 and J 39.8779063, below the constrained level; the
    # value is its mu -> infinity limit, Richardson-extrapolated from mu =
    # 1e7 and 1e8 (39.879034204)
    pot = expression_potential(ASYMMETRIC, 2, [0])
    g = Grid(2, 6.0, 31)
    res = level_d(g, pot, 0.4, solver=SolverConfig(tol=1e-6, max_iters=500))
    assert res.feasible and res.converged and len(res.stages) == 1
    assert res.beta_x_norm <= 1e-12
    assert res.stages[0]["iterations"] <= 25
    assert res.value == field_energy(g, res.field.values, potential_samples(pot, g, 0.4))[0]
    assert res.value == pytest.approx(39.879034204, abs=1e-8)
    # the feasibility test reads the one barycenter kernel on the X weights
    u, wx = res.field.values, direction_weights(res.field.grid)[:, [0]]
    assert res.beta_x_norm == minimax_mod._x_norm(minimax_mod._barycenter_values(u * u, wx))


@pytest.mark.parametrize("eps", [0.4, 0.2, 0.1, 0.05])
def test_level_d_first_stage_iterations_on_the_default_grid(eps):
    # the L2 step took 432 / 122 / 116 / 114 iterations in a penalty stage
    # mu = 1 and the scaled Sobolev step 31 / 24 / 18 / 14 in a stage mu =
    # 10; the L-BFGS step takes 17 / 14 / 12 / 8 in the one tilted solve on
    # the 31^2 default box (17 / 15 / 12 / 8 on 51^2)
    cfg = CertificateConfig(potential=SADDLE)
    res = level_d(cfg.grid(), SADDLE, eps, solver=cfg.solver)
    assert len(res.stages) == 1
    assert res.stages[0]["converged"]
    assert res.stages[0]["iterations"] <= {0.4: 19, 0.2: 17, 0.1: 14, 0.05: 10}[eps]
    assert res.feasible and res.converged


def test_level_d_prices_each_trial_with_one_kernel_call(monkeypatch):
    # the tilt retracts a trial before it is priced, so a tilted trial costs
    # one energy kernel call like any other: the start and each trial are
    # priced once (the solver read 33 calls for 16 trials here when it priced
    # a tilted trial again)
    calls = []
    kernel = nehari_mod.energy_terms

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(nehari_mod, "energy_terms", counted)
    pot = expression_potential(ASYMMETRIC, 2, [0])
    res = level_d(Grid(2, 6.0, 31), pot, 0.4)
    assert res.converged and res.value == 39.879034203957886
    assert len(calls) == res.stages[0]["trials"] + 1


def test_level_d_reaches_the_constrained_asymmetric_level_on_the_default_grid():
    # the free minimizer leaves Y on this potential.  The penalty
    # continuation (mu = 10, 100, 1000, 63 / 49 iterations) stopped at its
    # first stage with beta_X <= 1e-3 and wrote 39.877906346 / 40.461510494,
    # below the constrained infimum; the tilted solve reaches it in 19 / 13
    # iterations at the mu -> infinity limit of that schedule, extrapolated
    # from mu = 1e7 and 1e8
    pot = expression_potential(ASYMMETRIC, 2, [0])
    for eps, level in ((0.4, 39.879034204), (0.1, 40.461613011)):
        res = level_d(Grid(2, 10.0, 51), pot, eps)
        assert res.feasible and res.converged
        assert res.stages[0]["iterations"] <= 25
        assert res.beta_x_norm <= 1e-12
        assert res.value == pytest.approx(level, abs=1e-8)


@pytest.mark.parametrize(
    "eps, sup_x, d_eps, sigma",
    [
        (0.4, 40.28181047068373, 39.879034203957886, 8.631063003131729),
        (0.1, 40.826669713264529, 40.46161301114411, 9.213641810317952),
    ],
    ids=["0.4", "0.1"],
)
def test_asymmetric_sup_x_holds_every_path_row_it_prices(eps, sup_x, d_eps, sigma):
    # the odd term puts the path maximum off z = 0.  A second walk over Q,
    # the origin and R/4, R/2, 3R/4, R for R = 2, skipped the radius-0.25
    # sphere that the R walk had priced and wrote 39.886727557 /
    # 40.461745973, below a row the certificate held.  D_eps, Theta_r and
    # sigma are those of the 31^2 default box (39.879034204201915 /
    # 40.461613011166421 on 51^2)
    pot = expression_potential(ASYMMETRIC, 2, [0])
    cert = certificate(eps, CertificateConfig(potential=pot, compute_numerical_m=False))
    assert cert.sup_X_J >= max(cert.details["sup_x"]["boundary_max"].values())
    assert cert.sup_X_J == pytest.approx(sup_x, abs=1e-8)
    assert cert.to_dict() == {
        "eps": eps,
        "m_c0": 31.247971200826157,
        "m_c0_numerical": None,
        "D_eps_estimate": d_eps,
        "sup_X_J": cert.sup_X_J,
        "theta_r_estimate": d_eps,
        "R_used": 2.0,
        "sigma_margin": sigma,
        "flags": dict.fromkeys(cert.flags, True),
        "inconclusive": {},
    }
    assert len(cert.flags) == 5


def _off_centre_field(g, rng, x_axes):
    tilt = _BarycenterTilt(g, x_axes)
    u = smooth_field(g, rng, positive=True).values
    assert np.all(np.abs(minimax_mod._barycenter_values(u * u, tilt.wx)) > 1e-2)
    return tilt, u


@pytest.mark.parametrize("x_axes", [(0,), (0, 1)], ids=["one-x-axis", "two-x-axes"])
def test_tilt_retracts_an_off_centre_field_onto_y(rng, x_axes):
    # a two-axis X needs N = 3 before a certificate reaches it
    g = Grid(2, 7.0, 65)
    for _ in range(3):
        tilt, u = _off_centre_field(g, rng, x_axes)
        c = u.copy()
        assert tilt.retract(c) is True
        assert minimax_mod._x_norm(minimax_mod._barycenter_values(c * c, tilt.wx)) <= 1e-14
        # c = u e^{lam.x_X}: log(c / u) is linear in x_X, with no term in Y
        log_ratio = np.log(c / u)
        x = node_table(g)[:, list(x_axes)]
        lam = np.linalg.lstsq(x, log_ratio, rcond=None)[0]
        assert np.max(np.abs(log_ratio - x @ lam)) <= 1e-12


def test_tilt_leaves_a_field_in_y_bit_identical(rng, monkeypatch):
    # a field on Y to rounding takes the early exit: no tilt root is sought
    monkeypatch.setattr(_BarycenterTilt, "_root_terms", lambda *args: pytest.fail("sought a tilt"))
    g = Grid(2, 7.0, 65)
    u = smooth_field(g, rng, positive=True).values.reshape(g.shape)
    # the Gausson on the origin node and a field mirrored across Y (both X
    # axes mirrored for the two-axis X): beta_X is rounding
    for x_axes, field in (((0,), gausson(g, 0.5).values), ((0,), u + u[::-1]), ((0, 1), u + u[::-1, ::-1])):
        c = np.ravel(field).copy()
        tilt = _BarycenterTilt(g, x_axes)
        assert minimax_mod._x_norm(minimax_mod._barycenter_values(c * c, tilt.wx)) <= 1e-15
        assert tilt.retract(c) is True
        assert c.tobytes() == np.ravel(field).tobytes()


def test_tilt_cannot_carry_a_one_sided_field():
    # with no mass at x0 < 0, F(lam) > 0 for every lam: no tilt reaches Y,
    # and the field is left as it was for the solver to reject
    g = Grid(2, 7.0, 65)
    c = np.where(node_table(g)[:, 0] > 0, gausson(g, 0.5).values, 0.0)
    before = c.copy()
    assert _BarycenterTilt(g, (0,)).retract(c) is False
    assert np.array_equal(c, before)


@pytest.mark.parametrize("x_axes", [(0,), (0, 1)], ids=["one-x-axis", "two-x-axes"])
def test_tilt_reduce_is_the_gradient_of_j_after_the_tilt(rng, x_axes):
    g = Grid(2, 7.0, 65)
    tilt, u = _off_centre_field(g, rng, x_axes)
    assert tilt.retract(u) is True
    vsamp = potential_samples(SADDLE, g, 0.4)

    def j_tilted(c):
        c = c.copy()
        assert tilt.retract(c)
        return field_energy(g, c, vsamp)[0]

    grad = tilt.reduce(grad_array(g, u, vsamp), u)
    # L2 gradient: h^N <grad, d> is the directional derivative
    d = smooth_field(g, rng).values
    s = 1e-5
    fd = (j_tilted(u + s * d) - j_tilted(u - s * d)) / (2 * s)
    assert g.cell_volume * float(np.dot(grad, d)) == pytest.approx(fd, rel=1e-6)
    # the tilt directions x_X u carry no first-order change of J after the tilt
    for a in x_axes:
        assert abs(float(np.dot(grad, node_table(g)[:, a] * u))) <= 1e-10 * float(np.dot(np.abs(grad), u))


def test_level_d_requires_nontrivial_y():
    g = Grid(2, 7.0, 33)
    both_x = model_saddle(1.0, 1.25, 2, (0, 1), 0.5)
    with pytest.raises(ValueError):
        level_d(g, both_x, 0.1)


def test_level_sup_x_even_q_samples_keep_the_origin():
    # the name predates the one walk over X, when Q also held the origin for
    # an even sample count.  The saddle's path maximum sits at z = 0, which
    # the walk prices however far it goes: one radius or all of them
    eps = 0.4
    g = CertificateConfig(potential=SADDLE, h_target=0.3).grid()
    origin = path_levels(g, SADDLE, eps, np.zeros((1, 2)))[0]
    for threshold, walked in ((math.inf, 1), (-math.inf, 4)):
        report = sup_x(g, SADDLE, eps, threshold)
        assert len(report["boundary_max"]) == walked
        assert report["value"] == origin


def test_level_sup_x_nan_threshold_walks_every_radius():
    # an infeasible Theta_r leaves a NaN threshold, which no boundary max is
    # at or below: the walk runs the whole schedule and finds no R
    eps = 0.3
    g = path_grid(eps)
    res = sup_x(g, SADDLE, eps, math.nan)
    assert not res["succeeded"] and res["R"] is None
    assert list(res["boundary_max"]) == sorted(minimax_mod.R_SCHEDULE)
    assert res["value"] == max(path_levels(g, SADDLE, eps, np.zeros((1, 2)))[0], *res["boundary_max"].values())


def test_level_sup_x_constant_potential():
    eps = 0.3
    g = path_grid(eps, R=1.0)
    report = sup_x(g, CONST, eps, -math.inf)
    m = m_closed_form(CONST.c0, 2)
    assert report["value"] == pytest.approx(m, rel=0.01)
    assert report["value"] < 2 * m


def test_level_sup_x_model_cap():
    eps = 0.1
    g = path_grid(eps, R=1.0)
    report = sup_x(g, SADDLE, eps, -math.inf)
    assert report["value"] <= report["cap"] + 1e-3
    assert report["value"] < 2 * m_closed_form(SADDLE.c0, 2)
    assert report["cap"] == pytest.approx(report["cap_closed_form"], rel=1e-3)


def test_choose_r_constant_returns_first_entry():
    eps = 0.3
    g = path_grid(eps)
    m = m_closed_form(CONST.c0, 2)
    res = sup_x(g, CONST, eps, m + 0.5)
    assert res["succeeded"] and res["R"] == 0.25


def test_choose_r_model_finite_radius():
    eps = 0.1
    g = path_grid(eps)
    m = m_closed_form(SADDLE.c0, 2)
    theta_proxy = m_closed_form(SADDLE.c1, 2)  # path value at the origin
    res = sup_x(g, SADDLE, eps, 0.5 * (m + theta_proxy))
    assert res["succeeded"] and res["R"] is not None
    # boundary values decrease toward m(c0) as R grows
    vals = list(res["boundary_max"].values())
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_choose_r_reports_exhaustion():
    eps = 0.3
    g = path_grid(eps)
    res = sup_x(g, SADDLE, eps, 0.0)
    assert not res["succeeded"] and res["R"] is None
    assert len(res["boundary_max"]) == 4


def _theta_setup(eps):
    """The default certificate grid, the level_d result and Phi_eps(0) on it."""
    cfg = CertificateConfig(potential=SADDLE)
    g = cfg.grid()
    d_res = level_d(g, SADDLE, eps, solver=cfg.solver)
    return cfg, g, d_res, phi_path(g, SADDLE, eps, np.zeros(2))


def _path_origin_level(g, eps, f0):
    """J(Phi_eps(0)) as the z = 0 row of the path table, checked against the
    energy kernel on the field Phi_eps(0) to 1e-13 relative."""
    j0 = path_levels(g, SADDLE, eps, np.zeros((1, 2)))[0]
    j_field = field_energy(g, f0.values, potential_samples(SADDLE, g, eps))[0]
    assert abs(j0 - j_field) <= 1e-13 * j_field
    return j0


def test_theta_monotone_in_r_and_bounds():
    # the candidate set grows with r: Phi_eps(0) at every r, the minimizer
    # once r reaches its distance, so the estimate is non-increasing in r and
    # never below D_eps; the r -> 0 limit is J(Phi_eps(0)), the path row
    eps = 0.4
    cfg, g, d_res, f0 = _theta_setup(eps)
    j0 = _path_origin_level(g, eps, f0)
    m = m_closed_form(SADDLE.c0, 2)
    values = []
    for r in (1e-3, 0.1, 0.5, 2.0):
        rep = level_theta(g, SADDLE, eps, r, d_res)
        assert rep["feasible"] and rep["r"] == r
        assert d_res.value <= rep["value"] <= j0
        values.append(rep["value"])
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == j0 > m


def test_theta_links_to_level_d_via_minimizer():
    # once r covers the minimizer's eps-norm distance to Phi_eps(0), the
    # estimate is D_eps bit for bit, since D_eps <= J(Phi_eps(0))
    eps = 0.25
    g = Grid(2, 10.0, _odd_points(10.0, 0.2))
    d_res = level_d(g, SADDLE, eps, solver=SolverConfig(tol=1e-6, max_iters=3000))
    vsamp = potential_samples(SADDLE, g, eps)
    f0 = phi_path(g, SADDLE, eps, np.zeros(2))
    dist = math.sqrt(eps_norm_sq(g, d_res.field.values - f0.values, vsamp))
    rep = level_theta(g, SADDLE, eps, 1.25 * dist, d_res)
    assert rep["used_minimizer"] and rep["minimizer_distance"] == dist
    assert rep["value"] == d_res.value
    # just short of the distance the minimizer is out
    rep = level_theta(g, SADDLE, eps, 0.99 * dist, d_res)
    assert not rep["used_minimizer"]
    assert rep["value"] == _path_origin_level(g, eps, f0) > d_res.value


def test_theta_falls_back_to_the_path_origin_outside_the_ball(monkeypatch):
    # r = 1e-3 is below the minimizer's distance 0.200 at eps 0.4: the
    # estimate is J(Phi_eps(0)), an upper bound still, and above D_eps
    eps = 0.4
    cfg, g, d_res, f0 = _theta_setup(eps)
    j0 = _path_origin_level(g, eps, f0)
    rep = level_theta(g, SADDLE, eps, 1e-3, d_res)
    assert rep["minimizer_distance"] == pytest.approx(0.200, abs=5e-4)
    assert not rep["used_minimizer"] and rep["feasible"]
    assert rep["value"] == j0 >= d_res.value
    # an infeasible minimizer stays out however large r is
    infeasible = LevelDResult(d_res.value, d_res.field, False, 1.0, d_res.stages)
    rep = level_theta(g, SADDLE, eps, 2.0, infeasible)
    assert not rep["used_minimizer"] and rep["value"] == j0
    # the certificate reports the fallback and which candidate it took
    monkeypatch.setattr(minimax_mod, "THETA_RADIUS", 1e-3)
    cert = certificate(eps, replace(cfg, compute_numerical_m=False))
    assert cert.theta_r_estimate == j0 >= cert.D_eps_estimate
    assert cert.details["theta"]["used_minimizer"] is False
    assert cert.flags["theta_above_half_gap"]


@pytest.mark.parametrize("eps", [0.4, 0.1])
def test_theta_fallback_is_the_path_row_that_sup_x_reads(eps):
    # J(Phi_eps(0)) has one evaluator, the z = 0 path row: the fallback
    # estimate is that row bit for bit, so it never exceeds sup_X J.  Priced
    # by the energy kernel on the field it differed in the last bits (at eps
    # 0.4, 39.88672755746883 against the row's 39.886727557468845); the
    # kernel stays an independent check at 1e-13
    cfg, g, d_res, f0 = _theta_setup(eps)
    rep = level_theta(g, SADDLE, eps, 1e-3, d_res)
    assert not rep["used_minimizer"]
    assert rep["value"] == _path_origin_level(g, eps, f0)
    assert rep["value"] <= sup_x(g, SADDLE, eps, -math.inf)["value"]


def test_theta_needs_a_minimizer_on_the_grid_of_u0():
    eps = 0.4
    cfg, g, d_res, _ = _theta_setup(eps)
    other = Grid(2, 10.0, 53)
    moved = LevelDResult(d_res.value, gausson(other, SADDLE.c0), True, 0.0, d_res.stages)
    with pytest.raises(ValueError, match="path grid"):
        level_theta(g, SADDLE, eps, 0.5, moved)


def test_theta_skips_a_minimizer_on_a_moved_frame():
    # a moved frame of the path grid is no field of that grid: its minimizer
    # is skipped however low its J (NaN distance), and J(Phi_eps(0)), a
    # member of the ball, stays the upper bound
    eps = 0.4
    cfg, g, d_res, f0 = _theta_setup(eps)
    frame = replace(g, center=(0.0, -2.4))
    moved = LevelDResult(d_res.value - 1.0, GridField(frame, d_res.field.values), True, 0.0, d_res.stages)
    rep = level_theta(g, SADDLE, eps, 100.0, moved)
    assert not rep["used_minimizer"] and math.isnan(rep["minimizer_distance"])
    assert rep["feasible"] and rep["value"] == rep["origin_J"] == _path_origin_level(g, eps, f0)


def test_theta_is_d_eps_in_the_default_sweep():
    # the minimizer lies in the default r = 0.5 ball at every default eps
    # (distance 0.200 / 0.065 / 0.018 / 0.005), so Theta_r = D_eps exactly
    cfg = CertificateConfig(potential=SADDLE, compute_numerical_m=False)
    certs = sweep_eps((0.4, 0.2, 0.1, 0.05), cfg)
    distances = []
    for cert in certs:
        assert cert.theta_r_estimate >= cert.D_eps_estimate
        assert cert.theta_r_estimate == cert.D_eps_estimate
        theta = cert.details["theta"]
        assert theta["used_minimizer"] and theta["feasible"] and theta["r"] == minimax_mod.THETA_RADIUS
        distances.append(theta["minimizer_distance"])
        assert all(cert.flags.values())
        # the saddle's path maximum is the z = 0 row, bit for bit
        assert cert.sup_X_J == path_levels(cfg.grid(), SADDLE, cert.eps, np.zeros((1, 2)))[0]
    assert distances == pytest.approx([0.200, 0.065, 0.018, 0.005], abs=5e-4)


def test_default_sweep_builds_the_path_once(monkeypatch):
    # the path terms of u0 depend on the grid and c0, not on eps: one energy
    # kernel call on the Gausson serves the whole default sweep.  Built per
    # call of level_theta, choose_r (per radius) and level_sup_x, they took 21
    minimax_mod._path_terms.cache_clear()
    calls = []
    real = minimax_mod.energy_terms
    monkeypatch.setattr(minimax_mod, "energy_terms", lambda *a: calls.append(a[0]) or real(*a))
    cfg = CertificateConfig(potential=SADDLE)
    certs = sweep_eps((0.4, 0.2, 0.1, 0.05), cfg)
    assert calls == [cfg.grid()]
    assert all(not c.inconclusive for c in certs)


def test_choose_r_walks_the_schedule_in_increasing_order(monkeypatch):
    # R is the smallest passing radius whatever the schedule's order: at eps
    # 0.05 on the default grid that is 1, and walked in the given order a
    # descending schedule returned its first entry, 2
    cfg = CertificateConfig(potential=SADDLE, compute_numerical_m=False)
    ascending = certificate(0.05, cfg)
    monkeypatch.setattr(minimax_mod, "R_SCHEDULE", (2.0, 1.0, 0.5, 0.25))
    descending = certificate(0.05, cfg)
    assert ascending.R_used == descending.R_used == 1.0
    assert descending.to_dict() == ascending.to_dict()
    assert list(descending.details["sup_x"]["boundary_max"]) == [0.25, 0.5, 1.0]


def test_certificate_never_imports_numpy_random():
    # nothing in a certificate is drawn at random; numpy loads its random
    # module lazily, and importing it costs about 2 MB of peak RSS
    code = (
        "import sys\n"
        "from lognls.minimax import CertificateConfig, certificate\n"
        "from lognls.potential import model_saddle\n"
        "cfg = CertificateConfig(potential=model_saddle(1.0, 1.25, 2, (0,), 0.5), h_target=0.5,\n"
        "                        solver_half_extent=6.0, compute_numerical_m=False)\n"
        "certificate(0.4, cfg)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(minimax_mod.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# beta(Phi_eps(0)) = beta(u0) of the radial Gausson on the origin node is
# rounding (1.4e-16 at most on these grids); +-R are mirror frames, whose
# boundary values differ in the order of the sum only (2.2e-15 at most)
ZERO_RESIDUAL = 1e-15


def test_zero_finder_1d_x_symmetric():
    for eps, R in ((0.1, 1.0), (0.05, 0.3), (0.4, 5.0)):
        g = path_grid(eps, R=1.0)
        res = barycenter_zero_finder(g, SADDLE, eps, R=R)
        assert not res["inconclusive"]
        assert res["x_star"] == [0.0] and res["residual"] <= ZERO_RESIDUAL
        assert res["degree_evidence"]["degree_one"]
        lo, hi = res["degree_evidence"]["boundary_values"]
        assert lo < 0 < hi
        assert abs(lo + hi) <= BETA_ROUNDING


def test_zero_finder_2d_x_winding():
    # X spanning both axes: beta ~ x/|x| has winding one around the origin
    both_x = model_saddle(1.0, 1.25, 2, (0, 1), 0.5)
    for eps, R in ((0.2, 1.0), (0.05, 0.3), (0.4, 5.0)):
        g = path_grid(eps, R=1.0)
        res = barycenter_zero_finder(g, both_x, eps, R=R)
        assert not res["inconclusive"]
        assert res["degree_evidence"]["winding"] == 1 and res["degree_evidence"]["degree_one"]
        assert res["x_star"] == [0.0, 0.0] and res["residual"] <= ZERO_RESIDUAL


def test_zero_finder_reads_the_degree_on_the_sphere_choose_r_samples(monkeypatch):
    # the boundary of Q is the sphere of radius R in X: for two X axes the
    # finder prices beta on the circle that level_sup_x walks (the name
    # predates that walk), every point at |z| = R, and at the origin for the
    # residual (the square's corners sat at R sqrt 2)
    both_x = model_saddle(1.0, 1.25, 2, (0, 1), 0.5)
    g = path_grid(0.2, R=1.0)
    real = minimax_mod._path_frame
    seen = []
    monkeypatch.setattr(minimax_mod, "_path_frame", lambda grid, z, eps: seen.append(z) or real(grid, z, eps))
    R = 1.0
    res = barycenter_zero_finder(g, both_x, 0.2, R=R)
    assert res["degree_evidence"] == {"winding": 1, "degree_one": True}
    zs = np.array(seen)
    assert np.array_equal(zs[:-1], minimax_mod._subspace_sphere(2, (0, 1), R, minimax_mod._BOUNDARY_SAMPLES))
    assert np.allclose(np.linalg.norm(zs[:-1], axis=1), R, rtol=1e-15, atol=0.0)
    assert not np.any(zs[-1])


def test_zero_finder_inconclusive_without_sign_change(monkeypatch):
    # a path profile off the origin breaks the symmetry the finder reads its
    # zero off: beta_X stays positive on a small Q around 0, so there is no
    # sign change and the residual at 0 is far above BETA_TOL
    eps = 0.3
    g = path_grid(eps, R=1.0)
    off_center = gausson(g, CONST.c0, center=[3.0, 0.0]).values
    monkeypatch.setattr(minimax_mod, "_path_gausson", lambda grid, c0: off_center)
    res = barycenter_zero_finder(g, CONST, eps, R=0.25)
    assert res["inconclusive"] and res["x_star"] is None
    assert res["residual"] > minimax_mod.BETA_TOL
    assert not res["degree_evidence"]["degree_one"]


def test_moved_frames_stay_out_of_the_direction_weights_cache():
    # the two-axis zero finder reads beta on eight moved frames and at the
    # origin; only the grid itself is cached, and level_d hits it
    g = CertificateConfig(potential=SADDLE).grid()
    minimax_mod._direction_table.cache_clear()
    barycenter_zero_finder(g, model_saddle(1.0, 1.25, 2, (0, 1), 0.5), 0.05, R=2.0)
    assert tuple(minimax_mod._direction_table.cache_info()) == (0, 1, 8, 1)  # hits, misses, maxsize, size
    level_d(g, SADDLE, 0.05)
    assert tuple(minimax_mod._direction_table.cache_info()) == (1, 1, 8, 1)


def test_cached_tables_are_read_only():
    # one lru_cache entry is handed to every caller, so none may write it
    g = Grid(2, 10.0, _odd_points(10.0, 0.4))
    for table in (
        direction_weights(g),
        direction_weights(replace(g, center=(0.5, 0.0))),
        grid_mod._dirichlet_eigenvalues(g),
    ):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0


def test_path_gausson_is_read_only_on_a_centered_grid():
    g = Grid(2, 10.0, _odd_points(10.0, 0.4))
    u0 = minimax_mod._path_gausson(g, SADDLE.c0)
    assert np.array_equal(u0, gausson(g, SADDLE.c0).values)
    sq = minimax_mod._path_terms(g, SADDLE.c0)[0]
    for cached in (u0, sq):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 1.0
    with pytest.raises(ValueError, match="centered at the origin"):
        minimax_mod._path_gausson(replace(g, center=(0.5, 0.0)), SADDLE.c0)


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
    assert cert.details["path_grid"] == (2, 6.0, 31)
    assert cert.D_eps_estimate <= cert.sup_X_J


@pytest.mark.parametrize("below, trips", [(0.5e-6, False), (2e-6, True)])
def test_certificate_d_eps_allowance_does_not_read_the_grid(monkeypatch, below, trips):
    # D_eps >= m_h(c0) = m(c0) to rounding, so the allowance is 1e-6 +
    # 1e-9 m(c0) (1.03e-6 here) at every h; the grid-read allowance
    # 1e-6 + m(c0) h^2 was 5.05 at this default h = 0.4
    real = minimax_mod.level_d
    m_c0 = m_closed_form(SADDLE.c0, SADDLE.dim)

    def low(*args, **kwargs):
        res = real(*args, **kwargs)
        res.value = m_c0 - below
        return res

    monkeypatch.setattr(minimax_mod, "level_d", low)
    cfg = CertificateConfig(potential=SADDLE, compute_numerical_m=False)
    assert cfg.grid().points_per_axis == 31
    if trips:
        with pytest.raises(AssertionError, match="rounding allowance"):
            certificate(0.4, cfg)
    else:
        assert certificate(0.4, cfg).D_eps_estimate == m_c0 - below


# D_eps of the Y-asymmetric potential at eps 0.4 / 0.2 / 0.1 on the boxes the
# retired doubling rule enlarged to (61^2 / 61^2 / 121^2 around the origin);
# 38.260921418178825 at eps 0.4 on L = 16
Y_ASYMMETRIC_D_EPS = {0.4: 38.26092141836975, 0.2: 38.460566659275315, 0.1: 38.51646367869894}


@pytest.mark.parametrize("eps", [0.4, 0.2, 0.1, 0.05, 0.025])
def test_certificate_solves_d_eps_once_on_the_frame_at_y_star(monkeypatch, eps):
    # V on Y is least at y* = (0, -1) and the D_eps minimizer sits near
    # y*/eps: one level_d solve on the 31^2 frame moved to the lattice node
    # nearest it holds the field (the origin-centred box cut it: ratio
    # 1.4e-3 on 31^2 at eps 0.4, and no box up to L = 24 held it at eps 0.05)
    pot = expression_potential(Y_ASYMMETRIC, 2, [0])
    assert pot.y_star == (0.0, -1.0)
    cfg = CertificateConfig(potential=pot, compute_numerical_m=False)
    grid, h = cfg.grid(), cfg.grid().spacing
    frames = []
    real = minimax_mod.level_d
    monkeypatch.setattr(minimax_mod, "level_d", lambda g, *a, **k: frames.append(g) or real(g, *a, **k))
    cert = certificate(eps, cfg)
    assert frames == [replace(grid, center=(0.0, round(-1.0 / (eps * h)) * h))]
    assert cert.details["path_grid"] == (2, 6.0, 31)
    assert cert.details["boundary_ratio"] <= minimax_mod._BOX_TAIL_RATIO
    assert not cert.inconclusive and len(cert.flags) == 5 and all(cert.flags.values())
    if eps in Y_ASYMMETRIC_D_EPS:
        assert cert.D_eps_estimate == pytest.approx(Y_ASYMMETRIC_D_EPS[eps], abs=1e-9)
    # the minimizer on the moved frame is no candidate of Theta_r
    assert not cert.details["theta"]["used_minimizer"]
    assert math.isnan(cert.details["theta"]["minimizer_distance"])
    assert cert.theta_r_estimate == cert.details["theta"]["origin_J"]


def test_d_eps_follows_the_small_eps_expansion_at_y_star():
    # the constrained minimizer concentrates where V on Y is least, so D_eps
    # = m(V(y*)) exp(eps^2 Delta V(y*) / 4) (1 + O(eps^4)), the expansion of
    # the path level at z = 0 taken at y* = (0, -1): V(y*) = 1.2, Delta V(y*)
    # = -0.25 + 0.05 = -0.2, m(1.2) = 38.5356083206
    pot = expression_potential(Y_ASYMMETRIC, 2, [0])
    assert m_closed_form(1.2, 2) == pytest.approx(38.5356083206, abs=1e-10)
    cfg = CertificateConfig(potential=pot, compute_numerical_m=False)
    for eps in (0.4, 0.2, 0.1, 0.05):
        predicted = m_closed_form(1.2, 2) * math.exp(-0.2 * eps**2 / 4)
        assert abs(certificate(eps, cfg).D_eps_estimate / predicted - 1.0) <= 0.05 * eps**4


def test_a_box_too_small_for_the_minimizer_is_inconclusive():
    # L = 4 at h = 0.4 (21^2) cuts the field on its followed frame (boundary
    # ratio 3.6e-4 at eps 0.4): the row is inconclusive["box"] rather than a
    # silent truncated D_eps, and no larger box is tried
    pot = expression_potential(Y_ASYMMETRIC, 2, [0])
    cert = certificate(0.4, CertificateConfig(potential=pot, solver_half_extent=4.0, compute_numerical_m=False))
    assert cert.details["path_grid"] == (2, 4.0, 21)
    assert cert.details["boundary_ratio"] == pytest.approx(3.6e-4, rel=0.05)
    assert cert.inconclusive == {"box": True}


def test_certificate_prices_no_path_row_twice(monkeypatch):
    # level_sup_x takes the J of the z = 0 row that level_theta priced: a
    # default sweep prices 30 rows, none twice within a certificate
    rows = []
    real = minimax_mod._path_row

    def counted(grid, potential, eps, z):
        rows.append((eps, tuple(np.asarray(z, dtype=float))))
        return real(grid, potential, eps, z)

    monkeypatch.setattr(minimax_mod, "_path_row", counted)
    sweep_eps((0.4, 0.2, 0.1, 0.05), CertificateConfig(potential=SADDLE))
    assert len(rows) == 30
    assert len(set(rows)) == len(rows)


def test_the_default_saddle_never_enlarges_the_box():
    # its minimizer's boundary ratio on 31^2 is 1.6e-8 - 3.2e-8 from eps
    # 0.4 to 0.03, and its D_eps within 3e-13 of that of L = 16
    cfg = CertificateConfig(potential=SADDLE, compute_numerical_m=False)
    for cert in sweep_eps((0.4, 0.2, 0.1, 0.05, 0.03), cfg):
        assert cert.details["path_grid"] == (2, 6.0, 31)
        assert cert.details["boundary_ratio"] <= 3.2e-8
        assert not cert.inconclusive


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


TINY_CERT = dict(h_target=0.5, solver_half_extent=6.0)


def _fake_ground_state(converged):
    """A ground_state stand-in that reports m(c0), converged or stalled."""

    def fake(grid, potential, eps, params=None, config=None):
        return NehariSolution(
            field=gausson(grid, SADDLE.c0),
            energy=m_closed_form(SADDLE.c0, 2),
            nehari_residual=0.0,
            iterations=7,
            converged=converged,
            diagnostics={"stalled": not converged, "rel_grad": 1e-6 if converged else 1e-2},
        )

    return fake


@pytest.fixture
def cold_ground_level():
    """An empty m(c0) cache before and after the test, so a stand-in
    ground_state is called and its result is not handed to a later test."""
    minimax_mod._ground_level.cache_clear()
    yield
    minimax_mod._ground_level.cache_clear()


@pytest.mark.parametrize("converged", [True, False])
def test_certificate_stalled_m_c0_is_inconclusive(monkeypatch, cold_ground_level, converged):
    monkeypatch.setattr(minimax_mod, "ground_state", _fake_ground_state(converged))
    cfg = CertificateConfig(potential=SADDLE, solver=SolverConfig(tol=1e-3, max_iters=60), **TINY_CERT)
    cert = certificate(0.4, cfg)
    assert cert.m_c0_numerical == m_closed_form(SADDLE.c0, 2)
    assert cert.inconclusive.get("m_c0_numerical", False) is (not converged)


def test_sweep_marks_every_row_with_a_stalled_m_c0(monkeypatch, cold_ground_level):
    # V(eps x) = c0 at every eps, so the rows share one m(c0) solve per
    # (grid, c0, solver), and a stalled solve marks each of them; carried
    # from the first row, it marked that row only
    solves = []
    fake = _fake_ground_state(False)
    monkeypatch.setattr(minimax_mod, "ground_state", lambda *a, **k: solves.append(a[0]) or fake(*a, **k))
    cfg = CertificateConfig(potential=SADDLE, solver=SolverConfig(tol=1e-3, max_iters=60), **TINY_CERT)
    certs = sweep_eps((0.4, 0.2, 0.1), cfg)
    assert solves == [cfg.grid()]
    assert [c.inconclusive.get("m_c0_numerical", False) for c in certs] == [True, True, True]
    assert all(c.m_c0_numerical == m_closed_form(SADDLE.c0, 2) for c in certs)


def test_sweep_solves_m_c0_once_and_each_row_is_its_certificate(monkeypatch, cold_ground_level):
    # the four default rows share one constant-potential problem; a row
    # read off the cache keeps the bits of the certificate that solves it
    solves = []
    real = minimax_mod.ground_state
    monkeypatch.setattr(minimax_mod, "ground_state", lambda *a, **k: solves.append(a[0]) or real(*a, **k))
    cfg = CertificateConfig(potential=SADDLE)
    certs = sweep_eps((0.4, 0.2, 0.1, 0.05), cfg)
    assert solves == [cfg.grid()]
    for cert in certs:
        minimax_mod._ground_level.cache_clear()
        assert certificate(cert.eps, cfg).to_dict() == cert.to_dict()
    assert len(solves) == 5


@pytest.mark.parametrize("unconverged_stage", [None, 0])
def test_level_d_unconverged_stage_is_inconclusive(monkeypatch, unconverged_stage):
    # level_d is one solve, its one stage; index 0 marks it unconverged
    real = minimax_mod.minimize_on_nehari
    solves = []

    def marked(*args, **kwargs):
        values, info = real(*args, **kwargs)
        if len(solves) == unconverged_stage:
            info = {**info, "converged": False}
        solves.append(info["converged"])
        return values, info

    monkeypatch.setattr(minimax_mod, "minimize_on_nehari", marked)
    cfg = CertificateConfig(potential=SADDLE, solver=SolverConfig(tol=1e-3, max_iters=60),
                            compute_numerical_m=False, **TINY_CERT)
    cert = certificate(0.4, cfg)
    converged = unconverged_stage is None
    assert len(solves) == 1
    assert cert.details["level_d"]["converged"] is converged
    assert cert.inconclusive.get("level_d", False) is (not converged)


def test_theta_takes_two_forward_transforms(monkeypatch):
    # on a fresh grid, Phi_eps(0) and its J (the path terms of u0) and the
    # minimizer's distance each read one forward transform, and none is
    # transformed back; the path terms are built once per grid, so every
    # later call reads one
    minimax_mod._path_terms.cache_clear()
    forward = count_grid_calls(monkeypatch, "sine_coefficients")
    inverse = count_grid_calls(monkeypatch, "laplacian_from_sine")
    passes = []
    original_dst1 = grid_mod._dst1
    monkeypatch.setattr(grid_mod, "_dst1", lambda a: passes.append(1) or original_dst1(a))
    g = Grid(2, 10.0, _odd_points(10.0, 0.5))
    minimizer = LevelDResult(0.0, GridField(g, 1.01 * gausson(g, SADDLE.c0).values), True, 0.0, [])
    for eps, transforms in ((0.25, 2), (0.25, 1), (0.1, 1)):
        forward.clear()
        passes.clear()
        rep = level_theta(g, SADDLE, eps, 0.5, minimizer)
        assert rep["feasible"]
        assert len(forward) == transforms and not inverse
        assert len(passes) == g.dim * transforms


@pytest.mark.parametrize("c_x", [-1.25, -0.3, 0.3, 1.25])
def test_x_symmetric_field_off_the_origin_has_beta_x_of_the_center_sign(rng, c_x):
    # pairing (c+s, y) with (c-s, y): the X-weights sum to
    # phi_y(c+s) - phi_y(s-c), phi_y(a) = a/sqrt(a^2+y^2), which has the sign of c
    g = Grid(2, 10.0, _odd_points(10.0, 0.3), center=(c_x, 0.0))
    for _ in range(5):
        values = smooth_field(g, rng).values.reshape(g.shape)
        values = (0.5 * (values + np.flip(values, axis=0))).ravel()
        beta_x = minimax_mod._barycenter_values(values * values, direction_weights(g))[0]
        assert np.sign(beta_x) == np.sign(c_x)
        assert beta_x != 0.0


def test_theta_prices_one_path_row_and_samples_v_once(monkeypatch):
    # Phi_eps(0), its J and the samples of the eps-norm distance all come
    # from one row; pricing the z = 0 row a second time for J was waste
    counts = {"_path_row": 0, "potential_samples": 0}

    def counted(name):
        real = getattr(minimax_mod, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    g = Grid(2, 10.0, _odd_points(10.0, 0.3))
    near = GridField(g, 1.01 * phi_path(g, SADDLE, 0.25, np.zeros(2)).values)
    for name in counts:
        monkeypatch.setattr(minimax_mod, name, counted(name))
    for r, used in ((1e-3, False), (0.5, True)):
        for name in counts:
            counts[name] = 0
        # a level below J(Phi_eps(0)), so the minimizer wins once in the ball
        minimizer = LevelDResult(0.0, near, True, 0.0, [])
        rep = level_theta(g, SADDLE, 0.25, r, minimizer)
        assert rep["feasible"] and rep["used_minimizer"] is used
        assert counts == {"_path_row": 1, "potential_samples": 1}


def test_path_levels_never_read_direction_weights(monkeypatch):
    # the walk of level_sup_x reads J only; beta is the zero finder's
    calls = []
    real = minimax_mod.direction_weights

    def counted(grid):
        calls.append(grid)
        return real(grid)

    monkeypatch.setattr(minimax_mod, "direction_weights", counted)
    g = Grid(2, 10.0, _odd_points(10.0, 0.3))
    path_levels(g, SADDLE, 0.1, np.outer(np.linspace(-2.0, 2.0, 9), [1.0, 0.0]))
    sup_x(g, SADDLE, 0.1, 0.0)
    assert calls == []


@pytest.mark.parametrize("record", ("GridField", "NehariSolution", "LevelDResult"))
def test_field_records_compare_by_identity(record):
    # a generated __eq__ would compare the node arrays inside a tuple and
    # raise on the truth value of an array; the records compare by identity
    g = Grid(2, 7.0, 33)
    fields = gausson(g, 0.0), gausson(g, 0.0)
    build = {
        "GridField": lambda u: u,
        "NehariSolution": lambda u: NehariSolution(u, 1.0, 0.0, 0, True),
        "LevelDResult": lambda u: LevelDResult(1.0, u, True, 0.0, []),
    }[record]
    a, b = (build(u) for u in fields)
    assert a == a and a != b
