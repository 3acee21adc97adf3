import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import lognls
from lognls.energy import SplitParams, energy, energy_terms, f1, f2, sq_log_sq
from lognls.grid import GridField, build_grid, integrate, integrate_array, kinetic_array, node_coordinates
from lognls.nehari import (
    SolverConfig,
    _reduced_objective,
    gausson,
    ground_state,
    m_closed_form,
    minimize_on_nehari,
    nehari_scale,
    project_nehari,
)

from conftest import smooth_field

PARAMS = SplitParams()


def bracketed_scale(u, potential, eps, params):
    """Independent root finder for the fiber zero: evaluate the pairing of
    t*u honestly at each trial t and bracket the sign change."""

    def fiber(t):
        eb = energy(GridField(u.grid, t * u.values), potential, eps, params)
        return eb.pairing_JprimeU / t**2

    t0 = nehari_scale(u, potential, eps)
    return brentq(fiber, t0 * math.exp(-2), t0 * math.exp(2), xtol=1e-14, rtol=1e-13)


def test_scale_of_projected_field_is_one(rng, grid_1d):
    u = project_nehari(smooth_field(grid_1d, rng, positive=True), 0.0, 1.0)
    assert nehari_scale(u, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_scale_closed_form_vs_bracketing(rng, grid_1d):
    for _ in range(100):
        u = smooth_field(grid_1d, rng, positive=True)
        t_closed = nehari_scale(u, 0.3, 1.0)
        t_root = bracketed_scale(u, 0.3, 1.0, PARAMS)
        assert abs(t_closed - t_root) <= 1e-10 * t_closed


def test_scale_compensation_law(rng, grid_1d):
    for _ in range(20):
        u = smooth_field(grid_1d, rng, positive=True)
        t = nehari_scale(u, 0.0, 1.0)
        for c in (0.1, 0.5, 2.0, 10.0):
            tc = nehari_scale(GridField(grid_1d, c * u.values), 0.0, 1.0)
            assert tc * c == pytest.approx(t, rel=1e-12)


def test_scale_gausson_is_one():
    g = build_grid(1, 10.0, 513)
    u = gausson(g, 0.5)
    t = nehari_scale(u, 0.5, 1.0)
    assert t == pytest.approx(1.0, abs=10 * g.spacing**2)


def test_scale_rejects_zero_field(grid_1d):
    with pytest.raises(ValueError):
        nehari_scale(GridField(grid_1d, np.zeros(grid_1d.num_nodes)), 0.0, 1.0)


def test_projection_idempotent(rng, grid_1d):
    u = smooth_field(grid_1d, rng, positive=True)
    p1 = project_nehari(u, 0.1, 1.0)
    p2 = project_nehari(p1, 0.1, 1.0)
    assert np.max(np.abs(p1.values - p2.values)) <= 1e-10 * np.max(np.abs(p1.values))


def test_projection_energy_identity(rng, grid_1d):
    for _ in range(20):
        u = project_nehari(smooth_field(grid_1d, rng, positive=True), 0.0, 1.0)
        eb = energy(u, 0.0, 1.0, PARAMS)
        assert eb.J == pytest.approx(eb.half_mass, rel=1e-8)


def test_fiber_identity(rng, grid_1d):
    # J(u) = ((2 log t + 1)/2) * mass(u) whenever t u is the projection
    for _ in range(20):
        u = smooth_field(grid_1d, rng, positive=True)
        t = nehari_scale(u, 0.0, 1.0)
        eb = energy(u, 0.0, 1.0, PARAMS)
        mass = 2 * eb.half_mass
        assert eb.J == pytest.approx((2 * math.log(t) + 1) / 2 * mass, rel=1e-10)


def test_gausson_solves_constant_problem():
    from lognls.energy import grad_L2

    errs = []
    for n in (129, 257, 513):
        g = build_grid(1, 10.0, n)
        u = gausson(g, 0.25)
        errs.append(np.max(np.abs(grad_L2(u, 0.25, 1.0, PARAMS).values)))
    assert 1.7 <= math.log2(errs[0] / errs[1]) <= 2.3
    assert 1.7 <= math.log2(errs[1] / errs[2]) <= 2.3


def test_gausson_point_values():
    g = build_grid(1, 10.0, 257)  # odd count puts a node at the origin
    u = gausson(g, 0.0)
    center = g.num_nodes // 2
    assert u.values[center] == pytest.approx(math.exp(0.5), rel=1e-14)
    assert u.values[center] == pytest.approx(1.6487213, abs=1e-7)


def test_gausson_radial_symmetry():
    g = build_grid(2, 7.0, 65)
    u = gausson(g, 0.3).reshaped()
    assert np.array_equal(u, u[::-1, :])
    assert np.array_equal(u, u[:, ::-1])
    assert np.array_equal(u, u.T)


def test_gausson_original_coordinates():
    g = build_grid(1, 10.0, 513)
    eps = 0.5
    u = gausson(g, 0.0, eps=eps)
    x = g.axis()
    expected = math.exp(0.5) * np.exp(-(x**2) / (2 * eps**2))
    assert np.allclose(u.values, expected, rtol=1e-14)


def test_gausson_rejects_center_near_boundary():
    g = build_grid(1, 10.0, 257)
    with pytest.raises(ValueError):
        gausson(g, 0.0, center=[7.0])
    gausson(g, 0.0, center=[5.5])  # 4 sigma still inside


def test_m_closed_form_values():
    assert m_closed_form(0.0, 1) == pytest.approx(2.409016, abs=2e-6)
    assert m_closed_form(0.0, 2) == pytest.approx(11.60666, abs=1e-4)
    assert m_closed_form(-1.0 + 1e-15, 1) == pytest.approx(0.8862269, abs=1e-6)
    with pytest.raises(ValueError):
        m_closed_form(-1.0, 1)
    with pytest.raises(ValueError):
        m_closed_form(0.0, 3)


def test_m_closed_form_matches_gausson_quadrature():
    for A, dim in ((0.0, 1), (0.7, 1), (0.0, 2)):
        g = build_grid(dim, 10.0 if dim == 1 else 7.0, 513 if dim == 1 else 129)
        u = gausson(g, A)
        mass = integrate(GridField(g, u.values**2))
        assert 0.5 * mass == pytest.approx(m_closed_form(A, dim), rel=1e-6)


def test_m_monotone_in_A():
    levels = [m_closed_form(a, 1) for a in (-0.5, 0.0, 0.5, 1.0)]
    assert all(l1 < l2 for l1, l2 in zip(levels, levels[1:]))


def test_ground_state_constant_1d():
    g = build_grid(1, 10.0, 512)
    sol = ground_state(g, 0.0, 1.0, config=SolverConfig(tol=1e-8, max_iters=20000))
    m = m_closed_form(0.0, 1)
    assert abs(sol.energy - m) / m < 0.01
    assert sol.converged
    assert not sol.diagnostics["below_closed_form"]
    # identities hold for the returned Nehari-projected iterate
    eb = energy(sol.field, 0.0, 1.0, PARAMS)
    assert eb.J == pytest.approx(eb.half_mass, rel=1e-8)
    assert abs(sol.nehari_residual) <= 1e-8 * eb.eps_norm_sq


def test_ground_state_matches_gausson_after_alignment():
    A = 0.5
    g = build_grid(1, 10.0, 257)
    sol = ground_state(g, A, 1.0, config=SolverConfig(tol=1e-7, max_iters=20000))
    u = sol.field
    pts = node_coordinates(g)[:, 0]
    mass = integrate(GridField(g, u.values**2))
    center = integrate(GridField(g, pts * u.values**2)) / mass
    aligned = gausson(g, A, center=[center])
    dist = math.sqrt(integrate(GridField(g, (u.values - aligned.values) ** 2)))
    assert dist <= 1e-2


def test_ground_state_monotone_energy():
    g = build_grid(1, 10.0, 128)
    sol = ground_state(g, 0.3, 1.0, config=SolverConfig(tol=1e-7, max_iters=5000))
    jh = np.array(sol.diagnostics["j_history"])
    guard = 1e-12 * np.maximum(1.0, np.abs(jh[:-1]))
    assert np.all(jh[1:] <= jh[:-1] + guard)


def test_ground_state_positive():
    g = build_grid(1, 10.0, 256)
    sol = ground_state(g, 0.0, 1.0, config=SolverConfig(tol=1e-7, max_iters=10000))
    assert np.all(sol.field.values >= 0)
    interior = np.abs(node_coordinates(g)[:, 0]) < 5.0
    assert np.all(sol.field.values[interior] > 1e-12)


def test_ground_state_numerical_ordering_in_A():
    g = build_grid(1, 10.0, 256)
    energies = []
    for A in (-0.5, 0.0, 0.5, 1.0):
        sol = ground_state(g, A, 1.0, config=SolverConfig(tol=1e-6, max_iters=4000))
        energies.append(sol.energy)
        assert not sol.diagnostics["below_closed_form"]
    assert all(e1 < e2 for e1, e2 in zip(energies, energies[1:]))


def test_ground_state_reports_nonconvergence():
    g = build_grid(1, 10.0, 128)
    sol = ground_state(g, 0.0, 1.0, config=SolverConfig(tol=1e-14, max_iters=5))
    assert not sol.converged
    assert sol.iterations == 5


def test_solution_serialization(grid_1d):
    sol = ground_state(grid_1d, 0.0, 1.0, config=SolverConfig(tol=1e-5, max_iters=2000))
    d = sol.to_dict()
    assert set(d) == {"energy", "nehari_residual", "iterations", "converged", "stalled", "rel_grad"}
    assert d["stalled"] is sol.diagnostics["stalled"]
    assert d["rel_grad"] == sol.diagnostics["rel_grad"]
    assert d["converged"] and d["rel_grad"] <= 1e-5


# ---------------------------------------------------------------------------
# one Laplacian per trial: fused kernel and reduced objective
# ---------------------------------------------------------------------------

def test_minimize_one_laplacian_per_trial(monkeypatch):
    import lognls.grid as grid_mod

    original = grid_mod.laplacian_array
    calls = []

    def counted(grid, values):
        calls.append(grid.points_per_axis)
        return original(grid, values)

    # patch every namespace that bound the stencil at import time
    for name, module in list(sys.modules.items()):
        if name.startswith("lognls") and getattr(module, "laplacian_array", None) is original:
            monkeypatch.setattr(module, "laplacian_array", counted)
    g = build_grid(2, 10.0, 65)
    vsamp = np.full(g.num_nodes, 1.0)
    start = gausson(g, 1.0).values
    config = SolverConfig(tol=1e-6, max_iters=4000)
    values, info = minimize_on_nehari(g, vsamp, start, config)
    assert info["converged"]
    assert info["trials"] >= info["iterations"] - 1  # every non-final iteration tries once at least
    assert 0 < len(calls) <= info["trials"] + 1  # one per trial, one for the start
    assert len(calls) <= 2.2 * info["iterations"]


def _direct_j(u, potential):
    return energy(u, potential, 1.0, PARAMS).J


@pytest.mark.parametrize("factor", [1.0, 50.0, 0.02])
def test_reduced_objective_matches_direct_energy(rng, grid_2d, factor):
    # near the Nehari set (factor 1) and with t far from 1 both ways
    u = project_nehari(smooth_field(grid_2d, rng, positive=True), 0.3, 1.0)
    c = factor * u.values * (1.0 + 0.01 * np.cos(node_coordinates(grid_2d)[:, 0]))
    _, kin, pot, mass, ent = energy_terms(grid_2d, c, np.full(grid_2d.num_nodes, 0.3))
    t, j_reduced = _reduced_objective(kin + pot - ent, mass)
    assert t == pytest.approx(nehari_scale(GridField(grid_2d, c), 0.3, 1.0), rel=1e-14)
    if factor != 1.0:
        assert abs(math.log(t)) > 3.0
    j_direct = _direct_j(GridField(grid_2d, t * c), 0.3)
    assert j_reduced == pytest.approx(j_direct, rel=1e-12)
    # on the Nehari set J = mass / 2
    assert j_reduced == pytest.approx(0.5 * t * t * mass, rel=1e-12)


def test_energy_terms_kernel(rng, grid_2d):
    u = smooth_field(grid_2d, rng)
    vsamp = 0.2 + 0.1 * np.sin(node_coordinates(grid_2d)[:, 1])
    lap, kin, pot, mass, ent = energy_terms(grid_2d, u.values, vsamp)
    assert np.array_equal(lap, lognls.grid.laplacian_array(grid_2d, u.values))
    assert kin == kinetic_array(grid_2d, u.values, u.values)
    assert pot == integrate_array(grid_2d, vsamp * u.values**2)
    assert mass == integrate_array(grid_2d, u.values**2)
    assert ent == pytest.approx(integrate_array(grid_2d, sq_log_sq(u.values)), rel=1e-14)


def _reference_pairing_and_mass(grid, values, vsamp):
    """The evaluator the solver used before the fused kernel, kept as a
    reference: kinetic form, potential, entropy and mass summed separately."""
    sq = values * values
    a = np.abs(values)
    log_sq = 2.0 * np.log(np.where(a > 0, a, 1.0))
    kin = kinetic_array(grid, values, values)
    pot = integrate_array(grid, vsamp * sq)
    ent = integrate_array(grid, np.where(sq > 0, sq * log_sq, 0.0))
    return kin, pot, integrate_array(grid, sq), ent


@pytest.mark.parametrize("dim", [1, 2])
def test_scale_projection_energy_unchanged_by_kernel(rng, grid_1d, grid_2d, dim):
    grid = grid_1d if dim == 1 else grid_2d
    for potential in (0.0, 0.3):
        vsamp = np.full(grid.num_nodes, potential)
        for positive in (True, False):
            u = smooth_field(grid, rng, positive=positive)
            kin, pot, mass, ent = _reference_pairing_and_mass(grid, u.values, vsamp)
            pairing = kin + pot - ent
            t = math.exp(float(np.clip(pairing / (2.0 * mass), -700.0, 700.0)))
            assert nehari_scale(u, potential, 1.0) == t
            assert np.array_equal(project_nehari(u, potential, 1.0).values, t * u.values)
            eb = energy(u, potential, 1.0, PARAMS)
            eps_norm_sq = kin + pot + mass
            assert eb.J == 0.5 * eps_norm_sq - 0.5 * ent
            assert eb.Phi == 0.5 * eps_norm_sq - integrate_array(grid, f2(u.values, PARAMS))
            assert eb.Psi == integrate_array(grid, f1(u.values, PARAMS))
            assert eb.pairing_JprimeU == pairing
            assert eb.half_mass == 0.5 * mass
            assert eb.eps_norm_sq == eps_norm_sq
