import math

import numpy as np
import pytest
from scipy.optimize import brentq

import lognls.grid as grid_mod
import lognls.nehari as nehari_mod
from lognls.energy import SplitParams, _projected_level, _safe_log_sq, energy, energy_terms, f1, f2
from lognls.grid import (
    Grid,
    GridField,
    integrate_array,
    laplacian_array,
    shifted_laplacian_solve,
    sine_coefficients,
    sine_kinetic,
)
from lognls.nehari import (
    SolverConfig,
    gausson,
    ground_state,
    m_closed_form,
    minimize_on_nehari,
)
from lognls.expression import expression_potential
from lognls.oracles import nehari_scale, sq_log_sq
from lognls.potential import constant_potential, model_saddle

from conftest import count_grid_calls, node_table, smooth_field

PARAMS = SplitParams()

# a 1-D well whose ground state is not a Gausson: the Gausson seed is the
# discrete solution of every constant potential, so a solve that must
# iterate needs a potential like this one
WELL = expression_potential("0.3 - 0.3*np.exp(-z0**2)", 1, [0])


def bracketed_scale(u, potential, eps, params):
    """Independent root finder for the fiber zero: evaluate the pairing of
    t*u honestly at each trial t and bracket the sign change."""

    def fiber(t):
        eb = energy(GridField(u.grid, t * u.values), potential, eps, params)
        return eb["pairing_JprimeU"] / t**2

    t0 = nehari_scale(u, potential, eps)
    return brentq(fiber, t0 * math.exp(-2), t0 * math.exp(2), xtol=1e-14, rtol=1e-13)


def project_nehari(u, potential, eps):
    """u rescaled onto the Nehari set by its closed-form scale."""
    return GridField(u.grid, nehari_scale(u, potential, eps) * u.values)


def kinetic(grid, values):
    """The Laplacian's own quadratic form -h^N sum(Lap u * u)."""
    return -integrate_array(grid, laplacian_array(grid, values) * values)


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
    g = Grid(1, 10.0, 513)
    u = gausson(g, 0.5)
    t = nehari_scale(u, 0.5, 1.0)
    assert t == pytest.approx(1.0, abs=1e-12)


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
        assert eb["J"] == pytest.approx(eb["half_mass"], rel=1e-8)


def test_fiber_identity(rng, grid_1d):
    # J(u) = ((2 log t + 1)/2) * mass(u) whenever t u is the projection
    for _ in range(20):
        u = smooth_field(grid_1d, rng, positive=True)
        t = nehari_scale(u, 0.0, 1.0)
        eb = energy(u, 0.0, 1.0, PARAMS)
        mass = 2 * eb["half_mass"]
        assert eb["J"] == pytest.approx((2 * math.log(t) + 1) / 2 * mass, rel=1e-10)


def test_gausson_solves_constant_problem():
    from lognls.oracles import grad_L2

    # exactly, on the grid: the residual is rounding at every n
    for n in (129, 257, 513):
        g = Grid(1, 10.0, n)
        u = gausson(g, 0.25)
        assert np.max(np.abs(grad_L2(u, 0.25, 1.0, PARAMS).values)) <= 1e-10


def test_gausson_point_values():
    g = Grid(1, 10.0, 257)  # odd count puts a node at the origin
    u = gausson(g, 0.0)
    center = g.num_nodes // 2
    assert u.values[center] == pytest.approx(math.exp(0.5), rel=1e-14)
    assert u.values[center] == pytest.approx(1.6487213, abs=1e-7)


def test_gausson_radial_symmetry():
    g = Grid(2, 7.0, 65)
    u = gausson(g, 0.3).reshaped()
    assert np.array_equal(u, u[::-1, :])
    assert np.array_equal(u, u[:, ::-1])
    assert np.array_equal(u, u.T)


def test_gausson_rejects_center_near_boundary():
    g = Grid(1, 10.0, 257)
    with pytest.raises(ValueError):
        gausson(g, 0.0, center=[7.0])
    gausson(g, 0.0, center=[5.5])  # 4 sigma still inside


def gausson_from_coordinates(grid, A, center=None):
    """The Gausson from the (nodes x N) coordinate table, as the oracle."""
    c = np.zeros(grid.dim) if center is None else np.asarray(center, dtype=float)
    r2 = np.sum((node_table(grid) - c) ** 2, axis=1)
    return math.exp(0.5 * (grid.dim + A)) * np.exp(-r2 / 2.0)


# the centered grids of both dimensions at a coarse and the finest
# benchmark size, and a grid on a moved frame
GAUSSON_GRIDS = [Grid(dim, 10.0, n) for dim in (1, 2) for n in (51, 269)] + [Grid(2, 10.0, 51, center=(3.0, -1.0))]


@pytest.mark.parametrize("grid", GAUSSON_GRIDS, ids=lambda g: f"{g.dim}d-n{g.points_per_axis}" + ("-moved" * any(g.center)))
@pytest.mark.parametrize("off_center", (False, True))
def test_gausson_matches_coordinate_table_bit_for_bit(grid, off_center):
    c = np.add(grid.center, (1.5, -2.25)[: grid.dim]) if off_center else None
    assert np.array_equal(gausson(grid, 0.3, c).values, gausson_from_coordinates(grid, 0.3, c))


def test_gausson_peak_memory_is_at_most_two_fields():
    import tracemalloc

    g = Grid(2, 10.0, 269)
    field_bytes = g.num_nodes * 8
    tracemalloc.start()
    try:
        gausson(g, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * field_bytes, peak / field_bytes


def _peak_fields(grid, solve) -> float:
    """Peak traced memory of ``solve()`` in fields of n^N floats.  The grid's
    cached direction weights are built first, so the peak is the solve's own
    working set, whatever ran before it."""
    import tracemalloc

    from lognls.minimax import direction_weights

    direction_weights(grid)
    tracemalloc.start()
    try:
        solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (grid.num_nodes * 8)


GUARD_SADDLE = model_saddle(1.0, 1.25, 2, [0], 0.5)


def test_ground_state_at_its_seed_peaks_within_five_fields():
    # V = 1 at 269^2 stops at its Gausson seed after one gradient; the
    # constant potential is a zero-stride view and the solver owns the seed.
    # The spec of --V const:c is sampled as its value too: sampled through
    # the coordinate table it peaked at 5.7 fields here
    g = Grid(2, 10.0, 269)
    config = SolverConfig(tol=1e-6, max_iters=4000)
    for potential in (1.0, constant_potential(0.1, 2)):
        fields = _peak_fields(g, lambda: ground_state(g, potential, 1.0, config=config))
        assert fields <= 5.0, (potential, fields)


def test_saddle_ground_state_peaks_within_fifteen_fields():
    # a multi-iteration solve with a full L-BFGS memory (three pairs)
    g = Grid(2, 10.0, 269)
    config = SolverConfig(tol=1e-6, max_iters=4000)
    sols = []
    fields = _peak_fields(g, lambda: sols.append(ground_state(g, GUARD_SADDLE, 0.4, config=config)))
    assert sols[0].converged and sols[0].iterations > 2 * nehari_mod._LBFGS_MEMORY
    assert fields <= 15.0, fields


def test_level_d_peaks_within_seventeen_and_a_half_fields():
    # the tilted solve adds the X direction weights, the seed its caller
    # holds and the tilt's scratch
    from lognls.minimax import level_d

    g = Grid(2, 10.0, 269)
    results = []
    fields = _peak_fields(g, lambda: results.append(level_d(g, GUARD_SADDLE, 0.4)))
    assert results[0].converged and results[0].stages[0]["iterations"] > 2 * nehari_mod._LBFGS_MEMORY
    assert fields <= 17.5, fields


def test_constant_potential_solves_give_the_bytes_of_full_sampling(monkeypatch):
    # the zero-stride view of a non-dyadic constant against the n^N array
    # of the same value: the one-iteration ground state, and a solve from a
    # wider profile, which is no rescaled Gausson
    g = Grid(2, 10.0, 135)
    config = SolverConfig(tol=1e-6, max_iters=4000)
    sol = ground_state(g, 0.1, 1.0, config=config)
    view = nehari_mod.potential_samples(0.1, g, 1.0)
    values, info = minimize_on_nehari(g, view, gausson(g, 0.1).values ** 0.8, config)

    def full(potential, grid, eps):
        return np.full(grid.num_nodes, float(potential))

    monkeypatch.setattr(nehari_mod, "potential_samples", full)
    ref = ground_state(g, 0.1, 1.0, config=config)
    assert sol.field.values.tobytes() == ref.field.values.tobytes()
    assert (sol.energy, sol.nehari_residual) == (ref.energy, ref.nehari_residual)
    assert sol.diagnostics == ref.diagnostics and sol.iterations == 1
    ref_values, ref_info = minimize_on_nehari(g, full(0.1, g, 1.0), gausson(g, 0.1).values ** 0.8, config)
    assert values.tobytes() == ref_values.tobytes()
    assert info == ref_info and info["iterations"] > 1


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
        g = Grid(dim, 10.0 if dim == 1 else 7.0, 513 if dim == 1 else 129)
        u = gausson(g, A)
        mass = integrate_array(g, u.values**2)
        assert 0.5 * mass == pytest.approx(m_closed_form(A, dim), rel=1e-6)


def test_m_monotone_in_A():
    levels = [m_closed_form(a, 1) for a in (-0.5, 0.0, 0.5, 1.0)]
    assert all(l1 < l2 for l1, l2 in zip(levels, levels[1:]))


def test_ground_state_constant_1d():
    g = Grid(1, 10.0, 512)
    sol = ground_state(g, 0.0, 1.0, config=SolverConfig(tol=1e-8, max_iters=20000))
    m = m_closed_form(0.0, 1)
    assert abs(sol.energy - m) / m <= 1e-12
    assert sol.converged
    assert not sol.diagnostics["below_closed_form"]
    # identities hold for the returned Nehari-projected iterate
    eb = energy(sol.field, 0.0, 1.0, PARAMS)
    assert eb["J"] == pytest.approx(eb["half_mass"], rel=1e-8)
    assert abs(sol.nehari_residual) <= 1e-8 * eb["eps_norm_sq"]


def test_ground_state_matches_gausson_after_alignment():
    A = 0.5
    g = Grid(1, 10.0, 257)
    sol = ground_state(g, A, 1.0, config=SolverConfig(tol=1e-7, max_iters=20000))
    u = sol.field
    pts = node_table(g)[:, 0]
    mass = integrate_array(g, u.values**2)
    center = integrate_array(g, pts * u.values**2) / mass
    aligned = gausson(g, A, center=[center])
    dist = math.sqrt(integrate_array(g, (u.values - aligned.values) ** 2))
    assert dist <= 1e-2


def test_ground_state_monotone_energy():
    g = Grid(1, 10.0, 128)
    sol = ground_state(g, WELL, 1.0, config=SolverConfig(tol=1e-7, max_iters=5000))
    jh = np.array(sol.diagnostics["j_history"])
    assert sol.converged and len(jh) > 10
    guard = 1e-12 * np.maximum(1.0, np.abs(jh[:-1]))
    assert np.all(jh[1:] <= jh[:-1] + guard)


def test_ground_state_positive():
    g = Grid(1, 10.0, 256)
    sol = ground_state(g, 0.0, 1.0, config=SolverConfig(tol=1e-7, max_iters=10000))
    assert np.all(sol.field.values >= 0)
    interior = np.abs(node_table(g)[:, 0]) < 5.0
    assert np.all(sol.field.values[interior] > 1e-12)


def test_ground_state_numerical_ordering_in_A():
    g = Grid(1, 10.0, 256)
    energies = []
    for A in (-0.5, 0.0, 0.5, 1.0):
        sol = ground_state(g, A, 1.0, config=SolverConfig(tol=1e-6, max_iters=4000))
        energies.append(sol.energy)
        assert not sol.diagnostics["below_closed_form"]
    assert all(e1 < e2 for e1, e2 in zip(energies, energies[1:]))


def test_ground_state_reports_nonconvergence():
    g = Grid(1, 10.0, 128)
    sol = ground_state(g, WELL, 1.0, config=SolverConfig(tol=1e-14, max_iters=5))
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
# one forward transform per trial: fused kernel and reduced objective
# ---------------------------------------------------------------------------

def _saddle_at_eps_one(g):
    """The model saddle sampled at eps = 1, where the Gausson start is not
    the solution."""
    pts = node_table(g)
    return 1.0 + 0.25 * (1.0 + pts[:, 1] ** 2) / (1.0 + np.sum(pts**2, axis=1))


def test_minimize_one_forward_transform_per_trial(monkeypatch):
    forward = count_grid_calls(monkeypatch, "sine_coefficients")
    inverse = count_grid_calls(monkeypatch, "laplacian_from_sine")
    solves = count_grid_calls(monkeypatch, "shifted_laplacian_solve")
    applies = count_grid_calls(monkeypatch, "laplacian_array")
    passes = []
    original_dst1 = grid_mod._dst1
    monkeypatch.setattr(grid_mod, "_dst1", lambda a: passes.append(1) or original_dst1(a))
    g = Grid(2, 10.0, 65)
    start = gausson(g, 1.0).values
    config = SolverConfig(tol=1e-6, max_iters=4000)
    values, info = minimize_on_nehari(g, _saddle_at_eps_one(g), start, config)
    assert info["converged"]
    steps = info["iterations"] - 1  # every iteration but the last steps once
    assert len(info["j_history"]) == steps + 1
    assert info["trials"] >= steps
    # one solve per step, and one forward transform per trial, one for the
    # start and one inside each solve
    assert len(solves) == steps
    assert len(forward) == info["trials"] + 1 + steps
    # the inverse half to Lap u: one per accepted step, one for the start
    assert len(inverse) == steps + 1
    assert not applies
    assert len(passes) == g.dim * (len(forward) + len(inverse) + len(solves))
    assert info["trials"] <= 1.2 * info["iterations"]


def _plain_sobolev_step(g, vsamp, u, lap):
    """The scaled Sobolev direction S (-Lap + sigma)^-1 S g of the earlier
    descent, written out as it was: the reference for an empty memory."""
    sigma = 1.0 + float(np.mean(vsamp))
    log_sq = _safe_log_sq(u)
    grad = -lap + vsamp * u - u * log_sq
    scale = np.sqrt(sigma / np.maximum(sigma, vsamp - 1.0 - log_sq))
    d = shifted_laplacian_solve(g, scale * grad, sigma)
    d *= scale
    return d


def test_first_trial_with_an_empty_memory_is_the_scaled_sobolev_step(monkeypatch):
    g = Grid(2, 10.0, 65)
    vsamp = _saddle_at_eps_one(g)
    start = gausson(g, 1.0).values
    trials = []
    real = nehari_mod.energy_terms

    def recorded(grid, values, v):
        trials.append(values.copy())
        return real(grid, values, v)

    monkeypatch.setattr(nehari_mod, "energy_terms", recorded)
    minimize_on_nehari(g, vsamp, start.copy(), SolverConfig(tol=1e-6, max_iters=1))
    # the start is projected onto the Nehari set, then the first trial
    # takes the full step alpha = 1
    t = _projected_level(*real(g, start, vsamp)[2:])[0]
    u = t * start
    lap = laplacian_array(g, start)
    lap *= t
    d = _plain_sobolev_step(g, vsamp, u, lap)
    assert np.array_equal(trials[0], start)
    assert np.array_equal(trials[1], np.maximum(u - d, 0.5 * u))


def test_a_direction_that_does_not_descend_falls_back_to_the_plain_step(monkeypatch):
    # a two-loop recursion turned uphill whenever it has pairs: each such
    # direction fails <g, d> > 0, the memory is cleared, and the run is the
    # plain scaled Sobolev descent (no memory) bit for bit
    g = Grid(2, 10.0, 65)
    vsamp = _saddle_at_eps_one(g)
    start = gausson(g, 1.0).values
    config = SolverConfig(tol=1e-6, max_iters=4000)
    _, quasi_newton = minimize_on_nehari(g, vsamp, start.copy(), config)

    monkeypatch.setattr(nehari_mod, "_LBFGS_MEMORY", 0)
    plain_values, plain = minimize_on_nehari(g, vsamp, start.copy(), config)
    monkeypatch.undo()

    real = nehari_mod._lbfgs_direction
    uphill = []

    def turned(grad, pairs, precondition):
        d = real(grad, pairs, precondition)
        if pairs:
            uphill.append(len(pairs))
            return -d
        return d

    monkeypatch.setattr(nehari_mod, "_lbfgs_direction", turned)
    values, info = minimize_on_nehari(g, vsamp, start.copy(), config)
    assert uphill and max(uphill) == 1  # cleared every time it was filled
    assert np.array_equal(values, plain_values)
    assert info["j_history"] == plain["j_history"] and info["trials"] == plain["trials"]
    assert plain["converged"] and quasi_newton["converged"]
    assert quasi_newton["iterations"] < plain["iterations"]


class _RejectAfterStart:
    """A constraint that takes the start as it is and then cannot retract
    any trial."""

    def __init__(self):
        self.calls = 0

    def retract(self, c):
        self.calls += 1
        return self.calls == 1

    def reduce(self, g, u):
        pass


def test_a_step_whose_every_trial_is_rejected_stalls():
    # every backtracking trial of the first step is refused, so the descent
    # stops there: stalled, not converged, and J recorded at the start only
    g = Grid(2, 6.0, 31)
    vsamp = nehari_mod.potential_samples(GUARD_SADDLE, g, 0.4)
    constraint = _RejectAfterStart()
    config = SolverConfig(tol=1e-6, max_iters=4000)
    _, info = minimize_on_nehari(g, vsamp, gausson(g, 1.0).values, config, constraint)
    assert info["stalled"] and not info["converged"]
    assert info["iterations"] == 1
    assert info["trials"] == nehari_mod._MAX_BACKTRACKS == constraint.calls - 1
    assert len(info["j_history"]) == 1


def test_lbfgs_direction_meets_the_newest_secant_pair(rng):
    # the BFGS update maps the newest gradient change y back onto its step s
    n = 40
    a = rng.standard_normal((n, n))
    hess = a @ a.T + n * np.eye(n)
    pairs = []
    for _ in range(3):
        s = rng.standard_normal(n)
        y = hess @ s
        pairs.append((s, y, 1.0 / float(np.dot(s, y))))
    s, y, _ = pairs[-1]
    d = nehari_mod._lbfgs_direction(y, pairs, lambda v: 0.5 * v)
    assert np.max(np.abs(d - s)) <= 1e-12 * np.max(np.abs(s))
    g = rng.standard_normal(n)
    assert np.array_equal(nehari_mod._lbfgs_direction(g, [], lambda v: 0.5 * v), 0.5 * g)


def _direct_j(u, potential):
    return energy(u, potential, 1.0, PARAMS)["J"]


@pytest.mark.parametrize("factor", [1.0, 50.0, 0.02])
def test_reduced_objective_matches_direct_energy(rng, grid_2d, factor):
    # near the Nehari set (factor 1) and with t far from 1 both ways
    u = project_nehari(smooth_field(grid_2d, rng, positive=True), 0.3, 1.0)
    c = factor * u.values * (1.0 + 0.01 * np.cos(node_table(grid_2d)[:, 0]))
    _, _, kin, pot, mass, ent = energy_terms(grid_2d, c, np.full(grid_2d.num_nodes, 0.3))
    t, j_reduced, _ = _projected_level(kin, pot, mass, ent)
    assert t == pytest.approx(nehari_scale(GridField(grid_2d, c), 0.3, 1.0), rel=1e-14)
    if factor != 1.0:
        assert abs(math.log(t)) > 3.0
    j_direct = _direct_j(GridField(grid_2d, t * c), 0.3)
    assert j_reduced == pytest.approx(j_direct, rel=1e-12)
    # on the Nehari set J = mass / 2
    assert j_reduced == pytest.approx(0.5 * t * t * mass, rel=1e-12)


def test_energy_terms_kernel(rng, grid_2d):
    from scipy.fft import dstn

    u = smooth_field(grid_2d, rng)
    vsamp = 0.2 + 0.1 * np.sin(node_table(grid_2d)[:, 1])
    coeffs, sq, kin, pot, mass, ent = energy_terms(grid_2d, u.values, vsamp)
    expected = dstn(u.reshaped(), type=1)
    assert np.max(np.abs(coeffs.reshape(grid_2d.shape) - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.array_equal(sq, u.values * u.values)
    # Parseval's sum and the nodal sum of the same form round differently
    assert kin == pytest.approx(kinetic(grid_2d, u.values), rel=1e-14)
    assert pot == integrate_array(grid_2d, vsamp * u.values**2)
    assert mass == integrate_array(grid_2d, u.values**2)
    assert ent == pytest.approx(integrate_array(grid_2d, sq_log_sq(u.values)), rel=1e-14)


def _reference_pairing_and_mass(grid, values, vsamp):
    """The evaluator the solver used before the fused kernel, kept as a
    reference: kinetic form, potential, entropy and mass summed separately.
    The kinetic form is taken in the sine basis, as the kernel sums it."""
    sq = values * values
    a = np.abs(values)
    log_sq = 2.0 * np.log(np.where(a > 0, a, 1.0))
    kin = sine_kinetic(grid, sine_coefficients(grid, values))
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
            eb = energy(u, potential, 1.0, PARAMS)
            eps_norm_sq = kin + pot + mass
            assert eb["J"] == 0.5 * eps_norm_sq - 0.5 * ent
            assert eb["Phi"] == 0.5 * eps_norm_sq - integrate_array(grid, f2(u.values, PARAMS))
            assert eb["Psi"] == integrate_array(grid, f1(u.values, PARAMS))
            assert eb["pairing_JprimeU"] == pairing
            assert eb["half_mass"] == 0.5 * mass
            assert eb["eps_norm_sq"] == eps_norm_sq


# ---------------------------------------------------------------------------
# scaled Sobolev step: iteration counts flat in the mesh
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [51, 65, 135, 269])
def test_ground_state_iterations_do_not_grow_with_the_mesh(n):
    # the L2 step took 112 / 119 / 547 iterations here and the Sobolev step
    # on the stencil 29 / 27 / 17; on the sine-spectral operator the Gausson
    # seed is the discrete ground state, and its level is the closed form
    sol = ground_state(Grid(2, 10.0, n), 1.0, 1.0, config=SolverConfig(tol=1e-6, max_iters=4000))
    assert sol.converged
    assert sol.iterations == 1
    m = m_closed_form(1.0, 2)
    assert abs(sol.energy - m) <= 1e-12 * m
    assert not sol.diagnostics["below_closed_form"]


def test_below_closed_form_trips_at_one_part_in_a_million(monkeypatch):
    # the allowance does not grow with h: an energy 1e-6 relative below the
    # closed form is flagged on a coarse grid too
    import lognls.nehari as nehari_mod

    g = Grid(2, 10.0, 51)
    real = nehari_mod.field_energy

    def low(grid, values, vsamp):
        energy, pairing = real(grid, values, vsamp)
        return energy * (1.0 - 1e-6), pairing

    monkeypatch.setattr(nehari_mod, "field_energy", low)
    sol = ground_state(g, 1.0, 1.0, config=SolverConfig(tol=1e-6, max_iters=4000))
    assert sol.diagnostics["below_closed_form"]


def test_ground_state_from_a_seed_with_zero_nodes():
    # the Gausson seed underflows to exact zeros in the far tail; for V = 0
    # it is the discrete solution all the same, and for a well whose
    # solution is not a Gausson the step must fill the zeros in from 0 and
    # still reach the tight tolerance
    g = Grid(1, 40.0, 801)
    assert np.count_nonzero(gausson(g, 0.0).values == 0.0) == 28
    sol = ground_state(g, 0.0, 1.0, config=SolverConfig(tol=1e-8))
    assert sol.converged and sol.diagnostics["rel_grad"] <= 1e-8
    assert np.all(sol.field.values >= 0)
    assert sol.energy == pytest.approx(m_closed_form(0.0, 1), rel=1e-12)
    sol = ground_state(g, WELL, 1.0, config=SolverConfig(tol=1e-8))
    assert sol.converged and sol.diagnostics["rel_grad"] <= 1e-8
    assert sol.iterations > 1
    assert np.all(sol.field.values > 0)
