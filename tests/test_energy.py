import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lognls.energy as energy_mod
from lognls.energy import (
    CONVEXITY_THRESHOLD,
    SplitParams,
    energy,
    f1,
    f1_prime,
    f2,
    energy_terms,
    potential_samples,
    prox_f1,
)
from lognls.grid import Grid, GridField, integrate_array, sine_coefficients, sine_kinetic
import lognls.nehari as nehari_mod
from lognls.minimax import _path_frame, _path_row
from lognls.nehari import SolverConfig, gausson, m_closed_form, minimize_on_nehari
from lognls.expression import expression_potential
from lognls.potential import PotentialSpec, constant_potential, model_saddle

from conftest import f2_prime, grad_L2, log_sobolev_slack, nehari_scale, smooth_field, sq_log_sq

PARAMS = SplitParams()


def test_split_params_validation():
    SplitParams(delta=CONVEXITY_THRESHOLD)  # boundary value allowed
    with pytest.raises(ValueError):
        SplitParams(delta=0.3)
    with pytest.raises(ValueError):
        SplitParams(delta=0.0)


def test_f1_values():
    assert f1(0.0, PARAMS) == 0.0
    # inner branch: -s^2 log(s^2)/2 evaluated directly
    expected = -0.5 * 0.05**2 * math.log(0.05**2)
    assert f1(0.05, PARAMS) == pytest.approx(expected, abs=1e-12)
    assert f1(0.05, PARAMS) == pytest.approx(0.00748933, abs=1e-8)


def test_f1_even(rng):
    s = rng.uniform(-5, 5, size=200)
    assert_allclose(f1(s, PARAMS), f1(-s, PARAMS), rtol=0, atol=0)


def test_f2_values():
    assert f2(0.05, PARAMS) == 0.0
    assert f2(PARAMS.delta, PARAMS) == pytest.approx(0.0, abs=1e-15)
    diff = f2(2.0, PARAMS) - f1(2.0, PARAMS)
    assert diff == pytest.approx(2.7725887, abs=1e-6)
    assert diff == pytest.approx(0.5 * 4.0 * math.log(4.0), abs=1e-12)


def test_derivative_values():
    assert f2_prime(PARAMS.delta, PARAMS) == pytest.approx(0.0, abs=1e-15)
    assert f1_prime(0.05, PARAMS) == pytest.approx(-0.05 * (math.log(0.0025) + 1), abs=1e-12)
    assert f1_prime(0.05, PARAMS) == pytest.approx(0.2495733, abs=1e-6)
    assert f1_prime(0.0, PARAMS) == 0.0


def test_f1_prime_sign(rng):
    s = rng.uniform(-10, 10, size=1000)
    assert np.all(f1_prime(s, PARAMS) * s >= 0)


def test_derivatives_continuous_at_splice():
    for d in (0.05, 0.1, 0.2):
        params = SplitParams(delta=d)
        below, above = d * (1 - 1e-9), d * (1 + 1e-9)
        assert f1_prime(below, params) == pytest.approx(f1_prime(above, params), abs=1e-8)
        assert f2_prime(below, params) == pytest.approx(f2_prime(above, params), abs=1e-8)


def test_splitting_identity_suite():
    s = np.concatenate([np.geomspace(1e-8, 10.0, 5000), -np.geomspace(1e-8, 10.0, 5000)])
    for d in (0.05, 0.1, 0.2):
        params = SplitParams(delta=d)
        lhs = f2(s, params) - f1(s, params)
        assert np.max(np.abs(lhs - sq_log_sq(s) / 2)) <= 1e-12


def test_f1_midpoint_convexity():
    s = np.linspace(1e-6, 10.0, 400)
    for d in (0.05, 0.1, CONVEXITY_THRESHOLD):
        params = SplitParams(delta=d)
        s1, s2 = np.meshgrid(s[::7], s[::7])
        mid = f1(0.5 * (s1 + s2), params)
        avg = 0.5 * (f1(s1, params) + f1(s2, params))
        assert np.all(mid <= avg + 1e-12)


def test_f2_prime_growth_bound():
    # |f2'(s)| <= C |s|^{p-1} with C fitted on a coarse grid, checked densely
    p = 4.0
    coarse = np.geomspace(PARAMS.delta, 100.0, 200)
    c_hat = np.max(np.abs(f2_prime(coarse, PARAMS)) / coarse ** (p - 1))
    dense = np.geomspace(PARAMS.delta, 100.0, 5000)
    assert np.all(np.abs(f2_prime(dense, PARAMS)) <= c_hat * 1.001 * dense ** (p - 1))
    assert np.isfinite(c_hat)


def test_energy_zero_field(grid_1d):
    eb = energy(GridField(grid_1d, np.zeros(grid_1d.num_nodes)), 0.0, 1.0, PARAMS)
    for val in eb.values():
        assert val == 0.0


def test_energy_gausson_closed_form():
    for A, dim, n, tol in ((0.0, 1, 513, 5e-4), (0.5, 1, 513, 5e-4), (0.0, 2, 129, 5e-3)):
        g = Grid(dim, 10.0 if dim == 1 else 7.0, n)
        u = gausson(g, A)
        eb = energy(u, A, 0.37, PARAMS)
        assert eb["J"] == pytest.approx(m_closed_form(A, dim), rel=tol)
        assert eb["Psi"] >= 0


def test_energy_identity_random_fields(rng, grid_1d):
    for _ in range(10):
        u = smooth_field(grid_1d, rng)
        eb = energy(u, 0.25, 1.0, PARAMS)
        # J - J'(u)u/2 = mass/2 and J = Phi + Psi are asserted inside energy();
        # re-check the identity from the returned pieces
        assert eb["J"] - 0.5 * eb["pairing_JprimeU"] == pytest.approx(eb["half_mass"], rel=1e-10)
        assert eb["J"] == pytest.approx(eb["Phi"] + eb["Psi"], rel=1e-12, abs=1e-12)


def test_energy_rejects_low_potential(grid_1d, rng):
    u = smooth_field(grid_1d, rng)
    with pytest.raises(ValueError):
        energy(u, -1.5, 1.0, PARAMS)


def test_potential_samples_takes_a_spec_or_a_number(grid_1d):
    assert np.array_equal(potential_samples(0.25, grid_1d, 1.0), np.full(grid_1d.num_nodes, 0.25))
    with pytest.raises(ValueError):
        potential_samples(-1.0, grid_1d, 1.0)
    # a spec whose samples dip to -1 or below is rejected by the sampler itself
    dip = PotentialSpec(1, (0,), (), 0.5, lambda z: z[0] ** 2 - 2.0)
    with pytest.raises(ValueError):
        potential_samples(dip, grid_1d, 1.0)
    # neither a callable nor a field of precomputed samples is a potential
    with pytest.raises(TypeError):
        potential_samples(lambda p: np.zeros(len(p)), grid_1d, 1.0)
    with pytest.raises(TypeError):
        potential_samples(GridField(grid_1d, np.zeros(grid_1d.num_nodes)), grid_1d, 1.0)


def test_a_constant_potential_is_a_read_only_zero_stride_view(grid_2d):
    # a number and a spec of kind "constant" (what --V const:c builds) alike
    for potential in (0.1, constant_potential(0.1, 2)):
        vsamp = potential_samples(potential, grid_2d, 1.0)
        assert vsamp.shape == (grid_2d.num_nodes,) and vsamp.strides == (0,)
        assert not vsamp.flags.writeable
        with pytest.raises(ValueError):
            vsamp[0] = 1.0
        with pytest.raises(ValueError):
            vsamp *= 2.0
        assert np.array_equal(vsamp, np.full(grid_2d.num_nodes, 0.1))


@pytest.mark.parametrize(
    "potential, max_fields",
    [
        (model_saddle(1.0, 1.25, 2, (0,), 0.5), 3.5),
        (expression_potential("1 + 0.25*(1+z1**2)/(1+z0**2+z1**2) + 0.1*z0/(1+z0**2)", 2, (0,), 0.5), 2.5),
    ],
    ids=["model saddle", "asymmetric expression"],
)
def test_potential_sampling_peak_memory(potential, max_fields):
    # V is evaluated on the open mesh of the scaled node axes, so the peak is
    # the returned field and the formula's own temporaries: an (n^N x N)
    # coordinate table and its eps-scaled copy would be four fields alone
    import tracemalloc

    g = Grid(2, 10.0, 269)
    field_bytes = g.num_nodes * 8
    tracemalloc.start()
    try:
        vsamp = potential_samples(potential, g, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vsamp.shape == (g.num_nodes,) and not vsamp.flags.writeable
    assert peak <= max_fields * field_bytes, peak / field_bytes


def _direct_terms(grid, values, vsamp):
    """(pot, mass, ent) written out as the formula with a fresh temporary
    per operation: the reference of the in-place kernel."""
    sq = values * values
    a = np.abs(values)
    log_sq = 2.0 * np.log(np.where(a > 0, a, 1.0))
    return integrate_array(grid, vsamp * sq), integrate_array(grid, sq), integrate_array(grid, sq * log_sq)


@pytest.mark.parametrize("sampling", ["array", "constant view", "scalar zero"])
def test_energy_terms_match_the_direct_formula_bit_for_bit(rng, grid_2d, sampling):
    values = smooth_field(grid_2d, rng).values
    values[::7] = 0.0
    assert np.any(values < 0) and np.any(values == 0)
    vsamp = {
        "array": rng.uniform(-0.5, 2.0, grid_2d.num_nodes),
        "constant view": potential_samples(1.0 / 3.0, grid_2d, 1.0),
        "scalar zero": 0.0,
    }[sampling]
    coeffs, kin, pot, mass, ent = energy_terms(grid_2d, values, vsamp)
    assert (pot, mass, ent) == _direct_terms(grid_2d, values, vsamp)
    assert kin == sine_kinetic(grid_2d, sine_coefficients(grid_2d, values))
    assert np.array_equal(coeffs, sine_coefficients(grid_2d, values))
    if sampling == "constant view":
        # the view prices exactly as the full array of the same constant
        full = np.full(grid_2d.num_nodes, 1.0 / 3.0)
        assert energy_terms(grid_2d, values, full)[1:] == (kin, pot, mass, ent)


def test_the_kernel_takes_log_u_squared_from_the_one_log(monkeypatch, rng, grid_2d):
    # energy_terms writes log u^2 into its scratch through _safe_log_sq, the
    # log of the split functions, the gradient and the solver; it takes |u|
    # itself, gives 0 at u = 0 and accepts the split functions' 0-d input
    real = energy_mod._safe_log_sq
    calls = []
    monkeypatch.setattr(energy_mod, "_safe_log_sq", lambda v, out=None: calls.append(out) or real(v, out=out))
    values = smooth_field(grid_2d, rng).values
    values[::7] = 0.0
    energy_terms(grid_2d, values, 0.0)
    assert len(calls) == 1 and calls[0] is not None
    out = np.empty_like(values)
    assert real(values, out=out) is out
    assert np.array_equal(out, 2.0 * np.log(np.where(values != 0, np.abs(values), 1.0)))
    assert real(np.asarray(-0.5)).shape == () and real(-0.5) == real(0.5) == 2.0 * math.log(0.5)
    assert real(0.0) == 0.0


def test_grad_zero_field(grid_1d):
    g = grad_L2(GridField(grid_1d, np.zeros(grid_1d.num_nodes)), 0.0, 1.0, PARAMS)
    assert np.all(g.values == 0.0)


def test_grad_gausson_residual_order():
    # the Gausson is the discrete solution: the gradient is rounding at every n
    A = 0.0
    for n in (129, 257, 513):
        g = Grid(1, 10.0, n)
        u = gausson(g, A)
        res = grad_L2(u, A, 1.0, PARAMS).values
        assert np.max(np.abs(res)) <= 1e-10


def test_grad_directional_derivative(rng):
    # u bounded away from zero avoids the log singularity in the quotient
    g = Grid(1, 10.0, 64)
    base = 0.5 + 0.3 * np.cos(g.axis() * 0.7)
    u = GridField(g, base)
    grad = grad_L2(u, 0.2, 1.0, PARAMS).values
    t = 1e-6
    h_n = g.cell_volume
    for _ in range(10):
        v = smooth_field(g, rng).values
        j0 = energy(u, 0.2, 1.0, PARAMS)["J"]
        j1 = energy(GridField(g, base + t * v), 0.2, 1.0, PARAMS)["J"]
        quotient = (j1 - j0) / t
        inner = h_n * float(np.dot(grad, v))
        assert quotient == pytest.approx(inner, rel=1e-5)


def test_prox_zero():
    assert prox_f1(0.0, 1.0, PARAMS) == 0.0
    assert prox_f1(0.0, 17.0, PARAMS) == 0.0


def test_prox_small_step_contraction(rng):
    v = rng.uniform(-3, 3, size=50)
    for step in (1e-6, 1e-9):
        s = prox_f1(v, step, PARAMS)
        assert np.all(np.abs(s - v) <= step * np.abs(f1_prime(v, PARAMS)) + 1e-12)


def test_prox_against_bisection_oracle():
    # root of s(1 - (log s^2 + 1)) = v on (0, delta), solved independently
    v, step = 0.05, 1.0
    lo, hi = 1e-30, PARAMS.delta
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + step * (-mid * (math.log(mid * mid) + 1)) < v:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert prox_f1(v, step, PARAMS) == pytest.approx(oracle, abs=1e-13)


def test_prox_first_order_condition(rng):
    v = rng.uniform(-5, 5, size=300)
    for step in (0.01, 0.5, 3.0):
        s = prox_f1(v, step, PARAMS)
        residual = s + step * f1_prime(s, PARAMS) - v
        assert np.max(np.abs(residual)) <= 1e-12 * (1 + np.max(np.abs(v)))
        assert np.all(s * v >= 0)
        assert np.all(np.abs(s) <= np.abs(v) + 1e-15)


def test_prox_rejects_bad_step():
    with pytest.raises(ValueError):
        prox_f1(1.0, 0.0, PARAMS)


def test_log_sobolev_random_fields(rng):
    g = Grid(1, 10.0, 511)  # n + 1 = 512: a power-of-two transform
    a_values = np.geomspace(0.2, 5.0, 19).tolist() + [math.sqrt(math.pi) / 2]
    worst = math.inf
    for _ in range(30):
        u = smooth_field(g, rng, n_bumps=3)
        mass = integrate_array(g, u.values**2)
        u = GridField(g, u.values / math.sqrt(mass))
        for a in a_values:
            worst = min(worst, log_sobolev_slack(u, a))
    assert worst >= -1e-8


def test_log_sobolev_gaussian_near_equality():
    # the spectral operator gives the same slack at every resolving n
    # (1.9474485891e-05 at n = 511 and 4097), so no fine grid is needed
    g = Grid(1, 10.0, 511)
    u = GridField(g, np.exp(-g.axis() ** 2 / 2))
    mass = integrate_array(g, u.values**2)
    slacks = [log_sobolev_slack(u, a) for a in np.geomspace(1.0, 3.0, 41)]
    best = min(slacks) / mass
    assert -1e-12 <= best <= 1e-4


def test_log_sobolev_rejects_zero_field(grid_1d):
    with pytest.raises(ValueError):
        log_sobolev_slack(GridField(grid_1d, np.zeros(grid_1d.num_nodes)), 1.0)
    with pytest.raises(ValueError):
        log_sobolev_slack(GridField(grid_1d, np.ones(grid_1d.num_nodes)), -1.0)


def test_projected_level_is_the_one_reader_of_a_nehari_projected_level(monkeypatch, rng):
    # the solver's accepted J and the Nehari scale are each _projected_level
    # of their own kernel reductions, and a path row of the exact Gausson's
    # terms (kin N m, pot 2 m W, mass 2 m, ent m (N + 2 c0) with m = m(c0)
    # and W the u0^2-average of V in the row's frame), bit for bit
    saddle = model_saddle(1.0, 1.25, 2, (0,), 0.5)
    g = Grid(2, 8.0, 41)
    vsamp = potential_samples(saddle, g, 0.4)
    priced = []
    real = nehari_mod.energy_terms

    def recorded(grid, values, v):
        out = real(grid, values, v)
        priced.append(energy_mod._projected_level(*out[1:])[1])
        return out

    monkeypatch.setattr(nehari_mod, "energy_terms", recorded)
    _, info = minimize_on_nehari(g, vsamp, gausson(g, 1.0).values, SolverConfig(tol=1e-8, max_iters=20))
    monkeypatch.undo()
    assert len(info["j_history"]) > 2 and set(info["j_history"]) <= set(priced)

    u = smooth_field(g, rng, positive=True)
    terms = energy_terms(g, u.values, vsamp)[1:]
    assert nehari_scale(u, saddle, 0.4) == energy_mod._projected_level(*terms)[0]

    z = np.array([0.5, 0.0])
    frame = _path_frame(g, z, 0.4)
    sq = gausson(g, saddle.c0).values ** 2
    w = np.sum(potential_samples(saddle, frame, 0.4) * sq) / np.sum(sq)
    m = m_closed_form(saddle.c0, 2)
    t, j, _ = energy_mod._projected_level(2 * m, 2 * m * w, 2 * m, m * (2 + 2 * saddle.c0))
    assert _path_row(g, saddle, 0.4, z)[2:] == (t, j)
