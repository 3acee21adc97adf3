import math

import numpy as np
import pytest

from dataclasses import replace

import lognls.grid as grid_mod
from lognls.grid import (
    Grid,
    GridField,
    _dst1,
    field_text,
    integrate_array,
    laplacian_array,
    load_field,
    node_axes,
    shifted_laplacian_solve,
)

from lognls.cli import DEFAULT_CONFIG, validate_config
from lognls.energy import energy_terms, eps_norm_sq
from lognls.minimax import CertificateConfig
from lognls.nehari import SolverConfig, m_closed_form
from lognls.potential import constant_potential, model_saddle

from conftest import node_table, smooth_field


def _block_rows(n):
    """Rows per rfft block of the DST-I at length n."""
    return max(1, grid_mod._DST_BLOCK_VALUES // (2 * n + 2))


# the smallest n at which one pass over a 2-D grid (n rows of length n)
# takes more than one block; the other sizes of the transform tests (64, 65,
# 69) run their 2-D passes in one block
TWO_BLOCK_N = next(n for n in range(16, 10_000) if _block_rows(n) < n)


def test_build_grid_spacing_examples():
    # h = 2L/(n-1); n=16 is the smallest admissible axis count
    assert Grid(1, 15, 16).spacing == pytest.approx(2.0)
    g = Grid(2, 5, 21)
    assert g.num_nodes == 441
    assert g.spacing == pytest.approx(0.5)
    assert Grid(1, 10, 512).spacing == pytest.approx(20.0 / 511, rel=1e-12)
    assert Grid(1, 10, 512).spacing == pytest.approx(0.039139, abs=1e-6)


BALL = "must be at least 4, the Gausson's 4-sigma ball, and finite, got"


@pytest.mark.parametrize(
    "build, messages",
    [
        (lambda: Grid(3, 10, 64), ("dim must be 1 or 2, got 3",)),
        (lambda: Grid(1, math.inf, 64), (f"half_extent {BALL} inf",)),
        (lambda: Grid(1, -1.0, 64), (f"half_extent {BALL} -1.0",)),
        (lambda: Grid(1, 10, 8), ("points_per_axis must be an integer >= 16, got 8",)),
        # the rules the CLI held alone: each used to build
        (lambda: SolverConfig(tol=math.nan), ("tol must be a finite positive number, got nan",)),
        (lambda: SolverConfig(max_iters=2.5), ("max_iters must be a positive integer, got 2.5",)),
        (lambda: Grid(2, 3.0, 31), (f"half_extent {BALL} 3.0",)),
        (lambda: Grid(2, 6.0, 31.0), ("points_per_axis must be an integer >= 16, got 31.0",)),
        (
            lambda: CertificateConfig(model_saddle(1.0, 1.25, 2, (0,), 0.5), h_target=0.9),
            ("h_target must be a finite number in (0, 0.6], got 0.9",),
        ),
        (
            lambda: CertificateConfig(model_saddle(1.0, 1.25, 2, (0,), 0.5), solver_half_extent=3.0),
            (f"solver_half_extent {BALL} 3.0",),
        ),
        (lambda: model_saddle(1, math.inf, 2, (0,), 0.5), ("c1 must be a finite number above c0, got c0=1, c1=inf",)),
        (lambda: constant_potential(math.inf, 2), ("value must be a finite number above -1 for kind=constant, got inf",)),
        (
            lambda: model_saddle(1.0, 1.25, 2, [0.5], 0.5),
            ("x_axes must be a list of distinct axes of dimension 2, got [0.5]",),
        ),
        # every violation of a block, in one error
        (
            lambda: Grid(3, -1.0, 8),
            ("dim must be 1 or 2, got 3", f"half_extent {BALL} -1.0", "points_per_axis must be an integer >= 16, got 8"),
        ),
    ],
    ids=[
        "grid-dim-3", "grid-L-inf", "grid-L-negative", "grid-n-8", "solver-tol-nan", "solver-max-iters-2.5",
        "grid-L-3", "grid-n-float", "cert-h-0.9", "cert-L-3", "saddle-c1-inf", "constant-inf", "saddle-axis-0.5",
        "grid-all-three",
    ],
)
def test_the_library_refuses_what_the_cli_refuses(build, messages):
    # a constructor owns its block's rules, so what the CLI refuses cannot
    # be built directly either; its one error lists every violation
    with pytest.raises(ValueError) as err:
        build()
    assert err.value.args == messages


def test_field_validation(grid_1d):
    with pytest.raises(ValueError):
        GridField(grid_1d, np.zeros(grid_1d.num_nodes - 1))
    bad = np.zeros(grid_1d.num_nodes)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        GridField(grid_1d, bad)


def _exact_eigenvalues(g):
    """(pi k / ((n+1) h))^2, k = 1..n: -Lap of the sine modes that vanish at
    the two ghost nodes, one box length (n+1) h apart."""
    n = g.points_per_axis
    return (np.arange(1, n + 1) * math.pi / ((n + 1) * g.spacing)) ** 2


def _ones_sine_coefficients(n):
    """c_k with 1 = sum_k c_k sin(pi j k/(n+1)) at j = 1..n: the DST-I of a
    constant over n + 1, 2 cot(pi k / 2(n+1)) / (n+1) at odd k and 0 at even k."""
    k = np.arange(1, n + 1)
    return np.where(k % 2 == 1, 2.0 / np.tan(0.5 * math.pi * k / (n + 1)) / (n + 1), 0.0)


def test_laplacian_constant_interior(grid_1d):
    # a constant is an odd-mode sine series in the box between the ghost
    # zeros; -Lap multiplies each mode by its exact eigenvalue
    n = grid_1d.points_per_axis
    lap = laplacian_array(grid_1d, np.full(n, 3.0))
    j = np.arange(1, n + 1)
    modes = np.sin(math.pi * np.outer(j, j) / (n + 1))
    expected = -3.0 * modes @ (_exact_eigenvalues(grid_1d) * _ones_sine_coefficients(n))
    assert np.max(np.abs(lap - expected)) <= 1e-12 * np.max(np.abs(expected))
    # the edge nodes feel the ghost zeros most; mirror nodes alike
    assert np.argmax(np.abs(lap)) in (0, n - 1)
    assert np.max(np.abs(lap - lap[::-1])) <= 1e-12 * np.max(np.abs(lap))


def test_laplacian_sine_eigenfunction():
    # the sine modes that vanish at the ghost nodes are exact eigenvectors,
    # the highest mode included, at every node, to rounding at the scale of
    # the largest eigenvalue
    for n in (65, 513):
        g = Grid(1, 10.0, n)
        x = g.axis()
        lam = _exact_eigenvalues(g)
        for k in (1, 7, n):
            mode = np.sin(k * math.pi * (x + g.half_extent + g.spacing) / ((n + 1) * g.spacing))
            lap = laplacian_array(g, mode)
            assert np.max(np.abs(-lap - lam[k - 1] * mode)) <= 1e-12 * lam[-1]


def test_laplacian_gausson_residual_order():
    # the residual of -Lap u = (N - |x|^2) u is rounding at every n, not O(h^2)
    for n in (129, 257, 513):
        g = Grid(1, 10.0, n)
        x = g.axis()
        u = np.exp(-(x**2) / 2)
        lap = laplacian_array(g, u)
        assert np.max(np.abs(-lap - (1 - x**2) * u)) <= 1e-10


@pytest.mark.parametrize("dim, n", [(1, 64), (1, 65), (2, 64), (2, 69), (2, TWO_BLOCK_N)])
def test_laplacian_matches_scipy_dst(rng, dim, n):
    # the operator is DST-I, minus the eigenvalue sums, inverse DST-I
    from scipy.fft import dstn, idstn

    g = Grid(dim, 7.0, n)
    u = rng.standard_normal(g.shape)
    lam = _exact_eigenvalues(g)
    lam_sum = lam if dim == 1 else lam[:, None] + lam[None, :]
    expected = idstn(-lam_sum * dstn(u, type=1), type=1)
    lap = laplacian_array(g, u.ravel())
    assert np.max(np.abs(lap - expected.ravel())) <= 1e-12 * np.max(np.abs(expected))


def test_integrate_constant(grid_1d):
    val = integrate_array(grid_1d, np.ones(grid_1d.num_nodes))
    # rectangle rule counts full weight at the endpoints
    assert val == pytest.approx(2 * grid_1d.half_extent, rel=1e-2)


def test_integrate_gaussian():
    g = Grid(1, 10.0, 512)
    x = g.axis()
    val = integrate_array(g, np.exp(-(x**2)))
    assert abs(val - math.sqrt(math.pi)) < 1e-6


def test_integrate_odd_function():
    g = Grid(1, 10.0, 513)
    x = g.axis()
    val = integrate_array(g, x * np.exp(-(x**2)))
    assert abs(val) < 1e-14


def test_integrate_linearity(rng, grid_1d):
    for _ in range(5):
        u = smooth_field(grid_1d, rng)
        v = smooth_field(grid_1d, rng)
        a, b = rng.uniform(-3, 3, size=2)
        lhs = integrate_array(grid_1d, a * u.values + b * v.values)
        rhs = a * integrate_array(grid_1d, u.values) + b * integrate_array(grid_1d, v.values)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_laplacian_symmetric(rng, grid_2d):
    # fields vanishing near the boundary: bumps well inside the box
    u = smooth_field(grid_2d, rng)
    v = smooth_field(grid_2d, rng)
    lhs = integrate_array(grid_2d, v.values * laplacian_array(grid_2d, u.values))
    rhs = integrate_array(grid_2d, u.values * laplacian_array(grid_2d, v.values))
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


# the two test names predate the eps-norm's one form: they check
# energy.eps_norm_sq, the pairing of a field with itself under the weight V + 1
def test_h1_inner_gausson_closed_form():
    # integral(|grad u|^2 + (A+1) u^2) = e^{N+A} pi^{N/2} (N/2 + A + 1)
    A, N = 0.5, 1
    g = Grid(1, 10.0, 2049)
    x = g.axis()
    u = math.exp((N + A) / 2) * np.exp(-(x**2) / 2)
    expected = math.exp(N + A) * math.pi ** (N / 2) * (N / 2 + A + 1)
    # independent quadrature oracle on the analytic integrand
    oracle = integrate_array(g, (x**2 + A + 1.0) * u**2)
    assert oracle == pytest.approx(expected, rel=1e-10)
    assert eps_norm_sq(g, u, A) == pytest.approx(expected, rel=1e-12)


def test_h1_inner_is_the_spectral_form_on_a_checkerboard():
    # (-1)^i sits on the highest sine modes, which a centered difference of
    # width 2h does not see; the kinetic form must be the operator's own:
    # the checkerboard is the constant's sine series with mode k moved to
    # n + 1 - k; each mode has sum_j sin^2 = (n + 1)/2
    g = Grid(1, 10.0, 65)
    n = g.points_per_axis
    u = (-1.0) ** np.arange(g.num_nodes)
    c = _ones_sine_coefficients(n)
    lam = _exact_eigenvalues(g)[::-1]
    closed = g.spacing * 0.5 * (n + 1) * float(np.sum(lam * c * c))
    assert energy_terms(g, u, 0.0)[2] == pytest.approx(closed, rel=1e-12)


def test_dump_load_roundtrip(tmp_path, rng, grid_2d):
    u = smooth_field(grid_2d, rng)
    path = tmp_path / "field.txt"
    path.write_text(field_text(u), encoding="ascii")
    back = load_field(str(path))
    assert back.grid == u.grid
    assert np.array_equal(back.values, u.values)


def test_node_axes_row_major(grid_2d):
    x0, x1 = node_axes(grid_2d)
    ax = grid_2d.axis()
    n = grid_2d.points_per_axis
    # an open mesh: coordinate k varies along array axis k alone
    assert x0.shape == (n, 1) and x1.shape == (1, n)
    assert np.array_equal(x0.ravel(), ax) and np.array_equal(x1.ravel(), ax)
    # broadcast and raveled row-major, the second coordinate varies fastest
    pts = node_table(grid_2d)
    assert pts[0, 0] == ax[0] and pts[0, 1] == ax[0]
    assert pts[1, 0] == ax[0] and pts[1, 1] == ax[1]


def test_frame_center_moves_coordinates_only(rng, grid_2d):
    moved = replace(grid_2d, center=(1.5, -0.25))
    assert grid_2d.center == (0.0, 0.0)
    assert moved != grid_2d and moved.spacing == grid_2d.spacing
    assert np.array_equal(moved.axis(0), grid_2d.axis(0) + 1.5)
    assert np.array_equal(moved.axis(1), grid_2d.axis(1) - 0.25)
    assert np.array_equal(node_table(moved), node_table(grid_2d) + [1.5, -0.25])
    u = smooth_field(grid_2d, rng)
    v = GridField(moved, u.values)
    assert np.array_equal(laplacian_array(moved, v.values), laplacian_array(grid_2d, u.values))
    assert integrate_array(moved, v.values) == integrate_array(grid_2d, u.values)
    with pytest.raises(ValueError):
        replace(grid_2d, center=(1.0,))


def test_a_center_too_far_to_square_is_refused(grid_2d):
    # every node's squared distance from the origin must be a finite float
    for center in ((1e160, 0.0), (0.0, -1e155), (1e154, 1e154)):
        with pytest.raises(ValueError, match="too far out to square"):
            replace(grid_2d, center=center)
    far = replace(grid_2d, center=(1e150, -1e150))
    assert np.all(np.isfinite(sum(x * x for x in node_axes(far))))


def test_dump_field_refuses_moved_frame(grid_2d):
    moved = replace(grid_2d, center=(0.5, 0.0))
    with pytest.raises(ValueError):
        field_text(GridField(moved, np.zeros(moved.num_nodes)))


# ---------------------------------------------------------------------------
# the Sobolev metric (-Lap_h + sigma) and its DST-I solve
# ---------------------------------------------------------------------------

def _check_dst1(rng, rows, n):
    from scipy.fft import dst

    a = rng.standard_normal((rows, n))
    assert np.allclose(_dst1(a), dst(a, type=1, axis=-1), rtol=0.0, atol=1e-12 * np.max(np.abs(a)) * n)
    # a transposed view, as the solve passes for the second axis
    b = rng.standard_normal((n, rows)).T
    assert np.allclose(_dst1(b), dst(b, type=1, axis=-1), rtol=0.0, atol=1e-12 * np.max(np.abs(b)) * n)


@pytest.mark.parametrize("rows", [1, 32, 69])
@pytest.mark.parametrize("n", [16, 17])
def test_dst1_matches_scipy(rng, rows, n):
    _check_dst1(rng, rows, n)


@pytest.mark.parametrize("n", [16, 17])
def test_dst1_matches_scipy_across_blocks(rng, n):
    # exactly one full block, then two full blocks and a partial third
    for rows in (_block_rows(n), 2 * _block_rows(n) + 5):
        _check_dst1(rng, rows, n)


# the name predates the sine-spectral operator: the solve inverts
# -laplacian_array + sigma
@pytest.mark.parametrize("dim, n", [(1, 64), (1, 65), (2, 64), (2, 65), (2, 69), (2, TWO_BLOCK_N)])
@pytest.mark.parametrize("sigma", [0.3, 2.0])
def test_shifted_laplacian_solve_inverts_the_stencil(rng, dim, n, sigma):
    g = Grid(dim, 7.0, n)
    f = rng.standard_normal(g.num_nodes)
    f_before = f.copy()
    w = shifted_laplacian_solve(g, f, sigma)
    residual = -laplacian_array(g, w) + sigma * w - f
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(f))
    assert np.array_equal(f, f_before)  # the input is left as it was


def _two_sequence_solve(g, f, sigma):
    """The solve as it was written before the axis loop, one transform
    sequence per dimension: the reference the loop must match bit for bit."""
    n = g.points_per_axis
    lam = grid_mod._dirichlet_eigenvalues(g)
    a = f.reshape(-1, n)
    if g.dim == 1:
        w = _dst1(a)
        w /= lam + sigma
        out = _dst1(w)
    else:
        w = _dst1(_dst1(a).T)
        w /= lam[:, None] + (lam + sigma)
        out = _dst1(_dst1(w).T)
    out /= (2.0 * (n + 1)) ** g.dim
    return out.ravel()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [64, 65, 69, TWO_BLOCK_N])
@pytest.mark.parametrize("sigma", [0.3, 2.0])
def test_shifted_laplacian_solve_axis_loop_is_bit_identical(rng, dim, n, sigma):
    g = Grid(dim, 7.0, n)
    f = rng.standard_normal(g.num_nodes)
    assert np.array_equal(shifted_laplacian_solve(g, f, sigma), _two_sequence_solve(g, f, sigma))


def test_block_budget_is_one_block_to_n65_and_64_rows_at_n135():
    assert _block_rows(65) >= 65 and _block_rows(135) == 64 and _block_rows(269) == 32
    assert TWO_BLOCK_N > 65


@pytest.mark.parametrize("n", [17, 65, 135])
def test_dst1_block_size_changes_no_bit(rng, monkeypatch, n):
    # a row's rfft does not depend on the rows it is batched with
    a = rng.standard_normal((n, n))
    full = _dst1(a)
    for rows in (1, 7, n - 1):
        monkeypatch.setattr(grid_mod, "_DST_BLOCK_VALUES", rows * (2 * n + 2))
        assert np.array_equal(_dst1(a), full)


def test_node_axes_one_dimension_is_the_axis():
    g = Grid(1, 10.0, 65)
    (x,) = node_axes(g)
    assert np.array_equal(x, g.axis())


def test_grid_has_no_coordinate_table_builder():
    # every point set is an open mesh of per-axis arrays; the V-sampling
    # peak-memory tests of the energy module bound what a sampling builds
    assert not hasattr(grid_mod, "node_coordinates")
    assert not hasattr(grid_mod, "tensor_points")


def test_supported_dims_has_one_owner(monkeypatch):
    # every dimension check reads grid.SUPPORTED_DIMS, so narrowing it
    # narrows the grid, the potential, the closed-form level and the config
    monkeypatch.setattr(grid_mod, "SUPPORTED_DIMS", (1,))
    with pytest.raises(ValueError, match="^dim must be 1, got 2$"):
        Grid(2, 7.0, 17)
    with pytest.raises(ValueError, match="^dim must be 1, got 2$"):
        model_saddle(1.0, 1.25, 2, (0,), 0.5)
    with pytest.raises(ValueError, match="^N must be 1, got 2$"):
        m_closed_form(0.0, 2)
    assert validate_config(DEFAULT_CONFIG)[1] == ["grid.dim must be 1, got 2"]
    Grid(1, 7.0, 17)


def test_kernels_run_in_three_dimensions_once_the_cap_allows(rng, monkeypatch):
    # the cap is the only thing in the grid that stops N = 3
    monkeypatch.setattr(grid_mod, "SUPPORTED_DIMS", (1, 2, 3))
    g = Grid(3, 4.0, 17)
    pts = node_table(g)
    ax = g.axis()
    assert pts.shape == (17**3, 3)
    assert np.array_equal(pts[1], [ax[0], ax[0], ax[1]])  # row-major: the last coordinate fastest
    assert np.array_equal(pts[17], [ax[0], ax[1], ax[0]])
    f = rng.standard_normal(g.num_nodes)
    w = shifted_laplacian_solve(g, f, 0.7)
    residual = -laplacian_array(g, w) + 0.7 * w - f
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(f))
