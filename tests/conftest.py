import math

import numpy as np
import pytest

from lognls import energy, minimax
from lognls.grid import Grid, GridField, laplacian_array, node_axes
from lognls.minimax import _path_row


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid_1d():
    return Grid(1, 10.0, 257)


@pytest.fixture
def grid_2d():
    return Grid(2, 7.0, 65)


def node_table(grid: Grid) -> np.ndarray:
    """All node coordinates as a (num_nodes, dim) table in row-major order
    (the last coordinate fastest), spelled out from the open mesh."""
    return np.column_stack([x.ravel() for x in np.broadcast_arrays(*node_axes(grid))])


def gausson_from_coordinates(grid: Grid, A: float, center) -> np.ndarray:
    """Node values of the Gausson of level A at ``center``, anywhere in the
    box, from the (nodes x N) coordinate table: the oracle of ``gausson``,
    which builds it at the frame center alone."""
    r2 = np.sum((node_table(grid) - np.asarray(center, dtype=float)) ** 2, axis=1)
    return math.exp(0.5 * (grid.dim + A)) * np.exp(-r2 / 2.0)


def path_j(grid: Grid, potential, eps: float, z=None) -> float:
    """J(Phi_eps(z)) from the one pricing of the path row z (the origin by
    default), as ``level_sup_x`` reads each row."""
    z = np.zeros(grid.dim) if z is None else np.asarray(z, dtype=float)
    return _path_row(grid, potential, eps, z)[3]


# ---------------------------------------------------------------------------
# oracles of the splitting, the gradient, the logarithmic Sobolev
# inequality, the Nehari scale, the barycenter and the path.  No command
# runs them; they read the package's kernels through their module objects
# (``energy._projected_level``, ``minimax._path_row``, ...), so a test that
# replaces a kernel in its module reaches them too.
# ---------------------------------------------------------------------------

def f2_prime(s, params: energy.SplitParams):
    """Derivative of f2; vanishes inside |s| < delta and at the splice."""
    arr, scalar = energy._as_array(s)
    d = params.delta
    a = np.abs(arr)
    a_safe = np.where(a > 0, a, 1.0)
    outer = arr * (2.0 * np.log(a_safe / d)) + 2.0 * d * np.sign(arr) - 2.0 * arr
    out = np.where(a < d, 0.0, outer)
    return float(out) if scalar else out


def sq_log_sq(s):
    """s^2 log s^2 with the continuous extension 0 at s = 0."""
    arr = np.asarray(s, dtype=float)
    a = np.abs(arr)
    out = np.where(a > 0, arr * arr * energy._safe_log_sq(a), 0.0)
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


def grad_array(grid: Grid, values: np.ndarray, vsamp: np.ndarray) -> np.ndarray:
    """L2-metric gradient -Lap u + V u - u log u^2 as a raw array."""
    a = np.abs(values)
    nl = np.where(a > 0, values * energy._safe_log_sq(a), 0.0)
    return -laplacian_array(grid, values) + vsamp * values - nl


def grad_L2(u: GridField, potential, eps: float, params: energy.SplitParams) -> GridField:
    """L2 gradient field of J.

    The gradient is also reassembled from the split
    (-Lap u + (V+1)u - F2'(u)) + F1'(u), and both routes must agree to 1e-10.
    """
    grid = u.grid
    vsamp = energy.potential_samples(potential, grid, eps)
    direct = grad_array(grid, u.values, vsamp)
    split = (
        -laplacian_array(grid, u.values)
        + (vsamp + 1.0) * u.values
        - f2_prime(u.values, params)
        + energy.f1_prime(u.values, params)
    )
    scale = 1.0 + float(np.max(np.abs(direct)))
    if float(np.max(np.abs(direct - split))) > 1e-10 * scale:
        raise AssertionError("gradient assemblies (direct vs split) disagree")
    return GridField(grid, direct)


def log_sobolev_slack(u: GridField, a: float) -> float:
    """Slack of the logarithmic Sobolev inequality at parameter a > 0.

    Returns (a^2/pi) |grad u|_2^2 + (log |u|_2^2 - N (1 + log a)) |u|_2^2
    - integral(u^2 log u^2), which is nonnegative up to quadrature error.
    """
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    grid = u.grid
    _, kin, _, mass, ent = energy.energy_terms(grid, u.values, 0.0)
    if mass <= 0:
        raise ValueError("log-Sobolev slack is undefined for the zero field")
    return (a * a / math.pi) * kin + (math.log(mass) - grid.dim * (1.0 + math.log(a))) * mass - ent


def nehari_scale(u: GridField, potential, eps: float) -> float:
    """Unique t > 0 with the fiber derivative of t*u vanishing.

    t = exp(J'(u)u / (2 integral u^2)) (``energy._projected_level``);
    rescaling u by c > 0 divides t by c.
    """
    vsamp = energy.potential_samples(potential, u.grid, eps)
    _, kin, pot, mass, ent = energy.energy_terms(u.grid, u.values, vsamp)
    if mass <= 0:
        raise ValueError("Nehari scale is undefined for fields with zero mass")
    return energy._projected_level(kin, pot, mass, ent)[0]


def barycenter(u: GridField) -> np.ndarray:
    """Mass-direction average  integral((x/|x|) u^2) / integral(u^2)."""
    beta = minimax._barycenter_values(u.values * u.values, minimax.direction_weights(u.grid))
    if np.isnan(beta[0]):
        raise ValueError("barycenter is undefined for the zero field")
    return beta


def phi_path(grid: Grid, potential, eps: float, z) -> GridField:
    """Path field Phi_eps(z), one ``minimax._path_row`` as a field: t*u0 on
    ``grid`` with the center shifted by z/eps, so it never leaves the box."""
    z = np.asarray(z, dtype=float).ravel()
    if z.size != grid.dim:
        raise ValueError(f"z must have {grid.dim} components")
    frame, _, t, _ = minimax._path_row(grid, potential, eps, z)
    return GridField(frame, t * minimax._path_gausson(grid, potential.c0))


def smooth_field(grid: Grid, rng, n_bumps: int = 4, positive: bool = False) -> GridField:
    """Random decaying mixture of Gaussian bumps; widths stay off extremal values."""
    pts = node_table(grid)
    values = np.zeros(grid.num_nodes)
    for _ in range(n_bumps):
        center = rng.uniform(-3.0, 3.0, size=grid.dim)
        width = rng.uniform(0.7, 2.2)
        amp = rng.uniform(0.5, 2.0) * (1.0 if positive else rng.choice([-1.0, 1.0]))
        values += amp * np.exp(-np.sum((pts - center) ** 2, axis=1) / (2 * width**2))
    if positive:
        values = np.abs(values) + 1e-3 * np.exp(-np.sum(pts**2, axis=1) / 2)
    return GridField(grid, values)


def count_grid_calls(monkeypatch, name: str) -> list:
    """Wrap the grid kernel ``name`` in every lognls namespace that bound it
    at import time (the grid module included, so kernels that call it inside
    the grid count too) and return the list each call appends its grid to."""
    import sys

    import lognls.grid as grid_mod

    original = getattr(grid_mod, name)
    calls = []

    def counted(grid, *args):
        calls.append(grid)
        return original(grid, *args)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("lognls") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls
