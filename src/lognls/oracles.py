"""Acceptance oracles and the barycenter-zero evidence.

No certificate runs the code here, so no certificate command loads this
module: the pipeline (``grid``, ``energy``, ``nehari``, ``potential`` and
``minimax``) prices its levels through private kernels, and the functions
below read the same kernels field by field, as checks and as the evidence of
``lognls barycenter-zero``, the one command that imports this module:

* ``sq_log_sq``, the L2 gradient of J (``grad_array``, ``grad_L2``) and the
  logarithmic Sobolev slack, the checks of the splitting and of quadrature,
* ``nehari_scale``, the Nehari scale of a field,
* ``barycenter`` and ``phi_path``, the barycenter of a field and a path row
  as a field,
* ``barycenter_zero_finder``, the zero of P_X beta on the path and its
  degree evidence.

The kernels are called through their module objects (``minimax._path_row``,
``energy._projected_level``, ...), so a test that replaces one in its module
reaches these functions too.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Union

import numpy as np

from . import energy, minimax
from .grid import Grid, GridField, laplacian_array
from .potential import PotentialSpec, _subspace_sphere

if TYPE_CHECKING:
    from numpy.typing import NDArray


# ---------------------------------------------------------------------------
# the splitting, the gradient and the logarithmic Sobolev slack
# ---------------------------------------------------------------------------

def sq_log_sq(s: Union[float, NDArray]) -> Union[float, NDArray]:
    """s^2 log s^2 with the continuous extension 0 at s = 0."""
    arr = np.asarray(s, dtype=float)
    a = np.abs(arr)
    out = np.where(a > 0, arr * arr * energy._safe_log_sq(a), 0.0)
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


def grad_array(grid: Grid, values: NDArray, vsamp: NDArray) -> NDArray:
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
        - energy.f2_prime(u.values, params)
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
    _, _, kin, _, mass, ent = energy.energy_terms(grid, u.values, 0.0)
    if mass <= 0:
        raise ValueError("log-Sobolev slack is undefined for the zero field")
    return (a * a / math.pi) * kin + (math.log(mass) - grid.dim * (1.0 + math.log(a))) * mass - ent


# ---------------------------------------------------------------------------
# the Nehari scale
# ---------------------------------------------------------------------------

def nehari_scale(u: GridField, potential, eps: float) -> float:
    """Unique t > 0 with the fiber derivative of t*u vanishing.

    t = exp(J'(u)u / (2 integral u^2)) (``energy._projected_level``);
    rescaling u by c > 0 divides t by c.
    """
    vsamp = energy.potential_samples(potential, u.grid, eps)
    _, _, kin, pot, mass, ent = energy.energy_terms(u.grid, u.values, vsamp)
    if mass <= 0:
        raise ValueError("Nehari scale is undefined for fields with zero mass")
    return energy._projected_level(kin, pot, mass, ent)[0]


# ---------------------------------------------------------------------------
# the barycenter and the path as fields
# ---------------------------------------------------------------------------

def barycenter(u: GridField) -> NDArray:
    """Mass-direction average  integral((x/|x|) u^2) / integral(u^2)."""
    beta = minimax._barycenter_values(u.values * u.values, minimax.direction_weights(u.grid))
    if np.isnan(beta[0]):
        raise ValueError("barycenter is undefined for the zero field")
    return beta


def phi_path(grid: Grid, potential: PotentialSpec, eps: float, z) -> GridField:
    """Path field Phi_eps(z), one ``minimax._path_row`` as a field: t*u0 on
    ``grid`` with the center shifted by z/eps, so it never leaves the box."""
    z = np.asarray(z, dtype=float).ravel()
    if z.size != grid.dim:
        raise ValueError(f"z must have {grid.dim} components")
    frame, _, t, _ = minimax._path_row(grid, potential, eps, z)
    return GridField(frame, t * minimax._path_gausson(grid, potential.c0))


# ---------------------------------------------------------------------------
# barycenter zero finder (degree evidence)
# ---------------------------------------------------------------------------

def barycenter_zero_finder(grid: Grid, potential: PotentialSpec, eps: float, R: float) -> dict:
    """The zero x* in Q of P_X beta(Phi_eps(x)), with the degree evidence.

    u0 is radial and sits on the origin node, so beta(Phi_eps(0)) =
    beta(u0) = 0 up to rounding for every V: x* is 0, and its residual
    |P_X beta(Phi_eps(0))| is reported.  A residual above
    ``minimax.BETA_TOL``, a path that breaks this symmetry, is reported as
    inconclusive.  The degree evidence is read on the boundary of Q, the
    sphere of radius R in X that ``minimax.level_sup_x`` prices: the sign of
    P_X beta at -R and R for one X axis, and its winding number on the
    counterclockwise circle of ``minimax._BOUNDARY_SAMPLES`` points for two;
    a missing sign change or zero winding is not degree one, not a failure.
    """
    axes = list(potential.x_axes)
    u0 = minimax._path_gausson(grid, potential.c0)
    sq = u0 * u0

    def f_rows(zs) -> NDArray:
        """P_X beta(Phi_eps(z)) for each row z, read off u0 in the moved
        frame: beta(t u) = beta(u), so no t, J or V is needed."""
        return np.array(
            [minimax._barycenter_values(sq, minimax.direction_weights(minimax._path_frame(grid, z, eps)))[axes]
             for z in zs]
        )

    boundary = f_rows(_subspace_sphere(potential.dim, potential.x_axes, R, minimax._BOUNDARY_SAMPLES))
    if len(axes) == 1:
        hi, lo = boundary[:, 0]  # the sampler returns +R first
        evidence = {"boundary_values": [float(lo), float(hi)], "degree_one": bool(lo < 0 < hi)}
    else:
        angles = np.array([math.atan2(fv[1], fv[0]) for fv in boundary])
        d = np.diff(np.concatenate([angles, angles[:1]]))
        d = (d + math.pi) % (2 * math.pi) - math.pi
        winding = int(round(float(np.sum(d)) / (2 * math.pi)))
        evidence = {"winding": winding, "degree_one": bool(abs(winding) >= 1)}
    residual = float(np.linalg.norm(f_rows(np.zeros((1, potential.dim)))[0]))
    inconclusive = residual > minimax.BETA_TOL
    return {
        "x_star": None if inconclusive else [0.0] * len(axes),
        "residual": residual,
        "inconclusive": inconclusive,
        "degree_evidence": evidence,
    }
