"""The barycenter-zero evidence, ``barycenter_zero_finder`` alone.

``barycenter_zero_finder`` locates the zero of P_X beta on the path and reads
its degree evidence on the boundary of Q; ``lognls barycenter-zero`` is the
one command that runs it and the one that imports this module, so no
certificate loads it.  It reads the barycenter and path kernels of
``minimax`` through the module object (``minimax._path_frame``, ...), so a
test that replaces one in its module reaches the finder too.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import minimax
from .grid import Grid
from .potential import PotentialSpec, _subspace_sphere

if TYPE_CHECKING:
    from numpy.typing import NDArray


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
