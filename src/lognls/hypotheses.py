"""Sampled checkers of the saddle hypotheses on V.

The checkers cover the sphere-infimum geometry (V1), boundedness of V and its
first two derivatives (V2), and the level inequalities (V4).  The
Palais-Smale condition for V (V3) constrains sequences at infinity and is
not verifiable by finite sampling; ``v3_diagnostic`` only reports suspect
flat directions, never a pass/fail verdict.  Only ``check-potential`` loads
this module.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .nehari import m_closed_form
from .potential import PotentialSpec, _subspace_sphere

if TYPE_CHECKING:
    from numpy.typing import NDArray

# V1 sampling: the X spheres' radii and points per sphere, the cone's
# directions and geometric radii in (1e-3, box radius), and the margin by
# which the X tail must undercut the cone infimum
_V1_RADII = (1.0, 2.0, 4.0, 8.0, 16.0)
_V1_SPHERE_SAMPLES = 64
_V1_CONE_DIRECTIONS = 256
_V1_CONE_RADII = 48
_V1_BOX_RADIUS = 32.0
_V1_MARGIN = 1e-9


def check_V1(spec: PotentialSpec) -> dict:
    """Sampled check of the saddle geometry.

    Computes sup V over spheres in X for the radii ``_V1_RADII``, a sampled
    inf of V over the cone Y_lambda inside the box, and passes when the tail
    of the sup sequence undercuts the cone infimum by ``_V1_MARGIN``.  Empty
    cones (no Y axes, or no cone samples in the box) are reported
    inconclusive.
    """
    sups = []

    def report(cone_inf: Optional[float], passed: bool, inconclusive: bool) -> dict:
        return {
            "radii": list(_V1_RADII),
            "sup_on_x_spheres": sups,
            "cone_inf": cone_inf,
            "margin": _V1_MARGIN,
            "passed": passed,
            "inconclusive": inconclusive,
        }

    for r in _V1_RADII:
        pts = _subspace_sphere(spec.dim, spec.x_axes, r, _V1_SPHERE_SAMPLES)
        if pts.shape[0] == 0:  # no X axis: the first sphere is already empty
            return report(None, False, True)
        sups.append(float(np.max(spec.evaluate(pts.T))))

    dirs = _subspace_sphere(spec.dim, tuple(range(spec.dim)), 1.0, _V1_CONE_DIRECTIONS)
    radii_grid = np.geomspace(1e-3, _V1_BOX_RADIUS, _V1_CONE_RADII)
    pts = (dirs[None, :, :] * radii_grid[:, None, None]).reshape(-1, spec.dim)
    mask = spec.in_cone(pts.T)
    if not np.any(mask):
        return report(None, False, True)
    cone_inf = float(np.min(spec.evaluate(pts[mask].T)))
    return report(cone_inf, bool(min(sups[-2:]) < cone_inf - _V1_MARGIN), False)


# the step of every finite difference of V (V2 and the V3 diagnostic)
_FD_STEP = 1e-4

# V2 sampling: the box [-10, 10]^N at 41 points per axis, and the cap on
# max |V|, on the largest first derivative and on the largest second
_V2_BOX_RADIUS = 10.0
_V2_POINTS_PER_AXIS = 41
_V2_CAP = 1e6
# the rounding allowed between the largest second differences at two steps,
# in units of eps_mach max|V| / step^2
_V2_ROUNDING = 16


def _fd_maxima(spec: PotentialSpec, box: Sequence[NDArray], v0: NDArray, step: float) -> tuple[float, float]:
    """Largest |first| and |second| central difference of V at ``step`` over
    the open mesh ``box`` (``v0`` = V there), mixed second differences
    included; a difference moves the box's axis arrays."""
    max_grad = max_second = 0.0
    shift = step * np.eye(spec.dim)

    def moved(offset: NDArray) -> NDArray:
        return spec.evaluate([x + d for x, d in zip(box, offset)])

    for i in range(spec.dim):
        vp, vm = moved(shift[i]), moved(-shift[i])
        max_grad = max(max_grad, float(np.max(np.abs(vp - vm))) / (2 * step))
        max_second = max(max_second, float(np.max(np.abs(vp + vm - 2 * v0))) / step**2)
        for j in range(i + 1, spec.dim):
            vpp, vpm, vmp, vmm = (moved(a * shift[i] + b * shift[j]) for a in (1, -1) for b in (1, -1))
            mixed = np.abs(vpp - vpm - vmp + vmm) / (4 * step**2)
            max_second = max(max_second, float(np.max(mixed)))
    return max_grad, max_second


def check_V2(spec: PotentialSpec) -> dict:
    """Finite-difference boundedness probe for V and its first two derivatives.

    Central differences with step ``_FD_STEP`` over a sample box; maxima are
    compared against ``_V2_CAP``.  A kink's second difference is only slope
    jump / step, below the cap, so the largest one is taken again at a tenth
    of the step: a C^2 potential gives the same, a kink within a step of a
    sample up to ten times more, rounding up to eps_mach max|V| / step^2 more.
    A kink that no sample lies within a step of is not seen.
    """
    box = np.ix_(*[np.linspace(-_V2_BOX_RADIUS, _V2_BOX_RADIUS, _V2_POINTS_PER_AXIS)] * spec.dim)
    v0 = spec.evaluate(box)
    max_val = float(np.max(np.abs(v0)))
    max_grad, max_second = _fd_maxima(spec, box, v0, _FD_STEP)
    fine = _fd_maxima(spec, box, v0, _FD_STEP / 10)[1]
    rounding = _V2_ROUNDING * math.ulp(1.0) * max_val / (_FD_STEP / 10) ** 2
    return {
        "max_value": max_val,
        "max_gradient": max_grad,
        "max_second": max_second,
        "value_bounded": max_val <= _V2_CAP,
        "gradient_bounded": max_grad <= _V2_CAP,
        "second_bounded": max_second <= _V2_CAP and abs(fine - max_second) <= 0.5 * max_second + rounding,
    }


def check_V4(spec: PotentialSpec) -> dict:
    """The two level inequalities tying V(0) and c1 to the ground level.
    Inequality 1 is m(V(0)) >= 2 m(c0), V(0) >= c0 + log 2 under the closed
    form (both routes reported); inequality 2 is c1 <= c0 + (3/10) c2.  Every
    potential the CLI accepts has c1 >= V(0) (c1 is a max over X, whose
    samples hold the origin) and c2 = min(1, c0) <= 1, so 0.3 c2 < log 2 and
    the two exclude each other: ``conflict_under_gausson_level`` is always
    true and ``joint_feasible`` always false, a reading no potential meets."""
    v0 = float(spec.evaluate([0.0] * spec.dim))
    m_v0 = m_closed_form(v0, spec.dim) if v0 > -1.0 else float("nan")
    m_c0 = m_closed_form(spec.c0, spec.dim)
    ineq1_m = bool(v0 > -1.0 and m_v0 >= 2.0 * m_c0)
    ineq1_log2 = bool(v0 >= spec.c0 + math.log(2.0))
    ineq2 = bool(spec.c1 <= spec.c0 + 0.3 * spec.c2)
    conflict = bool(v0 <= spec.c1 and 0.3 * spec.c2 < math.log(2.0))
    return {
        "v_at_origin": v0,
        "m_v0": m_v0,
        "m_c0": m_c0,
        "ineq1_m_based": ineq1_m,
        "ineq1_log2_based": ineq1_log2,
        "ineq2": ineq2,
        "joint_feasible": ineq1_m and ineq2,
        "conflict_under_gausson_level": conflict,
    }


# V3 rays: the directions, the radii walked along each, and the bounds
# under which a tail's gradient and variation count as flat
_V3_DIRECTIONS = 16
_V3_RADII = np.geomspace(0.5, 64.0, 32)
_V3_GRAD_TOL = 1e-2
_V3_FLAT_TOL = 1e-2


def v3_diagnostic(spec: PotentialSpec) -> dict:
    """ADVISORY probe for Palais-Smale failure directions of V.

    Walks rays to the sampling boundary and lists directions where the
    gradient stays small while V stays nearly constant along the tail.  The
    condition concerns sequences at infinity, so no pass/fail verdict is
    possible from finite samples; the heat-list is all this returns.  Rays
    with a non-finite value or difference are listed as ``non_finite_rays``.
    """
    n_tail = len(_V3_RADII) // 2  # the tail: the outer half of the rays
    dirs = _subspace_sphere(spec.dim, tuple(range(spec.dim)), 1.0, _V3_DIRECTIONS)
    suspects, non_finite = [], []
    for d in dirs:
        z = [_V3_RADII * c for c in d]  # the ray's coordinate arrays
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = spec.evaluate(z)
            grad_sq = np.zeros(len(_V3_RADII))
            for i in range(spec.dim):
                vp, vm = (spec.evaluate(z[:i] + [z[i] + s * _FD_STEP] + z[i + 1 :]) for s in (1, -1))
                grad_sq += ((vp - vm) / (2 * _FD_STEP)) ** 2
        if not (np.isfinite(vals).all() and np.isfinite(grad_sq).all()):
            non_finite.append([float(c) for c in d])
            continue
        tail_grad = float(np.max(np.sqrt(grad_sq[-n_tail:])))
        tail_var = float(np.max(vals[-n_tail:]) - np.min(vals[-n_tail:]))
        if tail_grad < _V3_GRAD_TOL and tail_var < _V3_FLAT_TOL:
            suspects.append(
                {
                    "direction": [float(c) for c in d],
                    "tail_gradient_max": tail_grad,
                    "tail_variation": tail_var,
                }
            )
    return {"suspects": suspects, "non_finite_rays": non_finite}
