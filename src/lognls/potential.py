"""Saddle-like potentials, the X/Y subspace split, and hypothesis checkers.

A saddle-like potential is bounded, tends to its infimum c0 along a subspace
X of R^N, and stays strictly above c0 on the cone

    Y_lambda = { z : |P_Y z| > lambda |z| }

around the complementary subspace Y.  The split is realized as an orthogonal
coordinate split (disjoint axis index sets), so the definitional form
"|z.y| > lambda |z||y| for some y in Y" reduces to |P_Y z| > lambda |z|.  A
point set is its N broadcasting coordinate arrays (``PotentialSpec``).

Checkers cover the sphere-infimum geometry (V1), boundedness of V and its
first two derivatives (V2), and the level inequalities (V4).  The
Palais-Smale condition for V (V3) constrains sequences at infinity and is
not verifiable by finite sampling; ``v3_diagnostic`` only reports suspect
flat directions, never a pass/fail verdict.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .grid import require_supported_dim
from .nehari import m_closed_form


@dataclass(frozen=True)
class PotentialSpec:
    """A potential with its subspace split, cone parameter, and constants.

    ``evaluate(z)`` takes a point set as its N coordinate arrays (scalars
    allowed) that broadcast against each other, the ``np.ix_`` open mesh of
    a grid or a box or ``pts.T`` for scattered points, and returns V on
    their broadcast shape, possibly as a read-only view.

    ``c2 = min(1, c0)`` is derived, never stored independently: replacing a
    spec recomputes it.  ``y_star``, where V on Y is least (the origin unless
    the factory finds a lower point), is kept out of ``describe()``.
    """

    dim: int
    x_axes: tuple[int, ...]
    y_axes: tuple[int, ...]
    lam: float
    evaluate: Callable[[Sequence[NDArray]], NDArray] = field(repr=False)
    kind: str = "custom"
    c0: float = 0.0
    c1: float = 0.0
    y_star: tuple = ()
    c2: float = field(init=False)

    def __post_init__(self) -> None:
        require_supported_dim(self.dim)
        axes = tuple(sorted(self.x_axes)) + tuple(sorted(self.y_axes))
        if sorted(axes) != list(range(self.dim)) or set(self.x_axes) & set(self.y_axes):
            raise ValueError("x_axes and y_axes must be disjoint and cover all axes")
        if not (0.0 < self.lam < 1.0):
            raise ValueError(f"lambda must lie in (0, 1), got {self.lam}")
        # negated comparisons, so a NaN c0 or c1 is refused too
        if not self.c0 > -1.0:
            raise ValueError(f"c0 must exceed -1, got {self.c0}")
        if not self.c1 >= self.c0:
            raise ValueError(f"c1 = {self.c1} may not be below c0 = {self.c0}")
        object.__setattr__(self, "c2", min(1.0, self.c0))
        object.__setattr__(self, "y_star", tuple(float(y) for y in self.y_star) or (0.0,) * self.dim)

    def in_cone(self, z: Sequence[NDArray]) -> NDArray:
        """Membership of the cone Y_lambda, |P_Y z| > lambda |z|, on the
        broadcast shape of the coordinate arrays z."""
        sq = [np.square(z[k]) for k in range(self.dim)]
        y_norm = np.sqrt(sum(sq[k] for k in self.y_axes))
        return y_norm > self.lam * np.sqrt(sum(sq))

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "x_axes": list(self.x_axes),
            "y_axes": list(self.y_axes),
            "lambda": self.lam,
            "c0": self.c0,
            "c1": self.c1,
            "c2": self.c2,
        }


def model_saddle(c0: float, c1: float, dim: int, x_axes, lam: float) -> PotentialSpec:
    """The reference saddle: V(z) = c0 + (c1-c0)(1 + |P_Y z|^2)/(1 + |z|^2).

    Equal to c1 at the origin and on all of Y, decreasing to c0 along X, and
    bounded below by c0 + (c1-c0) lambda^2 on the cone Y_lambda.
    """
    if not c1 > c0:
        raise ValueError(f"model saddle needs c1 > c0, got c0={c0}, c1={c1}")
    x_axes = tuple(int(a) for a in x_axes)
    y_axes = tuple(a for a in range(dim) if a not in x_axes)

    def _eval(z: Sequence[NDArray]) -> NDArray:
        sq = [np.square(z[k]) for k in range(dim)]
        return c0 + (c1 - c0) * (1.0 + sum(sq[k] for k in y_axes)) / (1.0 + sum(sq))

    return PotentialSpec(dim, x_axes, y_axes, lam, _eval, kind="model_saddle", c0=c0, c1=c1)


def constant_potential(value: float, dim: int, x_axes=(0,), lam: float = 0.5) -> PotentialSpec:
    """V identically equal to ``value`` (no saddle geometry)."""
    x_axes = tuple(int(a) for a in x_axes)
    y_axes = tuple(a for a in range(dim) if a not in x_axes)

    def _eval(z: Sequence[NDArray]) -> NDArray:
        return np.broadcast_to(float(value), np.broadcast(*z).shape)

    return PotentialSpec(dim, x_axes, y_axes, lam, _eval, kind="constant", c0=value, c1=value)


# the whole grammar of a potential expression besides numbers and z0, z1
_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_FUNCTIONS = {"abs": np.abs} | {
    f"np.{name}": getattr(np, name) for name in ("sqrt", "exp", "log", "sin", "cos", "tanh", "arctan", "abs")
}


def compile_expression(expr: str, dim: int) -> Callable[[tuple], NDArray]:
    """Parse a potential expression against a whitelist into an evaluator.

    Allowed are numeric literals, the coordinates z0 .. z{dim-1}, + - * / **,
    unary minus and one-argument calls of the functions in ``_FUNCTIONS``;
    anything else raises ValueError, and nothing is passed to eval.  The
    evaluator maps the coordinate arrays through the operator functions
    Python arithmetic uses, so it returns the values of the expression
    written as Python code, bit for bit.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as err:
        raise ValueError(f"expression {expr!r} is not valid syntax: {err.msg}") from None
    coordinates = {f"z{k}": k for k in range(dim)}

    def build(node: ast.expr):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return lambda z, c=node.value: c
        if isinstance(node, ast.Name) and node.id in coordinates:
            return lambda z, k=coordinates[node.id]: z[k]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            op, left, right = _BINARY_OPS[type(node.op)], build(node.left), build(node.right)
            return lambda z: op(left(z), right(z))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            operand = build(node.operand)
            return lambda z: -operand(z)
        # the callee is looked up by its source text, never evaluated
        fn = _FUNCTIONS.get(ast.unparse(node.func)) if isinstance(node, ast.Call) else None
        if fn is not None and len(node.args) == 1 and not node.keywords:
            arg = build(node.args[0])
            return lambda z: fn(arg(z))
        raise ValueError(f"expression {expr!r}: {ast.unparse(node)!r} is not allowed")

    return build(tree.body)


# c0 and c1 of an expression potential: sampled over [-20, 20]^dim with at
# most 20001 points in all; y* on the Y line over [-20, 20], 20001 points
_EXPR_BOX_RADIUS = 20.0
_EXPR_SAMPLES = 20001


def expression_potential(expr: str, dim: int, x_axes, lam: float = 0.5) -> PotentialSpec:
    """Potential from an expression in z0, z1 (e.g. "1 + z0**2/(1+abs(z0))").

    The expression is parsed by :func:`compile_expression`, which raises
    ValueError on anything outside its whitelist.  c0 and c1 are estimated
    by dense sampling over the box of radius ``_EXPR_BOX_RADIUS`` (the
    integer dim-th root of ``_EXPR_SAMPLES`` points per axis), within the
    sampling resolution.  y* is the least of ``_EXPR_SAMPLES`` samples of V
    on a one-axis Y line, if below V(0) beyond rounding, else the origin.
    """
    x_axes = tuple(int(a) for a in x_axes)
    y_axes = tuple(a for a in range(dim) if a not in x_axes)
    formula = compile_expression(expr, dim)

    def _eval(z: Sequence[NDArray]) -> NDArray:
        # float arrays: a scalar coordinate then divides and powers as an array does
        z = [np.asarray(x, dtype=float) for x in z]
        return np.broadcast_to(np.asarray(formula(z), dtype=float), np.broadcast(*z).shape)

    side = round(_EXPR_SAMPLES ** (1.0 / dim))  # the integer dim-th root of _EXPR_SAMPLES
    if side**dim > _EXPR_SAMPLES:
        side -= 1
    box = np.ix_(*[np.linspace(-_EXPR_BOX_RADIUS, _EXPR_BOX_RADIUS, side)] * dim)
    c0 = float(np.min(_eval(box)))
    c1 = float(np.max(_eval([0.0 if k in y_axes else x for k, x in enumerate(box)])))
    line = np.linspace(-_EXPR_BOX_RADIUS, _EXPR_BOX_RADIUS, _EXPR_SAMPLES)
    v = _eval([line if k in y_axes else 0.0 for k in range(dim)])
    v0 = float(_eval([0.0] * dim))
    low = len(y_axes) == 1 and np.min(v) < v0 - 1e-12 * max(1.0, abs(v0))
    y_star = [line[np.argmin(v)] if k in y_axes else 0.0 for k in range(dim)] if low else ()
    return PotentialSpec(dim, x_axes, y_axes, lam, _eval, kind="expression", c0=c0, c1=max(c1, c0), y_star=y_star)


# ---------------------------------------------------------------------------
# direction sampling helpers
# ---------------------------------------------------------------------------

def _subspace_sphere(dim: int, axes: tuple[int, ...], radius: float, n: int) -> NDArray:
    """Points on the sphere of the given radius inside the axis subspace
    (the sphere of R^dim when ``axes`` names every axis).  Subspaces of at
    most two axes only: three or more raise ValueError rather than return
    the circle in the first two."""
    if len(axes) > 2:
        raise ValueError(f"no sphere sampler for the {len(axes)} axes {tuple(axes)}; at most two axes")
    if len(axes) == 0:
        return np.zeros((0, dim))
    if len(axes) == 1:
        pts = np.zeros((2, dim))
        pts[0, axes[0]] = radius
        pts[1, axes[0]] = -radius
        return pts
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.zeros((n, dim))
    pts[:, axes[0]] = radius * np.cos(angles)
    pts[:, axes[1]] = radius * np.sin(angles)
    return pts


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

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


def check_V4(spec: PotentialSpec, v_at_origin: Optional[float] = None) -> dict:
    """Evaluate the two level inequalities tying V(0) and c1 to the ground level.

    Inequality 1 asks m(V(0)) >= 2 m(c0); with the closed-form level this is
    equivalent to V(0) >= c0 + log 2, and both routes are evaluated and
    reported.  Inequality 2 is c1 <= c0 + (3/10) c2.  Under the closed-form
    level and V(0) <= c1 the two are mutually exclusive (0.3 c2 < log 2);
    that structural conflict is surfaced instead of being resolved silently.
    """
    v0 = float(v_at_origin if v_at_origin is not None else spec.evaluate([0.0] * spec.dim))
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
    possible from finite samples; the heat-list is all this returns.
    """
    n_tail = len(_V3_RADII) // 2  # the tail: the outer half of the rays
    dirs = _subspace_sphere(spec.dim, tuple(range(spec.dim)), 1.0, _V3_DIRECTIONS)
    suspects = []
    for d in dirs:
        z = [_V3_RADII * c for c in d]  # the ray's coordinate arrays
        vals = spec.evaluate(z)
        grad_sq = np.zeros(len(_V3_RADII))
        for i in range(spec.dim):
            vp, vm = (spec.evaluate(z[:i] + [z[i] + s * _FD_STEP] + z[i + 1 :]) for s in (1, -1))
            grad_sq += ((vp - vm) / (2 * _FD_STEP)) ** 2
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
    return {"suspects": suspects}
