"""Saddle-like potentials and the X/Y subspace split.

A saddle-like potential is bounded, tends to its infimum c0 along a subspace
X of R^N, and stays strictly above c0 on the cone

    Y_lambda = { z : |P_Y z| > lambda |z| }

around the complementary subspace Y.  The split is realized as an orthogonal
coordinate split (disjoint axis index sets), so the definitional form
"|z.y| > lambda |z||y| for some y in Y" reduces to |P_Y z| > lambda |z|.  A
point set is its N broadcasting coordinate arrays (``PotentialSpec``).

This is the potential layer the certificate pipeline runs.  The hypothesis
checkers live in ``lognls.hypotheses`` and the expression potentials in
``lognls.expression``, so a command loads them only when it reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .grid import dim_problems, is_int, is_real, refuse

if TYPE_CHECKING:
    from numpy.typing import NDArray


@dataclass(frozen=True)
class PotentialSpec:
    """A potential with its subspace split, cone parameter, and constants.

    ``evaluate(z)`` takes a point set as its N coordinate arrays (scalars
    allowed) that broadcast against each other, the ``np.ix_`` open mesh of
    a grid or a box or ``pts.T`` for scattered points, and returns V on
    their broadcast shape, possibly as a read-only view.

    The constructor owns the potential block's common rules and raises one
    ValueError listing every violation; a factory adds its kind's own rule.

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
        problems = []
        try:
            if tuple(sorted(self.y_axes)) != split_axes(self.dim, self.x_axes)[1]:
                problems.append("x_axes and y_axes must be disjoint and cover all axes")
        except ValueError as err:
            problems += err.args
        if not (is_real(self.lam) and 0.0 < self.lam < 1.0):
            problems.append(f"lambda must lie in (0, 1), got {self.lam}")
        if not (is_real(self.c0) and self.c0 > -1.0):
            problems.append(f"c0 must be a finite number above -1, got {self.c0}")
        # c1 is measured against a c0 that holds, so a bad c0 is reported once
        elif not (is_real(self.c1) and self.c1 >= self.c0):
            problems.append(f"c1 must be a finite number at least c0, got c0={self.c0}, c1={self.c1}")
        refuse(problems)
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


def split_axes(dim: int, x_axes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(X, Y): ``x_axes`` as a tuple and the other axes below ``dim``.  X must
    be a list or tuple of distinct integer axes of a supported dimension."""
    refuse(dim_problems(dim))
    axes_ok = isinstance(x_axes, (list, tuple)) and all(is_int(a) and 0 <= a < dim for a in x_axes)
    if not (axes_ok and len(set(x_axes)) == len(x_axes)):
        raise ValueError(f"x_axes must be a list of distinct axes of dimension {dim}, got {x_axes}")
    return tuple(x_axes), tuple(a for a in range(dim) if a not in x_axes)


def model_saddle(c0: float, c1: float, dim: int, x_axes, lam: float) -> PotentialSpec:
    """The reference saddle: V(z) = c0 + (c1-c0)(1 + |P_Y z|^2)/(1 + |z|^2).

    Equal to c1 at the origin and on all of Y, decreasing to c0 along X, and
    bounded below by c0 + (c1-c0) lambda^2 on the cone Y_lambda.  Its own
    rule is c1 > c0; the spec checks the rest.
    """
    x_axes, y_axes = split_axes(dim, x_axes)
    # a c0 that is not a number is the spec's to report
    if is_real(c0) and not (is_real(c1) and c1 > c0):
        raise ValueError(f"c1 must be a finite number above c0, got c0={c0}, c1={c1}")

    def _eval(z: Sequence[NDArray]) -> NDArray:
        sq = [np.square(z[k]) for k in range(dim)]
        return c0 + (c1 - c0) * (1.0 + sum(sq[k] for k in y_axes)) / (1.0 + sum(sq))

    return PotentialSpec(dim, x_axes, y_axes, lam, _eval, kind="model_saddle", c0=c0, c1=c1)


def constant_potential(value: float, dim: int, x_axes=(0,), lam: float = 0.5) -> PotentialSpec:
    """V identically equal to ``value`` (no saddle geometry), a finite number above -1."""
    x_axes, y_axes = split_axes(dim, x_axes)
    if not (is_real(value) and value > -1):
        raise ValueError(f"value must be a finite number above -1 for kind=constant, got {value}")

    def _eval(z: Sequence[NDArray]) -> NDArray:
        return np.broadcast_to(float(value), np.broadcast(*z).shape)

    return PotentialSpec(dim, x_axes, y_axes, lam, _eval, kind="constant", c0=value, c1=value)


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
