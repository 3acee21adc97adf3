"""Uniform tensor grids on a truncated box with Dirichlet convention.

Fields live on [-L, L]^N sampled at n points per axis and are treated as
zero outside the box (homogeneous Dirichlet ghost values).  A grid may carry
a frame center c: its nodes then sit at c + [-L, L]^N.  Only the node
coordinates, the package's one coordinate form ``node_axes`` (no n^N x N
table), see the center; the Laplacian and the quadrature do not, so a field
moved to another frame keeps its values and every translation-invariant
quantity.  The module provides the sine-spectral Laplacian and its shifted
inverse and rectangle-rule quadrature, all on raw node arrays (the energy
forms are built from them in ``energy``), and a text dump format that
round-trips bit exactly.

The Laplacian is diagonal in the DST-I basis of every axis (the sine modes
that vanish at the ghost nodes) with the exact eigenvalues (pi k/((n+1) h))^2,
the one table ``_dirichlet_eigenvalues`` that ``laplacian_array``,
``shifted_laplacian_solve`` and ``sine_kinetic`` read.  It resolves fields
that decay like the Gausson to spectral accuracy, so a coarse grid suffices.
An apply or a solve is two DST-I passes (rfft of length 2(n+1)) per axis, the
forward half ``sine_coefficients`` and the inverse half; an energy needs the
forward half alone, one pass per axis, since its kinetic form is read off the
sine coefficients by Parseval (``sine_kinetic``), and ``laplacian_from_sine``
runs the inverse half alone for a caller that has the coefficients.  A pass
batches its rows into blocks sized in values (``_DST_BLOCK_VALUES``), and its
cost depends on how n + 1 factors: a large prime factor
(n + 1 = 4098 = 2 * 3 * 683) makes it several times slower.

Every kernel is one code path for any N (one tensor mesh, one loop over the
axes).  ``SUPPORTED_DIMS`` alone sets the accepted N; every dimension check
reads it.  Lifting it also needs a sphere sampler of three or more axes for
the potential checks and a discretization cheap enough for N = 3.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import NDArray

SUPPORTED_DIMS = (1, 2)  # the dimensions N accepted anywhere in the package

# radius, in standard deviations, of the ball around a Gausson's center that
# must lie inside the box
GAUSSON_BALL_RADIUS = 4.0


def is_real(x) -> bool:
    """A finite real number that is not a bool (JSON's Infinity, NaN and true are not)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def is_int(x) -> bool:
    """An integer that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def refuse(problems: list[str]) -> None:
    """Raise one ValueError whose args are ``problems``, if there are any."""
    if problems:
        raise ValueError(*problems)


def dim_problems(dim, name: str = "dim") -> list[str]:
    """The violation of ``dim`` being an integer, not a bool, in SUPPORTED_DIMS, if any."""
    if is_int(dim) and dim in SUPPORTED_DIMS:
        return []
    return [f"{name} must be {' or '.join(map(str, SUPPORTED_DIMS))}, got {dim}"]


def box_problems(name: str, half_extent) -> list[str]:
    """The box rule: a half extent is finite and leaves the Gausson on the
    origin its ball of ``GAUSSON_BALL_RADIUS``."""
    if is_real(half_extent) and half_extent >= GAUSSON_BALL_RADIUS:
        return []
    r = f"{GAUSSON_BALL_RADIUS:g}"
    return [f"{name} must be at least {r}, the Gausson's {r}-sigma ball, and finite, got {half_extent}"]


@dataclass(frozen=True)
class Grid:
    """Uniform grid on center + [-L, L]^dim with spacing h = 2L/(n-1).

    ``center`` defaults to the origin and is stored as a tuple of floats.
    The constructor owns the grid block's rules and raises one ValueError
    whose args are every violation; a bad center is refused after them: it
    must have ``dim`` finite components, and every node's squared distance
    from the origin (as ``minimax``'s direction weights sum it) must be finite.
    """

    dim: int
    half_extent: float
    points_per_axis: int
    center: tuple = ()

    def __post_init__(self) -> None:
        problems = dim_problems(self.dim) + box_problems("half_extent", self.half_extent)
        if not (is_int(self.points_per_axis) and self.points_per_axis >= 16):
            problems.append(f"points_per_axis must be an integer >= 16, got {self.points_per_axis}")
        refuse(problems)
        center = tuple(float(c) for c in np.ravel(self.center)) or (0.0,) * self.dim
        if len(center) != self.dim or not all(math.isfinite(c) for c in center):
            raise ValueError(f"center must have {self.dim} finite components, got {self.center}")
        # the farthest node of each axis sits at c - L or c + L
        far = [max(abs(c - self.half_extent), abs(c + self.half_extent)) for c in center]
        if not math.isfinite(sum(x * x for x in far)):
            raise ValueError(f"half_extent {self.half_extent} about center {center} has nodes too far out to square")
        object.__setattr__(self, "center", center)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / (self.points_per_axis - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def num_nodes(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis(self, k: int = 0) -> NDArray:
        """Node coordinates along axis k, frame center included."""
        ax = np.linspace(-self.half_extent, self.half_extent, self.points_per_axis)
        # antisymmetrize so mirror nodes are exact negatives and an odd count
        # puts the center node at exactly 0 (linspace alone leaves ~1e-15)
        return 0.5 * (ax - ax[::-1]) + self.center[k]


def node_axes(grid: Grid) -> tuple[NDArray, ...]:
    """The node coordinates as an open mesh (``np.ix_``): one array per axis,
    frame center included, that broadcasts against the others to ``grid.shape``."""
    return np.ix_(*(grid.axis(k) for k in range(grid.dim)))


@dataclass(eq=False)
class GridField:
    """Real-valued function sampled on a grid, stored row-major and flat."""

    grid: Grid
    values: NDArray = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size != self.grid.num_nodes:
            raise ValueError(
                f"values length {self.values.size} does not match grid with {self.grid.num_nodes} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must all be finite")

    def reshaped(self) -> NDArray:
        return self.values.reshape(self.grid.shape)


# ---------------------------------------------------------------------------
# array-level kernels
# ---------------------------------------------------------------------------

# values per rfft call of the DST-I: a block holds as many rows as fit their
# odd extensions (2n + 2 values each) in this budget, at least one.  That is
# one block up to n = 65, 64 rows at n = 135 and 32 at n = 269; the budget
# bounds the extension buffer and the transform's complex output, not the
# whole array.  A row's transform does not depend on its block, so the block
# size changes no bit of the output.
_DST_BLOCK_VALUES = 64 * (2 * 135 + 2)


def _dst1(a: NDArray) -> NDArray:
    """Unnormalized DST-I along the last axis of a 2-D array, as
    ``scipy.fft.dst(a, type=1, axis=-1)``: y_k = 2 sum_j a_j sin(pi (j+1)(k+1)/(n+1)).

    The odd extension [0, -a, 0, reversed a] of length 2n+2 has the DFT
    i y at the frequencies 1..n, so y is the imaginary part of its rfft.
    Rows go through a block at a time.
    """
    rows, n = a.shape
    block_rows = max(1, _DST_BLOCK_VALUES // (2 * n + 2))
    out = np.empty((rows, n))
    ext = np.zeros((min(rows, block_rows), 2 * n + 2))
    for start in range(0, rows, block_rows):
        block = a[start : start + block_rows]
        b = len(block)
        np.negative(block, out=ext[:b, 1 : n + 1])
        ext[:b, n + 2 :] = block[:, ::-1]
        out[start : start + b] = np.fft.rfft(ext[:b], axis=1).imag[:, 1 : n + 1]
    return out


@lru_cache(maxsize=16)
def _dirichlet_eigenvalues(grid: Grid) -> NDArray:
    """Eigenvalues (pi k / ((n+1) h))^2, k = 1..n, of the 1-D -Lap with zero
    ghosts, whose eigenvectors are the sine modes sin(pi j k/(n+1)); read-only."""
    n = grid.points_per_axis
    lam = (math.pi / ((n + 1) * grid.spacing) * np.arange(1, n + 1)) ** 2
    lam.flags.writeable = False
    return lam


def sine_coefficients(grid: Grid, values: NDArray) -> NDArray:
    """The forward half of the operator: DST-I of the node values along
    every axis, as an (n, n^(N-1)) array with the axes in their own order.

    A pass transforms the last axis and moves it to the front, so N passes
    restore the axis order.  DST-I is its own inverse up to 2(n+1) per axis,
    so ``_from_sine`` inverts it.
    """
    n = grid.points_per_axis
    w = values
    for _ in range(grid.dim):
        w = _dst1(w.reshape(-1, n)).T
    return w


def _eigenvalue_sums(grid: Grid, shift: float) -> NDArray:
    """shift + the sum over the axes of ``_dirichlet_eigenvalues``, in the
    layout of ``sine_coefficients``."""
    lam = _dirichlet_eigenvalues(grid)
    return sum(np.ix_(*[lam] * grid.dim), shift).reshape(grid.points_per_axis, -1)


def _from_sine(grid: Grid, coeffs: NDArray) -> NDArray:
    """The inverse half: node values from sine coefficients (N passes and
    the division by 2(n+1) per axis)."""
    n = grid.points_per_axis
    w = coeffs
    for _ in range(grid.dim):
        w = _dst1(w.reshape(n, -1).T)
    w /= (2.0 * (n + 1)) ** grid.dim
    return w.ravel()


def sine_kinetic(grid: Grid, coeffs: NDArray) -> float:
    """-h^N sum(Lap u * u) read off the sine coefficients of u by Parseval:
    h^N / (2(n+1))^N sum over the modes of the eigenvalue sum times the
    coefficient squared.

    The sum runs one axis at a time, each axis's eigenvalues against the
    squared coefficients summed over the other axes, so no n^N table of
    eigenvalue sums is built.
    """
    n = grid.points_per_axis
    lam = _dirichlet_eigenvalues(grid)
    sq = (coeffs * coeffs).reshape(grid.shape)
    total = 0.0
    for k in range(grid.dim):
        others = tuple(a for a in range(grid.dim) if a != k)
        total += float(np.dot(lam, sq.sum(axis=others)))
    return grid.cell_volume * total / (2.0 * (n + 1)) ** grid.dim


def laplacian_from_sine(grid: Grid, coeffs: NDArray) -> NDArray:
    """Lap u from the sine coefficients of u, the inverse half alone: minus
    the eigenvalue sums times the coefficients, transformed back.  The
    coefficients are multiplied in place."""
    coeffs *= _eigenvalue_sums(grid, 0.0)
    out = _from_sine(grid, coeffs)
    return np.negative(out, out=out)


def laplacian_array(grid: Grid, values: NDArray) -> NDArray:
    """Sine-spectral Laplacian with zero ghost values: DST-I, multiplication
    by minus the eigenvalue sums, DST-I back."""
    return laplacian_from_sine(grid, sine_coefficients(grid, values))


def shifted_laplacian_solve(grid: Grid, values: NDArray, sigma: float) -> NDArray:
    """The w with (-Lap + sigma) w = values, for sigma > 0 and the operator
    of ``laplacian_array`` (zero ghosts): the same sine basis, divided by the
    shifted eigenvalue sums."""
    coeffs = sine_coefficients(grid, values)
    coeffs /= _eigenvalue_sums(grid, sigma)
    return _from_sine(grid, coeffs)


def integrate_array(grid: Grid, values: NDArray) -> float:
    """Rectangle-rule integral with uniform weight h^N per node."""
    # np.sum uses pairwise summation on a contiguous row-major array, which is
    # a fixed reduction order: results are reproducible bit for bit.
    return float(grid.cell_volume * np.sum(values))


# ---------------------------------------------------------------------------
# text dump format: header lines dim, L, n then one value per line
# ---------------------------------------------------------------------------

def field_text(u: GridField) -> str:
    """A field as text: dim, half_extent, n header then row-major values.

    The header has no frame center, so a field on a moved frame is refused.
    """
    if any(u.grid.center):
        raise ValueError("field_text needs a grid centered at the origin")
    lines = [
        f"{u.grid.dim:d}",
        f"{u.grid.half_extent:.17g}",
        f"{u.grid.points_per_axis:d}",
    ]
    lines.extend(f"{x:.17g}" for x in u.values)
    return "\n".join(lines) + "\n"


def load_field(path: str) -> GridField:
    """Read a field in the :func:`field_text` format; round-trips bit exactly."""
    with open(path, "r", encoding="ascii") as fh:
        dim = int(fh.readline())
        half_extent = float(fh.readline())
        n = int(fh.readline())
        values = np.array([float(line) for line in fh], dtype=float)
    return GridField(Grid(dim, half_extent, n), values)
