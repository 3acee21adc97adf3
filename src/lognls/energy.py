"""Energy functional for -Delta u + V(eps x) u = u log u^2 and its splitting.

The functional

    J(u) = 1/2 ||u||_eps^2 - 1/2 integral(u^2 log u^2)

is not smooth on the whole space; the integrand -1/2 s^2 log s^2 is split as
F1(s) - F2(s) with F1 convex, even and nonnegative (for delta small enough)
and F2 of power growth.  J then decomposes into a C^1 part Phi and a convex
lower-semicontinuous part Psi = integral(F1(u)).  This module evaluates the
pieces and the pointwise proximal map of F1: F1 and F2 for the breakdown
of ``energy``, F1' for ``prox_f1``; their checks (s^2 log s^2, F2', the L2
gradient, the log-Sobolev slack) are test oracles in ``tests/conftest.py``.

Every energy number is read off four reductions (kin, pot, mass, ent), a
field's from the one kernel ``energy_terms``: ||u||_eps^2, J and J'(u)u in
``_assemble``, and the Nehari-projected level (t, J(t u)) in
``_projected_level`` (the solver's trials; a path row passes u0's exact ones).

The nodewise convention s^2 log s^2 := 0 at s = 0 is applied throughout;
grids do hit exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .grid import (
    Grid,
    GridField,
    integrate_array,
    node_axes,
    sine_coefficients,
    sine_kinetic,
)

if TYPE_CHECKING:
    from numpy.typing import NDArray

# F1''(s) = -(log s^2 + 3) on the inner branch, so convexity needs
# delta <= e^{-3/2}.
CONVEXITY_THRESHOLD = math.exp(-1.5)


@dataclass(frozen=True)
class SplitParams:
    """Cutoff delta for the F1/F2 splitting."""

    delta: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 < self.delta <= CONVEXITY_THRESHOLD):
            raise ValueError(
                f"delta must lie in (0, {CONVEXITY_THRESHOLD:.5f}] to keep F1 convex, got {self.delta}"
            )


def _safe_log_sq(values: NDArray, out: Optional[NDArray] = None) -> NDArray:
    """log(values^2), and exactly 0 where values = 0, so that u log u^2 and
    u^2 log u^2 take their continuous value 0 there without a mask; written
    into ``out`` when it is given."""
    if out is None:
        out = np.empty(np.shape(values))
    np.abs(values, out=out)
    # log(1) = 0 at the zero nodes
    np.copyto(out, 1.0, where=out == 0.0)
    return np.multiply(np.log(out, out=out), 2.0, out=out)


def _as_array(s) -> tuple[NDArray, bool]:
    arr = np.asarray(s, dtype=float)
    return arr, (arr.ndim == 0)


def f1(s, params: SplitParams):
    """Convex, even, nonnegative piece of the splitting.

    0 at 0; -1/2 s^2 log s^2 inside |s| < delta; quadratic continuation
    -1/2 s^2 (log delta^2 + 3) + 2 delta |s| - 1/2 delta^2 outside.
    """
    arr, scalar = _as_array(s)
    d = params.delta
    a = np.abs(arr)
    inner = np.where(a > 0, -0.5 * arr * arr * _safe_log_sq(a), 0.0)
    outer = -0.5 * arr * arr * (math.log(d * d) + 3.0) + 2.0 * d * a - 0.5 * d * d
    out = np.where(a < d, inner, outer)
    return float(out) if scalar else out


def f2(s, params: SplitParams):
    """Smooth power-growth complement: F2 - F1 = 1/2 s^2 log s^2."""
    arr, scalar = _as_array(s)
    d = params.delta
    a = np.abs(arr)
    a_safe = np.where(a > 0, a, 1.0)
    outer = (
        0.5 * arr * arr * (2.0 * np.log(a_safe / d))
        + 2.0 * d * a
        - 1.5 * arr * arr
        - 0.5 * d * d
    )
    out = np.where(a < d, 0.0, outer)
    return float(out) if scalar else out


def f1_prime(s, params: SplitParams):
    """Derivative of f1; continuous across |s| = delta, zero at 0."""
    arr, scalar = _as_array(s)
    d = params.delta
    a = np.abs(arr)
    inner = np.where(a > 0, -arr * (_safe_log_sq(a) + 1.0), 0.0)
    outer = -arr * (math.log(d * d) + 3.0) + 2.0 * d * np.sign(arr)
    out = np.where(a < d, inner, outer)
    return float(out) if scalar else out


def _f1_second(a: NDArray, d: float) -> NDArray:
    """F1'' on |s| = a > 0 (needed by the prox Newton step)."""
    inner = -(_safe_log_sq(a) + 3.0)
    return np.where(a < d, inner, -(math.log(d * d) + 3.0))


# ---------------------------------------------------------------------------
# potential sampling
# ---------------------------------------------------------------------------

def potential_samples(potential, grid: Grid, eps: float) -> NDArray:
    """Sample V(eps x) at the grid nodes as a flat read-only array.

    ``potential`` is a PotentialSpec, evaluated on the open mesh eps
    ``node_axes``, or a number.  A constant potential, a number or a spec of
    kind "constant", is sampled as its value: one zero-stride view.  Every
    sample must be finite and exceed -1, so that the weight V + 1 of the
    eps-norm is positive; each rule has its own ValueError.
    """
    if hasattr(potential, "evaluate"):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # counted and refused below
            v = potential.evaluate([eps * x for x in node_axes(grid)])
    else:
        v = float(potential)
    vsamp = np.broadcast_to(v, grid.shape).reshape(-1)
    vsamp.flags.writeable = False
    finite = np.isfinite(vsamp)
    if not finite.all():
        raise ValueError(f"{vsamp.size - np.count_nonzero(finite)} of the {vsamp.size} potential samples are not finite")
    if not np.all(vsamp > -1.0):
        raise ValueError("potential samples must stay above -1 (V + 1 must be positive)")
    return vsamp


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def energy_terms(grid: Grid, values: NDArray, vsamp) -> tuple[NDArray, float, float, float, float]:
    """The one energy kernel: (sine coefficients of u, kin, pot, mass, ent)
    from one forward sine transform and one log.

    kin = -h^N sum(Lap u * u), the Laplacian's own form (so J has it as exact
    discrete gradient), read off the sine coefficients by Parseval
    (``sine_kinetic``); pot = integral(V u^2), mass = integral(u^2), ent =
    integral(u^2 log u^2).  Every energy quantity of the package is assembled
    from these: ||u||_eps^2 = kin + pot + mass, J = (kin + pot + mass)/2 -
    ent/2 and J'(u)u = kin + pot - ent (all three in ``_assemble``), and the
    Nehari scale with its projected level (``_projected_level``).  The
    coefficients are returned for a caller that needs Lap u
    (``laplacian_from_sine``, the inverse half alone).  ``vsamp`` is the
    node array of ``potential_samples`` (a constant's is a zero-stride view),
    never a scalar in the package, though one broadcasts.  pot and ent share one scratch.
    """
    coeffs = sine_coefficients(grid, values)
    sq = values * values
    kin = sine_kinetic(grid, coeffs)
    buf = np.multiply(vsamp, sq)
    pot = integrate_array(grid, buf)
    mass = integrate_array(grid, sq)
    _safe_log_sq(values, out=buf)
    buf *= sq
    ent = integrate_array(grid, buf)
    return coeffs, kin, pot, mass, ent


def _assemble(kin: float, pot: float, mass: float, ent: float) -> tuple[float, float, float]:
    """(||u||_eps^2, J, J'(u)u) from the kernel's reductions: the one place
    they are summed, so every reader of J gets the same bits."""
    norm_sq = kin + pot + mass
    return norm_sq, 0.5 * norm_sq - 0.5 * ent, kin + pot - ent


_EXP_CLIP = 700.0  # exp argument beyond this overflows float64


def _projected_level(kin: float, pot: float, mass: float, ent: float) -> tuple[float, float, float]:
    """(t, J(t u), ||u||_eps^2) from the kernel's reductions of u: the Nehari
    scale t = exp(p / 2m), p = J'(u)u from ``_assemble`` and m = integral(u^2),
    log t clipped so that t and t^2 stay finite, and the projected level
    J(t u) = t^2/2 (p + m - 2 m log t), t^2 m / 2 unless log t was clipped."""
    norm_sq, _, pairing = _assemble(kin, pot, mass, ent)
    log_t = min(max(pairing / (2.0 * mass), -_EXP_CLIP), _EXP_CLIP)
    t = math.exp(log_t)
    return t, 0.5 * t * t * (pairing + mass - 2.0 * mass * log_t), norm_sq


def field_energy(grid: Grid, values: NDArray, vsamp) -> tuple[float, float]:
    """(J(u), J'(u)u) of raw node values from one energy kernel call."""
    return _assemble(*energy_terms(grid, values, vsamp)[1:])[1:]


def eps_norm_sq(grid: Grid, values: NDArray, vsamp) -> float:
    """||u||_eps^2 = integral(|grad u|^2 + (V(eps x)+1) u^2) in the
    Laplacian's form, kin + pot + mass of the energy kernel (one forward
    sine transform)."""
    return _assemble(*energy_terms(grid, values, vsamp)[1:])[0]


def energy(u: GridField, potential, eps: float, params: SplitParams) -> dict:
    """Full energy breakdown of a field, with pairing_JprimeU = J'(u)u.

    Invariants, asserted here: J = Phi + Psi (J is assembled both directly
    and from the split, and the two routes must agree), Psi >= 0, and
    J - pairing_JprimeU/2 = half_mass.
    """
    grid = u.grid
    vsamp = potential_samples(potential, grid, eps)
    vals = u.values
    _, kin, pot, mass, ent = energy_terms(grid, vals, vsamp)

    norm_sq, j_direct, pairing = _assemble(kin, pot, mass, ent)
    phi = 0.5 * norm_sq - integrate_array(grid, f2(vals, params))
    psi = integrate_array(grid, f1(vals, params))
    half_mass = 0.5 * mass

    scale = max(1.0, abs(phi) + abs(psi))
    if abs(j_direct - (phi + psi)) > 1e-12 * scale:
        raise AssertionError("energy splitting mismatch: J != Phi + Psi beyond tolerance")
    if abs(j_direct - 0.5 * pairing - half_mass) > 1e-10 * max(1.0, abs(j_direct)):
        raise AssertionError("energy identity J - J'(u)u/2 = mass/2 violated")
    if psi < -1e-12 * scale:
        raise AssertionError("Psi must be nonnegative")

    return {
        "J": j_direct,
        "Phi": phi,
        "Psi": psi,
        "pairing_JprimeU": pairing,
        "half_mass": half_mass,
        "eps_norm_sq": norm_sq,
    }


# ---------------------------------------------------------------------------
# proximal map of F1
# ---------------------------------------------------------------------------

def prox_f1(v, step: float, params: SplitParams):
    """Unique minimizer of 1/2 (s - v)^2 + step * F1(s).

    Solved from the first-order condition s + step F1'(s) = v by a
    safeguarded Newton iteration with a bisection bracket; F1' has unbounded
    relative slope near 0, so unguarded Newton can overshoot.  The returned
    s satisfies s v >= 0, |s| <= |v| and the first-order condition to 1e-14.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    arr, scalar = _as_array(v)
    a = np.abs(np.atleast_1d(arr).astype(float))
    d = params.delta

    lo = np.zeros_like(a)
    hi = a.copy()
    s = 0.5 * a
    tol = 1e-14 * (1.0 + a)
    active = a > 0
    for _ in range(200):
        if not np.any(active):
            break
        r = s + step * np.abs(f1_prime(s, params)) - a  # all quantities on the positive axis
        hi = np.where(active & (r > 0), s, hi)
        lo = np.where(active & (r < 0), s, lo)
        active = active & (np.abs(r) > tol)
        slope = 1.0 + step * _f1_second(np.where(s > 0, s, d), d)
        newton = s - r / np.where(slope > 0, slope, 1.0)
        inside = (newton > lo) & (newton < hi)
        s = np.where(active, np.where(inside, newton, 0.5 * (lo + hi)), s)

    out = np.sign(arr) * s.reshape(arr.shape)
    return float(out) if scalar else out
