"""Nehari-set projection and ground-state solvers.

Membership of the Nehari set is the vanishing of the fiber derivative,
equivalently J(u) = 1/2 integral(u^2).  For the logarithmic nonlinearity the
projection scale has the closed form t = exp(J'(u)u / (2 integral u^2)),
which makes the projection a single pairing plus a rescale.

For a constant potential A > -1 the equation -Delta u + A u = u log u^2 has
the explicit Gaussian-profile solution ("Gausson")

    u(x) = exp((N + A)/2) * exp(-|x - c|^2 / 2),

used throughout as an analytic oracle; the associated ground-state level is
m(A) = 1/2 e^{N+A} pi^{N/2} provided the Gausson attains it.  That premise is
not assumed silently: the solver compares converged constant-potential
energies against the closed form and raises a diagnostic flag on violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .energy import SplitParams, _safe_log_sq, energy_terms, potential_samples
from .grid import Grid, GridField, integrate_array, node_coordinates

_EXP_CLIP = 700.0  # exp argument beyond this overflows float64

# backtracking line search of the descent: first trial step, shrink factor
# per rejected trial, Armijo sufficient-decrease constant, trials per step
_ARMIJO_INIT = 1.0
_ARMIJO_SHRINK = 0.5
_ARMIJO_DECREASE = 1e-4
_MAX_BACKTRACKS = 40


@dataclass
class NehariSolution:
    """Converged (or best-effort) field on the Nehari set with diagnostics."""

    field: GridField
    energy: float
    nehari_residual: float
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "energy": self.energy,
            "nehari_residual": self.nehari_residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "stalled": bool(self.diagnostics.get("stalled", False)),
            "rel_grad": self.diagnostics.get("rel_grad", math.nan),
        }


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the ground-state iteration."""

    tol: float = 1e-8
    max_iters: int = 50_000

    def __post_init__(self) -> None:
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters at least 1")


# ---------------------------------------------------------------------------
# scale and projection
# ---------------------------------------------------------------------------

def _log_scale(pairing: float, mass: float) -> float:
    """log t for the Nehari scale t = exp(J'(u)u / (2 integral u^2)), clipped
    so that t and t^2 stay finite."""
    return min(max(pairing / (2.0 * mass), -_EXP_CLIP), _EXP_CLIP)


def _reduced_objective(pairing: float, mass: float) -> tuple[float, float]:
    """(t, J(t c)) from p = J'(c)c and m = integral(c^2) alone.

    With log t = p / 2m (clipped), J(t c) = t^2/2 (p + m - 2 m log t), which
    is t^2 m / 2 whenever log t was not clipped.
    """
    log_t = _log_scale(pairing, mass)
    t = math.exp(log_t)
    return t, 0.5 * t * t * (pairing + mass - 2.0 * mass * log_t)


def field_energy(grid: Grid, values: NDArray, vsamp: NDArray) -> tuple[float, float]:
    """(J(u), J'(u)u) of raw node values from one energy kernel call.

    J sums integral((V+1) u^2) as one reduction rather than pot + mass; that
    is the order path, Theta and level energies have always been summed in,
    so they keep their last bits.
    """
    _, kin, pot, _, ent = energy_terms(grid, values, vsamp)
    quad = integrate_array(grid, (vsamp + 1.0) * (values * values))
    return 0.5 * (kin + quad) - 0.5 * ent, kin + pot - ent


def nehari_scale(u: GridField, potential, eps: float) -> float:
    """Unique t > 0 with the fiber derivative of t*u vanishing.

    t = exp(J'(u)u / (2 integral u^2)); rescaling u by c > 0 divides t by c.
    """
    vsamp = potential_samples(potential, u.grid, eps)
    _, kin, pot, mass, ent = energy_terms(u.grid, u.values, vsamp)
    if mass <= 0:
        raise ValueError("Nehari scale is undefined for fields with zero mass")
    return math.exp(_log_scale(kin + pot - ent, mass))


def project_nehari(u: GridField, potential, eps: float) -> GridField:
    """Rescale u onto the Nehari set; idempotent up to round-off."""
    t = nehari_scale(u, potential, eps)
    return GridField(u.grid, t * u.values)


# ---------------------------------------------------------------------------
# Gausson oracle and closed-form level
# ---------------------------------------------------------------------------

def gausson(grid: Grid, A: float, center=None, eps: Optional[float] = None) -> GridField:
    """Exact constant-potential solution with amplitude level A > -1.

    In rescaled coordinates the profile is exp((N+A)/2) exp(-|x-c|^2/2).
    Passing ``eps`` produces the original-coordinates form with width eps.
    The 4-standard-deviation ball around the center must stay inside the box
    (the box around the grid's frame center).
    """
    if A <= -1.0:
        raise ValueError(f"amplitude level must exceed -1, got {A}")
    c = np.zeros(grid.dim) if center is None else np.asarray(center, dtype=float).ravel()
    if c.size != grid.dim:
        raise ValueError(f"center must have {grid.dim} components")
    width = 1.0 if eps is None else float(eps)
    if eps is not None and eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if np.any(np.abs(c - grid.center) + 4.0 * width > grid.half_extent):
        raise ValueError("center too close to the boundary: 4-sigma ball exits the box")
    pts = node_coordinates(grid)
    r2 = np.sum((pts - c) ** 2, axis=1)
    return GridField(grid, math.exp(0.5 * (grid.dim + A)) * np.exp(-r2 / (2.0 * width * width)))


def m_closed_form(A: float, N: int) -> float:
    """Ground-state level 1/2 e^{N+A} pi^{N/2} for constant potential A."""
    if A <= -1.0:
        raise ValueError(f"A must exceed -1, got {A}")
    if N not in (1, 2):
        raise ValueError(f"N must be 1 or 2, got {N}")
    return 0.5 * math.exp(N + A) * math.pi ** (N / 2.0)


# ---------------------------------------------------------------------------
# ground-state iteration
# ---------------------------------------------------------------------------

def minimize_on_nehari(
    grid: Grid,
    vsamp: NDArray,
    start: NDArray,
    config: SolverConfig,
    extra_term=None,
):
    """Monotone descent of J (+ optional smooth extra term) on the Nehari set.

    Each step: descend, clamp to the nonnegative cone, rescale back onto the
    Nehari set.  Backtracking keeps the recorded objective non-increasing.
    ``extra_term`` has ``value(values)`` and ``gradient(values)``, must not
    change under positive rescaling, and is used by the penalized
    barycenter-constrained minimization.

    A trial c costs one energy kernel call and no more: with p = J'(c)c,
    m = integral(c^2) and log t = p / 2m its projection t c has the reduced
    objective J(t c) = t^2/2 (p + m - 2 m log t), which is t^2 m / 2 unless
    log t was clipped.  The accepted trial's Laplacian, scaled by t, is the
    Laplacian of the new iterate (Lap(t c) = t Lap c), so the iteration
    itself applies none; only the u log u^2 term of the gradient is
    recomputed.  Only u and Lap u are held between iterations.

    Returns (values, info dict); ``info["trials"]`` counts the backtracking
    trials of all iterations.
    """
    h_n = grid.cell_volume

    def projected(cand: NDArray):
        """(Lap c, t, ||c||_eps^2, objective at t c), or None for c = 0."""
        lap_c, kin, pot, mass, ent = energy_terms(grid, cand, vsamp)
        if not mass > 0:
            return None
        t, j = _reduced_objective(kin + pot - ent, mass)
        if extra_term is not None:
            j += extra_term.value(cand)
        return lap_c, t, kin + pot + mass, j

    u = np.clip(start, 0.0, None)
    point = projected(u)
    if point is None:
        # the zero field: its gradient vanishes, so the loop stops at once
        lap, eps_norm_sq, j_cur = np.zeros_like(u), 0.0, 0.0
    else:
        lap, t, norm_c, j_cur = point
        u, lap, eps_norm_sq = t * u, t * lap, t * t * norm_c
    j_history = [j_cur]
    alpha = _ARMIJO_INIT
    converged = False
    stall = False
    rel_grad = math.inf
    iterations = 0
    trials = 0

    for iterations in range(1, config.max_iters + 1):
        # u >= 0, and log(1) = 0 at its zero nodes keeps 0 log 0 = 0
        g = -lap + vsamp * u - u * _safe_log_sq(u)
        if extra_term is not None:
            g = g + extra_term.gradient(u)

        # stationarity measure: full gradient with the cone constraint active
        g_proj = np.where((u > 0) | (g < 0), g, 0.0)
        gnorm = math.sqrt(h_n * float(np.dot(g_proj, g_proj)))
        rel_grad = gnorm / max(math.sqrt(max(eps_norm_sq, 0.0)), 1e-300)
        if rel_grad <= config.tol:
            converged = True
            break

        trial = min(_ARMIJO_INIT, 2.0 * alpha)
        accepted = False
        # near the rounding floor the certified decrease per step drops below
        # the noise of the energy reductions; steps at or below the last
        # stable size are then accepted inside that noise band, which lets
        # the gradient norm keep contracting without letting the step size
        # ratchet into instability
        noise_guard = 32.0 * np.finfo(float).eps * max(1.0, eps_norm_sq)
        for _ in range(_MAX_BACKTRACKS):
            trials += 1
            cand = np.clip(u - trial * g, 0.0, None)
            diff = cand - u
            step_sq = h_n * float(np.dot(diff, diff))
            point = projected(cand)
            if point is not None:
                lap_c, t, norm_c, j_new = point
                decrease = _ARMIJO_DECREASE / max(trial, 1e-300) * step_sq
                certified = j_new <= j_cur - decrease
                noise_step = trial <= alpha and j_new <= j_cur + noise_guard
                if certified or noise_step:
                    u, lap, eps_norm_sq = t * cand, t * lap_c, t * t * norm_c
                    j_cur = j_new
                    alpha = trial
                    accepted = True
                    break
            trial *= _ARMIJO_SHRINK
        if not accepted:
            stall = True
            break
        j_history.append(j_cur)

    info = {
        "rel_grad": rel_grad,
        "converged": converged,
        "stalled": stall,
        "iterations": iterations,
        "trials": trials,
        "j_history": j_history,
    }
    return u, info


def _gausson_seed(grid: Grid, potential) -> NDArray:
    """The solvers' start: the Gausson at the origin whose level is V(0), the
    exact solution of the frozen-coefficient problem there (V(eps x) at
    x = 0 is V(0) for every eps)."""
    if hasattr(potential, "evaluate"):
        level = float(np.ravel(potential.evaluate(np.zeros((1, grid.dim))))[0])
    else:
        level = float(potential)
    return gausson(grid, max(level, -0.999)).values


def ground_state(
    grid: Grid,
    potential,
    eps: float,
    params: Optional[SplitParams] = None,
    config: Optional[SolverConfig] = None,
) -> NehariSolution:
    """Minimize J over the Nehari set within the nonnegative cone.

    The seed is the Gausson at the origin with level V(0) (``_gausson_seed``).
    Non-convergence is reported through ``converged``/diagnostics, never
    silently.

    ``params`` is not read: J does not depend on the splitting cutoff.  The
    slot stays only because the benchmark script (``perfbench/child.py``)
    passes a SplitParams positionally before ``config``; pass ``config`` by
    name.
    """
    config = config or SolverConfig()
    vsamp = potential_samples(potential, grid, eps)
    seed = _gausson_seed(grid, potential)

    values, info = minimize_on_nehari(grid, vsamp, seed, config)
    energy, pairing = field_energy(grid, values, vsamp)

    diagnostics = dict(info)
    vmin, vmax = float(np.min(vsamp)), float(np.max(vsamp))
    if vmax - vmin <= 1e-12 * max(1.0, abs(vmax)):
        # constant potential: guard the closed-form level assumption
        m_cf = m_closed_form(vmin, grid.dim)
        tol_cf = max(1e-8, 5.0 * grid.spacing**2 * m_cf)
        diagnostics["m_closed_form"] = m_cf
        diagnostics["below_closed_form"] = bool(energy < m_cf - tol_cf)

    return NehariSolution(
        field=GridField(grid, values),
        energy=energy,
        nehari_residual=abs(pairing),
        iterations=info["iterations"],
        converged=info["converged"],
        diagnostics=diagnostics,
    )
