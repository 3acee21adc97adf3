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

from .energy import (
    SplitParams,
    _safe_log_sq,
    f2_prime,
    potential_samples,
    prox_f1,
    _check_weight,
)
from .grid import Grid, GridField, integrate_array, kinetic_array, laplacian_array, node_coordinates

_EXP_CLIP = 700.0  # exp argument beyond this overflows float64


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
    """Knobs for the ground-state iteration."""

    tol: float = 1e-8
    max_iters: int = 50_000
    backend: str = "projected_gradient"  # or "forward_backward"
    armijo_init: float = 1.0
    armijo_shrink: float = 0.5
    armijo_decrease: float = 1e-4
    max_backtracks: int = 40
    seed_center: Optional[tuple] = None
    record_history: bool = True

    def __post_init__(self) -> None:
        if self.backend not in ("projected_gradient", "forward_backward"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters at least 1")


# ---------------------------------------------------------------------------
# scale and projection
# ---------------------------------------------------------------------------

def _pairing_and_mass(grid: Grid, values: NDArray, vsamp: NDArray) -> tuple[float, float]:
    sq = values * values
    kin = kinetic_array(grid, values, values)
    pot = integrate_array(grid, vsamp * sq)
    ent = integrate_array(grid, np.where(sq > 0, sq * _safe_log_sq(np.abs(values)), 0.0))
    return kin + pot - ent, integrate_array(grid, sq)


def nehari_scale(u: GridField, potential, eps: float, params: SplitParams) -> float:
    """Unique t > 0 with the fiber derivative of t*u vanishing.

    t = exp(J'(u)u / (2 integral u^2)); rescaling u by c > 0 divides t by c.
    """
    vsamp = potential_samples(potential, u.grid, eps)
    _check_weight(vsamp)
    pairing, mass = _pairing_and_mass(u.grid, u.values, vsamp)
    if mass <= 0:
        raise ValueError("Nehari scale is undefined for fields with zero mass")
    return math.exp(float(np.clip(pairing / (2.0 * mass), -_EXP_CLIP, _EXP_CLIP)))


def project_nehari(u: GridField, potential, eps: float, params: SplitParams) -> GridField:
    """Rescale u onto the Nehari set; idempotent up to round-off."""
    t = nehari_scale(u, potential, eps, params)
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

def _energy_fast(grid: Grid, values: NDArray, vsamp: NDArray) -> float:
    sq = values * values
    kin = kinetic_array(grid, values, values)
    quad = integrate_array(grid, (vsamp + 1.0) * sq)
    ent = integrate_array(grid, np.where(sq > 0, sq * _safe_log_sq(np.abs(values)), 0.0))
    return 0.5 * (kin + quad) - 0.5 * ent


def _project_values(grid: Grid, values: NDArray, vsamp: NDArray) -> tuple[NDArray, float]:
    pairing, mass = _pairing_and_mass(grid, values, vsamp)
    if mass <= 0:
        return values, math.nan
    t = math.exp(float(np.clip(pairing / (2.0 * mass), -_EXP_CLIP, _EXP_CLIP)))
    return t * values, t


def minimize_on_nehari(
    grid: Grid,
    vsamp: NDArray,
    params: SplitParams,
    start: NDArray,
    config: SolverConfig,
    extra_term=None,
):
    """Monotone descent of J (+ optional smooth extra term) on the Nehari set.

    Each step: descend, clamp to the nonnegative cone, rescale back onto the
    Nehari set (the rescale leaves any scale-invariant extra term unchanged).
    Backtracking keeps the recorded objective non-increasing.  ``extra_term``
    maps values -> (value, gradient) and is used by the penalized
    barycenter-constrained minimization.

    Returns (values, info dict).
    """
    h_n = grid.cell_volume
    u, _ = _project_values(grid, np.clip(start, 0.0, None), vsamp)

    def objective(values: NDArray) -> float:
        j = _energy_fast(grid, values, vsamp)
        if extra_term is not None:
            j += extra_term(values)[0]
        return j

    j_cur = objective(u)
    j_history = [j_cur]
    t_history: list[float] = []
    alpha = config.armijo_init
    converged = False
    stall = False
    rel_grad = math.inf
    iterations = 0

    for iterations in range(1, config.max_iters + 1):
        lap = laplacian_array(grid, u)
        a = np.abs(u)
        g = -lap + vsamp * u - np.where(a > 0, u * _safe_log_sq(a), 0.0)
        if config.backend == "forward_backward":
            g_step = -lap + (vsamp + 1.0) * u - f2_prime(u, params)
        else:
            g_step = g
        if extra_term is not None:
            g_extra = extra_term(u)[1]
            g = g + g_extra
            g_step = g_step + g_extra

        # stationarity measure: full gradient with the cone constraint active
        g_proj = np.where((u > 0) | (g < 0), g, 0.0)
        gnorm = math.sqrt(h_n * float(np.dot(g_proj, g_proj)))
        sq = u * u
        eps_norm_sq = h_n * float(-np.dot(lap, u) + np.dot(vsamp + 1.0, sq))
        rel_grad = gnorm / max(math.sqrt(max(eps_norm_sq, 0.0)), 1e-300)
        if rel_grad <= config.tol:
            converged = True
            break

        trial = min(config.armijo_init, 2.0 * alpha)
        accepted = False
        # near the rounding floor the certified decrease per step drops below
        # the noise of the energy reductions; steps at or below the last
        # stable size are then accepted inside that noise band, which lets
        # the gradient norm keep contracting without letting the step size
        # ratchet into instability
        noise_guard = 32.0 * np.finfo(float).eps * max(1.0, eps_norm_sq)
        for _ in range(config.max_backtracks):
            if config.backend == "forward_backward":
                cand = prox_f1(u - trial * g_step, trial, params)
            else:
                cand = u - trial * g_step
            cand = np.clip(cand, 0.0, None)
            step_sq = h_n * float(np.dot(cand - u, cand - u))
            cand_proj, t = _project_values(grid, cand, vsamp)
            if not math.isnan(t):
                j_new = objective(cand_proj)
                decrease = config.armijo_decrease / max(trial, 1e-300) * step_sq
                certified = j_new <= j_cur - decrease
                noise_step = trial <= alpha and j_new <= j_cur + noise_guard
                if certified or noise_step:
                    u = cand_proj
                    j_cur = j_new
                    alpha = trial
                    accepted = True
                    if config.record_history:
                        t_history.append(t)
                    break
            trial *= config.armijo_shrink
        if not accepted:
            stall = True
            break
        if config.record_history:
            j_history.append(j_cur)

    info = {
        "rel_grad": rel_grad,
        "converged": converged,
        "stalled": stall,
        "iterations": iterations,
        "j_history": j_history,
        "t_history": t_history,
        "final_energy": _energy_fast(grid, u, vsamp),
    }
    return u, info


def _potential_at_point(potential, grid: Grid, eps: float, point: NDArray, vsamp: NDArray) -> float:
    """V(eps * point), falling back to the nearest node for sampled fields."""
    if isinstance(potential, GridField):
        h = grid.spacing
        offset = point - np.asarray(grid.center) + grid.half_extent
        idx = np.clip(np.rint(offset / h).astype(int), 0, grid.points_per_axis - 1)
        flat = 0
        for k in range(grid.dim):
            flat = flat * grid.points_per_axis + idx[k]
        return float(vsamp[flat])
    if hasattr(potential, "evaluate"):
        return float(np.asarray(potential.evaluate(eps * point[None, :])).ravel()[0])
    if callable(potential):
        return float(np.asarray(potential(eps * point[None, :])).ravel()[0])
    return float(potential)


def ground_state(
    grid: Grid,
    potential,
    eps: float,
    params: SplitParams,
    config: Optional[SolverConfig] = None,
) -> NehariSolution:
    """Minimize J over the Nehari set within the nonnegative cone.

    The seed is a Gausson whose level is the potential sampled at the seed
    center (the exact solution of the frozen-coefficient problem).
    Non-convergence is reported through ``converged``/diagnostics, never
    silently.
    """
    config = config or SolverConfig()
    vsamp = potential_samples(potential, grid, eps)
    _check_weight(vsamp)

    center = np.zeros(grid.dim) if config.seed_center is None else np.asarray(config.seed_center, float)
    v_at_center = _potential_at_point(potential, grid, eps, center, vsamp)
    seed = gausson(grid, max(v_at_center, -0.999), center=center).values

    values, info = minimize_on_nehari(grid, vsamp, params, seed, config)
    pairing, mass = _pairing_and_mass(grid, values, vsamp)
    energy = _energy_fast(grid, values, vsamp)

    diagnostics = dict(info)
    diagnostics["backend"] = config.backend
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
