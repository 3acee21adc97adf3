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

Every minimization on the Nehari set (the ground state here, the
barycenter-constrained level in ``minimax``) runs through one descent,
``minimize_on_nehari``: a limited-memory quasi-Newton (L-BFGS) step whose
initial inverse Hessian is the scaled Sobolev metric, the exact inverse of
-Lap + sigma (DST-I, ``grid.shifted_laplacian_solve``), so its iteration
count does not grow as the mesh is refined, and the memory of the last
steps lifts its linear rate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .energy import SplitParams, _safe_log_sq, energy_terms, field_energy, potential_samples
from .grid import (
    Grid,
    GridField,
    laplacian_from_sine,
    require_supported_dim,
    shifted_laplacian_solve,
)

_EXP_CLIP = 700.0  # exp argument beyond this overflows float64

# backtracking line search of the descent: first trial step, shrink factor
# per rejected trial, Armijo sufficient-decrease constant, trials per step
_ARMIJO_INIT = 1.0
_ARMIJO_SHRINK = 0.5
_ARMIJO_DECREASE = 1e-4
_MAX_BACKTRACKS = 40

# (s, y) pairs of the L-BFGS direction: the last accepted steps and the
# changes of the gradient along them
_LBFGS_MEMORY = 3

# a trial keeps at least this fraction of every node of the iterate, so the
# step never clips a positive node to 0
_STEP_FLOOR = 0.5


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
# the Nehari scale
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


def nehari_scale(u: GridField, potential, eps: float) -> float:
    """Unique t > 0 with the fiber derivative of t*u vanishing.

    t = exp(J'(u)u / (2 integral u^2)); rescaling u by c > 0 divides t by c.
    """
    vsamp = potential_samples(potential, u.grid, eps)
    _, _, kin, pot, mass, ent = energy_terms(u.grid, u.values, vsamp)
    if mass <= 0:
        raise ValueError("Nehari scale is undefined for fields with zero mass")
    return math.exp(_log_scale(kin + pot - ent, mass))


# ---------------------------------------------------------------------------
# Gausson oracle and closed-form level
# ---------------------------------------------------------------------------

# radius, in standard deviations, of the ball around a Gausson's center that
# must lie inside the box
GAUSSON_BALL_RADIUS = 4.0


def gausson(grid: Grid, A: float, center=None) -> GridField:
    """Exact constant-potential solution with amplitude level A > -1.

    In rescaled coordinates the profile is exp((N+A)/2) exp(-|x-c|^2/2).
    The ``GAUSSON_BALL_RADIUS`` ball around the center must stay inside the
    box (the box around the grid's frame center).
    """
    if A <= -1.0:
        raise ValueError(f"amplitude level must exceed -1, got {A}")
    c = np.zeros(grid.dim) if center is None else np.asarray(center, dtype=float).ravel()
    if c.size != grid.dim:
        raise ValueError(f"center must have {grid.dim} components")
    if np.any(np.abs(c - grid.center) + GAUSSON_BALL_RADIUS > grid.half_extent):
        raise ValueError(f"center too close to the boundary: {GAUSSON_BALL_RADIUS:g}-sigma ball exits the box")
    # |x - c|^2 as the outer sum of the per-axis squared offsets, then
    # exp(-r2/2) and the scale in place on that one n^N buffer
    u = functools.reduce(np.add.outer, [(grid.axis(k) - c[k]) ** 2 for k in range(grid.dim)])
    u /= -2.0
    np.exp(u, out=u)
    u *= math.exp(0.5 * (grid.dim + A))
    return GridField(grid, u)


def m_closed_form(A: float, N: int) -> float:
    """Ground-state level 1/2 e^{N+A} pi^{N/2} for constant potential A."""
    if A <= -1.0:
        raise ValueError(f"A must exceed -1, got {A}")
    require_supported_dim(N, "N")
    return 0.5 * math.exp(N + A) * math.pi ** (N / 2.0)


# ---------------------------------------------------------------------------
# ground-state iteration
# ---------------------------------------------------------------------------

def _lbfgs_direction(g: NDArray, pairs: list, precondition) -> NDArray:
    """H g by the L-BFGS two-loop recursion (Liu & Nocedal 1989) over the
    (s, y, 1/<s, y>) ``pairs``, oldest first, with ``precondition`` as the
    initial inverse Hessian H0.  With no pairs it is H0 g itself."""
    q = g
    coefs = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.dot(s, q))
        q = q - a * y
        coefs.append(a)
    r = precondition(q)
    for (s, y, rho), a in zip(pairs, reversed(coefs)):
        r += (a - rho * float(np.dot(y, r))) * s
    return r


def minimize_on_nehari(
    grid: Grid,
    vsamp: NDArray,
    start: NDArray,
    config: SolverConfig,
    extra_term=None,
):
    """Monotone descent of J (+ optional smooth extra term) on the Nehari set.

    Each step: descend along the L-BFGS direction, floor the trial at half
    the iterate, rescale back onto the Nehari set.  Backtracking keeps the
    recorded objective non-increasing.
    ``extra_term`` has ``value(sq, mass)``, priced from the trial's c^2 and
    integral(c^2) as the energy kernel returns them, and
    ``gradient(values)``; it must not change under positive rescaling, and
    is used by the penalized barycenter-constrained minimization.

    The initial inverse Hessian is the scaled Sobolev metric
    H0 = S (-Lap + sigma)^-1 S, with sigma = 1 + mean V and S = diag
    sqrt(sigma / max(sigma, V - 1 - log u^2)).  The Hessian of J is
    -Lap + V - 2 - log u^2 near u; the Sobolev metric (solved exactly by
    DST-I, ``shifted_laplacian_solve``) takes its Laplacian part, which is
    what makes the iteration count flat in the mesh, and S damps the nodes
    whose local term exceeds sigma: the Gaussian tail, where -log u^2 grows
    like |x|^2.  The direction d = H g for the L2 gradient g runs the
    two-loop recursion over the last ``_LBFGS_MEMORY`` pairs s = u_new - u
    (Nehari-projected iterates) and y = g_new - g (penalty included), each
    kept only if <s, y> > 0; the memory starts empty in every call, and with
    an empty memory d = H0 g is the plain scaled Sobolev step.  Should d not
    be a descent direction (<g, d> <= 0) the memory is cleared and the plain
    step taken.  The trial c = max(u - alpha d, u/2) can at most halve a
    node, so no positive node reaches 0 and the nonlocal direction is never
    clipped at the cone; nodes at 0 fill in where d < 0.  Armijo asks for a
    decrease proportional to <g, u - c>_h.

    A trial c costs one energy kernel call, one forward sine transform, and
    no more: with p = J'(c)c, m = integral(c^2) and log t = p / 2m its
    projection t c has the reduced objective J(t c) = t^2/2 (p + m - 2 m
    log t), which is t^2 m / 2 unless log t was clipped.  Only the accepted
    trial's sine coefficients go through the inverse half to Lap c, and
    Lap(t c) = t Lap c is the Laplacian of the new iterate, so an iteration
    costs the trials' forward transforms, one inverse and one solve.  The
    solver holds u, Lap u (until the gradient takes its buffer), g, d and the
    pairs.

    Returns (values, info dict); ``info["trials"]`` counts the backtracking
    trials of all iterations.
    """
    h_n = grid.cell_volume
    sigma = 1.0 + float(np.mean(vsamp))

    def projected(cand: NDArray):
        """(sine coefficients of c, t, ||c||_eps^2, objective at t c), or
        None for c = 0."""
        coeffs, sq, kin, pot, mass, ent = energy_terms(grid, cand, vsamp)
        if not mass > 0:
            return None
        t, j = _reduced_objective(kin + pot - ent, mass)
        if extra_term is not None:
            j += extra_term.value(sq, mass)
        return coeffs, t, kin + pot + mass, j

    u = np.clip(start, 0.0, None)
    point = projected(u)
    if point is None:
        # the zero field: its gradient vanishes, so the loop stops at once
        lap, eps_norm_sq, j_cur = np.zeros_like(u), 0.0, 0.0
    else:
        coeffs, t, norm_c, j_cur = point
        u, eps_norm_sq = t * u, t * t * norm_c
        lap = laplacian_from_sine(grid, coeffs)
        lap *= t
    j_history = [j_cur]
    alpha = _ARMIJO_INIT
    converged = False
    stall = False
    rel_grad = math.inf
    iterations = 0
    trials = 0
    pairs = []
    step = g_prev = None

    for iterations in range(1, config.max_iters + 1):
        # u >= 0, and log(1) = 0 at its zero nodes keeps 0 log 0 = 0
        log_sq = _safe_log_sq(u)
        # Lap u is read here only (an accepted step brings the next one), so
        # the gradient takes its buffer
        g = np.negative(lap, out=lap)
        del lap
        g += vsamp * u
        g -= u * log_sq
        if extra_term is not None:
            g += extra_term.gradient(u)
        if step is not None:
            y = g - g_prev
            sy = float(np.dot(step, y))
            if sy > 0:
                pairs.append((step, y, 1.0 / sy))
                if len(pairs) > _LBFGS_MEMORY:
                    pairs.pop(0)
            step = g_prev = y = None

        # stationarity measure: full gradient with the cone constraint active
        g_proj = np.where((u > 0) | (g < 0), g, 0.0)
        gnorm = math.sqrt(h_n * float(np.dot(g_proj, g_proj)))
        rel_grad = gnorm / max(math.sqrt(max(eps_norm_sq, 0.0)), 1e-300)
        if rel_grad <= config.tol:
            converged = True
            break

        # the direction; every temporary but d is dropped before the line
        # search, which keeps the peak memory at u, g, d and the pairs
        del g_proj
        scale = np.sqrt(sigma / np.maximum(sigma, vsamp - 1.0 - log_sq))
        del log_sq

        def precondition(v: NDArray) -> NDArray:
            w = shifted_laplacian_solve(grid, scale * v, sigma)
            w *= scale
            return w

        d = _lbfgs_direction(g, pairs, precondition)
        if pairs and not float(np.dot(g, d)) > 0:
            pairs.clear()
            d = precondition(g)
        del scale, precondition

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
            cand = np.maximum(u - trial * d, _STEP_FLOOR * u)
            point = projected(cand)
            if point is not None:
                coeffs, t, norm_c, j_new = point
                decrease = _ARMIJO_DECREASE * h_n * float(np.dot(g, u - cand))
                certified = j_new <= j_cur - decrease
                noise_step = trial <= alpha and j_new <= j_cur + noise_guard
                if certified or noise_step:
                    cand *= t
                    step, g_prev = cand - u, g
                    u, eps_norm_sq = cand, t * t * norm_c
                    lap = laplacian_from_sine(grid, coeffs)
                    lap *= t
                    j_cur = j_new
                    alpha = trial
                    accepted = True
                    break
            trial *= _ARMIJO_SHRINK
        del d
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
        # the sampled Gausson is the discrete ground state: its level is m_cf
        diagnostics["m_closed_form"] = m_cf
        diagnostics["below_closed_form"] = bool(energy < m_cf - (1e-8 + 1e-9 * m_cf))

    return NehariSolution(
        field=GridField(grid, values),
        energy=energy,
        nehari_residual=abs(pairing),
        iterations=info["iterations"],
        converged=info["converged"],
        diagnostics=diagnostics,
    )
