"""Nehari-set projection and ground-state solvers.

Membership of the Nehari set is the vanishing of the fiber derivative,
equivalently J(u) = 1/2 integral(u^2).  For the logarithmic nonlinearity the
projection scale has the closed form t = exp(J'(u)u / (2 integral u^2)),
which makes the projection a single pairing plus a rescale; the scale and
the projected level J(t u) are read off the energy kernel's reductions by
``energy._projected_level``.

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

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .energy import SplitParams, _projected_level, _safe_log_sq, energy_terms, field_energy, potential_samples
from .grid import (
    Grid,
    GridField,
    dim_problems,
    is_int,
    is_real,
    laplacian_from_sine,
    node_axes,
    refuse,
    shifted_laplacian_solve,
)

if TYPE_CHECKING:
    from numpy.typing import NDArray

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


@dataclass(eq=False)
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
            "stalled": self.diagnostics["stalled"],
            "rel_grad": self.diagnostics["rel_grad"],
        }


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the ground-state iteration; its defaults are the rule
    of every solve that names none, and the CLI's solver block reads them.
    The constructor owns the block's rules: one ValueError lists every violation."""

    tol: float = 1e-6
    max_iters: int = 4000

    def __post_init__(self) -> None:
        problems = []
        if not (is_real(self.tol) and self.tol > 0):
            problems.append(f"tol must be a finite positive number, got {self.tol}")
        if not (is_int(self.max_iters) and self.max_iters >= 1):
            problems.append(f"max_iters must be a positive integer, got {self.max_iters}")
        refuse(problems)


# ---------------------------------------------------------------------------
# Gausson oracle and closed-form level
# ---------------------------------------------------------------------------

def gausson(grid: Grid, A: float) -> GridField:
    """Exact constant-potential solution of level A at the grid's frame
    center c (the origin unless the frame was moved): exp((N+A)/2)
    exp(-|x-c|^2/2) in rescaled coordinates.  ``m_closed_form`` refuses an A
    it cannot price (A <= -1, or m(A) past the float range) before any
    arithmetic; the box rule of ``Grid`` keeps the 4-sigma ball inside the box."""
    m_closed_form(A, grid.dim)
    # |x - c|^2 as the broadcast sum of the per-axis squared offsets, then
    # exp(-r2/2) and the scale in place on that one n^N buffer
    u = sum((x - ck) ** 2 for x, ck in zip(node_axes(grid), grid.center))
    u /= -2.0
    np.exp(u, out=u)
    u *= math.exp(0.5 * (grid.dim + A))
    return GridField(grid, u)


def m_closed_form(A: float, N: int) -> float:
    """Ground-state level 1/2 e^{N+A} pi^{N/2} for constant potential A."""
    if A <= -1.0:
        raise ValueError(f"A must exceed -1, got {A}")
    refuse(dim_problems(N, "N"))
    try:
        return 0.5 * math.exp(N + A) * math.pi ** (N / 2.0)
    except OverflowError:
        raise ValueError(f"m(A) = 1/2 e^(N+A) pi^(N/2) overflows a float at N = {N}, A = {A}") from None


# ---------------------------------------------------------------------------
# ground-state iteration
# ---------------------------------------------------------------------------

def _lbfgs_direction(g: NDArray, pairs: list, precondition) -> NDArray:
    """H g by the L-BFGS two-loop recursion (Liu & Nocedal 1989) over the
    (s, y, 1/<s, y>) ``pairs``, oldest first, with ``precondition`` as the
    initial inverse Hessian H0.  With no pairs it is H0 g itself.  The
    recursion works on a copy of g, which ``precondition`` may overwrite."""
    q = g.copy()
    coefs = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.dot(s, q))
        q -= a * y
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
    constraint=None,
):
    """Monotone descent of J on the Nehari set, on a constraint if given.

    Each step: descend along the L-BFGS direction, floor the trial at half
    the iterate, rescale back onto the Nehari set.  Backtracking keeps the
    recorded J non-increasing.  ``constraint`` (``level_d``'s barycenter
    tilt; ``ground_state`` sets none) has ``retract(c)``, which moves a
    trial c onto the constraint in place and returns True once c lies on it,
    False (the trial is rejected) if it cannot, and ``reduce(g, u)``, which
    makes the gradient g of J at u that of J after the retraction, in place.

    The initial inverse Hessian is the scaled Sobolev metric
    H0 = S (-Lap + sigma)^-1 S, with sigma = 1 + mean V and S = diag
    sqrt(sigma / max(sigma, V - 1 - log u^2)).  The Hessian of J is
    -Lap + V - 2 - log u^2 near u; the Sobolev metric (solved exactly by
    DST-I, ``shifted_laplacian_solve``) takes its Laplacian part, which is
    what makes the iteration count flat in the mesh, and S damps the nodes
    whose local term exceeds sigma: the Gaussian tail, where -log u^2 grows
    like |x|^2.  The direction d = H g for the L2 gradient g runs the
    two-loop recursion over the last ``_LBFGS_MEMORY`` pairs s = u_new - u
    (Nehari-projected iterates) and y = g_new - g (after ``reduce``), each
    kept only if <s, y> > 0; the memory starts empty in every call, and with
    an empty memory d = H0 g is the plain scaled Sobolev step.  Should d not
    be a descent direction (<g, d> <= 0) the memory is cleared and the plain
    step taken.  The trial c = max(u - alpha d, u/2) can at most halve a
    node, so no positive node reaches 0 and the nonlocal direction is never
    clipped at the cone; nodes at 0 fill in where d < 0.  Armijo asks for a
    decrease proportional to <g, u - c>_h.

    A trial c is retracted first and priced once: one kernel call, one
    forward transform per trial, tilted or not.  Its Nehari scale t and the
    level J(t c) of its projection are read off the kernel's reductions
    (``_projected_level``).
    Only the accepted trial's sine coefficients go through the inverse half
    to Lap c, and Lap(t c) = t Lap c is the Laplacian of the new iterate, so
    an iteration costs the trials' forward transforms, one inverse and one
    solve.  The solver owns ``start`` (clipped and rescaled in place) and
    reuses the old iterate's and gradient's buffers for the next pair (s,
    y).  It holds u, g, d, the pairs and a trial; log u^2 (then S), one
    scratch field (the gradient's products and mask), the two-loop's copy
    of g and the constraint's scratch come and go within an iteration.
    Tested peaks at 269^2, in n^N fields: 5 for a V = 1 ``ground_state``, 15
    for a saddle one, 17.5 for ``level_d`` (16.0 measured, tilted or not).

    A start with no mass, that the constraint cannot retract, or whose J or
    ||u||_eps^2 is not finite raises ValueError.  Returns (values, info
    dict); ``info["trials"]`` counts the backtracking trials of all iterations.
    """
    h_n = grid.cell_volume
    sigma = 1.0 + float(np.mean(vsamp))

    def projected(cand: NDArray):
        """(sine coefficients of c, t, J(t c), ||c||_eps^2) of c retracted
        in place, or None for a c the constraint cannot retract or with no mass."""
        if constraint is not None and not constraint.retract(cand):
            return None
        coeffs, _, kin, pot, mass, ent = energy_terms(grid, cand, vsamp)
        return (coeffs, *_projected_level(kin, pot, mass, ent)) if mass > 0 else None

    u = np.clip(start, 0.0, None, out=start)
    del start
    with np.errstate(over="ignore", invalid="ignore"):
        point = projected(u)
    if point is None:
        raise ValueError("the solver refuses its start: it has no mass, or the constraint cannot carry it")
    coeffs, t, j_cur, norm_c = point
    eps_norm_sq = t * t * norm_c
    if not (math.isfinite(j_cur) and math.isfinite(eps_norm_sq)):
        raise ValueError(f"the solver refuses its start: J = {j_cur} and ||u||_eps^2 = {eps_norm_sq} must be finite")
    u *= t
    j_history = [j_cur]
    alpha = _ARMIJO_INIT
    converged = stall = False
    trials = 0
    pairs = []
    step = g_prev = None

    for iterations in range(1, config.max_iters + 1):
        lap = laplacian_from_sine(grid, coeffs)
        lap *= t
        point = coeffs = None
        # u >= 0, and log(1) = 0 at its zero nodes keeps 0 log 0 = 0
        log_sq = _safe_log_sq(u)
        # Lap u is read here only (an accepted point brings the next one, past
        # the direction), so the gradient takes its buffer; the products and
        # the stationarity mask go through one scratch field
        g = np.negative(lap, out=lap)
        del lap
        buf = np.multiply(vsamp, u)
        g += buf
        g -= np.multiply(u, log_sq, out=buf)
        if constraint is not None:
            constraint.reduce(g, u)
        if step is not None:
            y = np.subtract(g, g_prev, out=g_prev)
            sy = float(np.dot(step, y))
            if sy > 0:
                pairs.append((step, y, 1.0 / sy))
                if len(pairs) > _LBFGS_MEMORY:
                    pairs.pop(0)
            step = g_prev = y = None

        # stationarity measure: full gradient with the cone constraint active
        buf.fill(0.0)
        np.copyto(buf, g, where=(u > 0) | (g < 0))
        gnorm = math.sqrt(h_n * float(np.dot(buf, buf)))
        rel_grad = gnorm / max(math.sqrt(max(eps_norm_sq, 0.0)), 1e-300)
        if rel_grad <= config.tol:
            converged = True
            break

        # S in the buffer of log u^2; the scratch field goes with it
        scale = np.subtract(np.subtract(vsamp, 1.0, out=buf), log_sq, out=log_sq)
        np.sqrt(np.divide(sigma, np.maximum(sigma, scale, out=scale), out=scale), out=scale)
        del buf, log_sq

        def precondition(v: NDArray) -> NDArray:
            v *= scale
            w = shifted_laplacian_solve(grid, v, sigma)
            w *= scale
            return w

        d = _lbfgs_direction(g, pairs, precondition)
        if pairs and not float(np.dot(g, d)) > 0:
            pairs.clear()
            d = precondition(g.copy())
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
            cand = u - trial * d
            np.maximum(cand, _STEP_FLOOR * u, out=cand)
            point = projected(cand)
            if point is not None:
                coeffs, t, j_new, norm_c = point
                decrease = _ARMIJO_DECREASE * h_n * float(np.dot(g, u - cand))
                certified = j_new <= j_cur - decrease
                noise_step = trial <= alpha and j_new <= j_cur + noise_guard
                if certified or noise_step:
                    cand *= t
                    step, g_prev = np.subtract(cand, u, out=u), g
                    u, eps_norm_sq = cand, t * t * norm_c
                    j_cur = j_new
                    alpha = trial
                    accepted = True
                    break
            trial *= _ARMIJO_SHRINK
        del d, cand
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


def _gausson_seed(grid: Grid, potential, eps: float) -> NDArray:
    """The solvers' start: ``gausson`` on the grid, at its frame center c,
    with level V(eps c), the exact solution of the frozen-coefficient problem
    there (on a grid centered at the origin, V(0) for every eps)."""
    if hasattr(potential, "evaluate"):
        level = float(potential.evaluate([eps * c for c in grid.center]))
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

    The seed is the Gausson of level V(eps c) at the frame center c (``_gausson_seed``).
    Non-convergence is reported through ``converged``/diagnostics, never
    silently.

    ``params`` is not read: J does not depend on the splitting cutoff.  The
    slot stays only because the benchmark script (``perfbench/child.py``)
    passes a SplitParams positionally before ``config``; pass ``config`` by
    name.
    """
    config = config or SolverConfig()
    vsamp = potential_samples(potential, grid, eps)
    values, info = minimize_on_nehari(grid, vsamp, _gausson_seed(grid, potential, eps), config)
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
