"""Barycenter-constrained levels and the minimax certificate.

The barycenter beta(u) is the u^2-weighted average of x/|x|.  Translating a
constant-potential ground state u0 to z/eps and rescaling onto the Nehari
set gives the path field Phi_eps(z); its barycenter approaches z/|z| as
eps -> 0.  The translation is carried out by moving the grid's frame center
to z/eps, not by moving node values, so every path field lives on the grid
of u0 and all four numbers below come from one grid:

* D_eps  -- inf of J over Nehari fields with barycenter in Y (estimated by
  penalized minimization; an UPPER bound of the true infimum),
* sup_X J(Phi_eps(x)) over the disc Q in X,
* Theta_r -- inf of J over an r-neighborhood of the path image with
  barycenter in Y (sampled; again an upper bound),
* R -- a disc radius whose boundary values sit below a threshold.

The minimax value over continuous fillings of Q is never computed; the
certificate brackets it between Theta_r and sup_Q J(Phi_eps) and records
pass/fail for each separation inequality.  sigma is defined operationally
as max(0, D_eps - m(c0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .energy import energy_terms, potential_samples
from .grid import Grid, GridField, integrate_array, kinetic_array, node_coordinates
from .nehari import (
    SolverConfig,
    _gausson_seed,
    _log_scale,
    field_energy,
    gausson,
    ground_state,
    m_closed_form,
    minimize_on_nehari,
)
from .potential import PotentialSpec, _subspace_sphere


@lru_cache(maxsize=8)
def direction_weights(grid: Grid) -> NDArray:
    """x/|x| at every node, with 0 at the origin node (measure-zero point).

    x includes the grid's frame center, so on a moved frame these are the
    translated directions.  The origin is detected with a spacing-relative
    tolerance: linspace rounding can leave the center node at ~1e-15 rather
    than exactly 0, and x/|x| there would be a full-size junk direction.
    """
    pts = node_coordinates(grid)
    norm = np.linalg.norm(pts, axis=1)
    off_origin = norm > 1e-9 * grid.spacing
    safe = np.where(off_origin, norm, 1.0)
    return np.where(off_origin[:, None], pts / safe[:, None], 0.0)


def _barycenter_values(grid: Grid, values: NDArray) -> NDArray:
    """Barycenter of raw node values as one product with the direction
    weights (the cell volume cancels); NaN for the zero field."""
    sq = values * values
    mass = float(np.sum(sq))
    if mass <= 0:
        return np.full(grid.dim, np.nan)
    return (sq @ direction_weights(grid)) / mass


def barycenter(u: GridField) -> NDArray:
    """Mass-direction average  integral((x/|x|) u^2) / integral(u^2)."""
    beta = _barycenter_values(u.grid, u.values)
    if np.isnan(beta[0]):
        raise ValueError("barycenter is undefined for the zero field")
    return beta


def eps_norm_sq(grid: Grid, values: NDArray, vsamp: NDArray) -> float:
    """Squared norm  integral(|grad u|^2 + (V(eps x)+1) u^2)  (stencil form)."""
    return kinetic_array(grid, values, values) + _weighted_mass(grid, values, vsamp)


def _weighted_mass(grid: Grid, values: NDArray, vsamp: NDArray) -> float:
    """integral((V(eps x)+1) u^2), the frame-dependent part of the eps-norm."""
    return integrate_array(grid, (vsamp + 1.0) * values * values)


# ---------------------------------------------------------------------------
# the path in a moving frame
# ---------------------------------------------------------------------------

def phi_path(u0: GridField, z, eps: float, potential) -> GridField:
    """Path field Phi_eps(z): u0 translated by z/eps, rescaled onto Nehari.

    The translation moves the frame, not the values: the result is t*u0 on
    u0's grid with its center shifted by z/eps.  Kinetic, mass and log terms
    do not change under translation, while V(eps x) and the barycenter
    directions are sampled at the translated nodes, so the field never
    leaves the box however far z/eps reaches.
    """
    z = np.asarray(z, dtype=float).ravel()
    if z.size != u0.grid.dim:
        raise ValueError(f"z must have {u0.grid.dim} components")
    frame = replace(u0.grid, center=np.add(u0.grid.center, z / eps))
    vsamp = potential_samples(potential, frame, eps)
    _, kin, pot, mass, ent = energy_terms(frame, u0.values, vsamp)
    if mass <= 0:
        raise ValueError("the path is undefined for the zero field")
    return GridField(frame, math.exp(_log_scale(kin + pot - ent, mass)) * u0.values)


def _path_energy(f: GridField, potential, eps: float) -> float:
    """J of a path field, with V sampled in the field's own frame."""
    return field_energy(f.grid, f.values, potential_samples(potential, f.grid, eps))[0]


# ---------------------------------------------------------------------------
# sign condition
# ---------------------------------------------------------------------------

@dataclass
class SignConditionReport:
    eps_values: list
    min_inner: list
    threshold_eps: Optional[float]
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "eps_values": self.eps_values,
            "min_inner": self.min_inner,
            "threshold_eps": self.threshold_eps,
        }


def sign_condition(
    u0: GridField,
    z_samples: NDArray,
    eps_values,
    potential,
) -> SignConditionReport:
    """Inner products (beta(Phi_eps(z)), z) over samples and eps values.

    Reports the minimum per eps and the largest eps in the list below which
    every sampled inner product is positive.  No claim is made for large
    eps; failures there are simply reported.
    """
    z_samples = np.atleast_2d(np.asarray(z_samples, dtype=float))
    mins = []
    per_eps = {}
    for eps in eps_values:
        inner = []
        for z in z_samples:
            b = barycenter(phi_path(u0, z, eps, potential))
            inner.append(float(np.dot(b, z)))
        mins.append(min(inner))
        per_eps[float(eps)] = inner
    threshold = None
    for k in range(len(eps_values)):
        if all(m > 0 for m in mins[k:]):
            threshold = float(eps_values[k])
            break
    return SignConditionReport(
        eps_values=[float(e) for e in eps_values],
        min_inner=mins,
        threshold_eps=threshold,
        details={"inner_products": per_eps},
    )


# ---------------------------------------------------------------------------
# level D: penalized barycenter-constrained minimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _BarycenterPenalty:
    """mu |P_X beta(u)|^2 with its L2 gradient; unchanged under u -> t u.

    ``wx`` holds the direction weights of the X axes, one column per axis,
    so P_X beta is one product.  The solver asks for the value at every
    trial and for the gradient at accepted points only.
    """

    mu: float
    wx: NDArray
    cell_volume: float

    def _beta_x(self, values: NDArray):
        sq = values * values
        total = float(np.sum(sq))
        return (sq @ self.wx) / total if total > 0 else None, total

    def value(self, values: NDArray) -> float:
        beta, _ = self._beta_x(values)
        return 0.0 if beta is None else self.mu * float(beta @ beta)

    def gradient(self, values: NDArray) -> NDArray:
        beta, total = self._beta_x(values)
        if beta is None:
            return np.zeros_like(values)
        # d beta_k / du = 2 u (w_k - beta_k) / integral(u^2)
        scale = 4.0 * self.mu / (self.cell_volume * total)
        return scale * values * (self.wx @ beta - float(beta @ beta))


@dataclass
class LevelDResult:
    value: float
    field: GridField
    feasible: bool
    beta_x_norm: float
    upper_bound: bool
    stages: list

    @property
    def converged(self) -> bool:
        """True only if every penalty stage converged."""
        return all(stage["converged"] for stage in self.stages)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "feasible": self.feasible,
            "beta_x_norm": self.beta_x_norm,
            "upper_bound": self.upper_bound,
            "converged": self.converged,
        }


def level_d(
    grid: Grid,
    potential: PotentialSpec,
    eps: float,
    solver: Optional[SolverConfig] = None,
    penalty_schedule=(1.0, 10.0, 100.0, 1000.0),
    beta_tol: float = 1e-3,
) -> LevelDResult:
    """Estimate inf J over Nehari fields whose barycenter lies in Y.

    Minimizes J + mu |P_X beta(u)|^2 over the nonnegative cone with Nehari
    reprojection (the rescale leaves beta unchanged), driving mu through the
    schedule.  The returned value is an UPPER bound of the true infimum;
    infeasibility against ``beta_tol`` is reported explicitly, and so is a
    stage that did not converge (``converged``).  The seed is the Gausson at
    the origin with level V(0), as in ``ground_state``.
    """
    if len(potential.y_axes) == 0:
        raise ValueError("level_d needs a nontrivial Y subspace")
    solver = solver or SolverConfig(tol=1e-6, max_iters=4000)
    vsamp = potential_samples(potential, grid, eps)
    wx = direction_weights(grid)[:, list(potential.x_axes)]
    u = _gausson_seed(grid, potential)

    stages = []
    best_value = math.inf
    best_u = u
    best_beta = math.inf
    for mu in penalty_schedule:
        penalty = _BarycenterPenalty(mu, wx, grid.cell_volume)
        u, info = minimize_on_nehari(grid, vsamp, u, solver, extra_term=penalty)
        beta = _barycenter_values(grid, u)
        beta_x = math.sqrt(sum(float(beta[ax]) ** 2 for ax in potential.x_axes))
        j_val = field_energy(grid, u, vsamp)[0]
        stages.append(
            {
                "mu": mu,
                "J": j_val,
                "beta_x_norm": beta_x,
                "iterations": info["iterations"],
                "converged": info["converged"],
            }
        )
        if beta_x <= beta_tol and j_val < best_value:
            best_value = j_val
            best_u = u.copy()
            best_beta = beta_x

    feasible = math.isfinite(best_value)
    if not feasible:
        # keep the last iterate for diagnostics even when infeasible
        best_u = u
        best_value = stages[-1]["J"]
        best_beta = stages[-1]["beta_x_norm"]
    return LevelDResult(
        value=best_value,
        field=GridField(grid, best_u),
        feasible=feasible,
        beta_x_norm=best_beta,
        upper_bound=True,
        stages=stages,
    )


# ---------------------------------------------------------------------------
# sup over X of the path energy, boundary radius, Theta_r
# ---------------------------------------------------------------------------

def _q_samples(potential: PotentialSpec, R: float, n: int) -> NDArray:
    """Sample points of Q = closed ball of radius R in the X subspace."""
    axes = potential.x_axes
    dim = potential.dim
    if len(axes) == 1:
        xs = np.linspace(-R, R, n)
        pts = np.zeros((n, dim))
        pts[:, axes[0]] = xs
        return pts
    n_rad = max(2, int(math.sqrt(n)))
    n_ang = max(4, int(math.ceil(n / n_rad)))
    pts = [np.zeros(dim)]
    for r in np.linspace(R / n_rad, R, n_rad):
        for a in np.linspace(0.0, 2 * math.pi, n_ang, endpoint=False):
            p = np.zeros(dim)
            p[axes[0]] = r * math.cos(a)
            p[axes[1]] = r * math.sin(a)
            pts.append(p)
    return np.array(pts)


@dataclass
class SupXReport:
    value: float
    cap: float
    cap_closed_form: float
    R: float
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "cap": self.cap,
            "cap_closed_form": self.cap_closed_form,
            "R": self.R,
            "n_samples": self.n_samples,
        }


def level_sup_x(
    u0: GridField,
    potential: PotentialSpec,
    eps: float,
    R: float,
    n_samples: int = 17,
) -> SupXReport:
    """Max of J(Phi_eps(x)) over sampled Q, with the analytic cap
    m(c0) + (3/10) c2 integral(u0^2) for comparison."""
    vals = [
        _path_energy(phi_path(u0, z, eps, potential), potential, eps)
        for z in _q_samples(potential, R, n_samples)
    ]
    m_c0 = m_closed_form(potential.c0, u0.grid.dim)
    mass_u0 = integrate_array(u0.grid, u0.values**2)
    cap = m_c0 + 0.3 * potential.c2 * mass_u0
    cap_closed = m_c0 * (1.0 + 0.6 * potential.c2)  # integral(u0^2) = 2 m(c0) for the exact profile
    return SupXReport(
        value=float(max(vals)),
        cap=cap,
        cap_closed_form=cap_closed,
        R=R,
        n_samples=len(vals),
    )


@dataclass
class ChooseRResult:
    R: Optional[float]
    threshold: float
    boundary_max: dict
    succeeded: bool

    def to_dict(self) -> dict:
        return {
            "R": self.R,
            "threshold": self.threshold,
            "boundary_max": self.boundary_max,
            "succeeded": self.succeeded,
        }


def choose_r(
    u0: GridField,
    potential: PotentialSpec,
    eps: float,
    threshold: float,
    schedule=(0.25, 0.5, 1.0, 2.0),
    boundary_samples: int = 8,
) -> ChooseRResult:
    """Smallest radius in the schedule whose boundary path values sit below
    the threshold; exhaustion is reported with the achieved maxima."""
    achieved = {}
    for R in schedule:
        achieved[float(R)] = max(
            _path_energy(phi_path(u0, z, eps, potential), potential, eps)
            for z in _subspace_sphere(potential.dim, potential.x_axes, R, boundary_samples)
        )
        if achieved[float(R)] <= threshold:
            return ChooseRResult(float(R), threshold, achieved, True)
    return ChooseRResult(None, threshold, achieved, False)


@dataclass
class ThetaReport:
    value: float
    r: float
    n_feasible: int
    feasible: bool
    upper_bound: bool
    included_minimizer: bool

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "r": self.r,
            "n_feasible": self.n_feasible,
            "feasible": self.feasible,
            "upper_bound": self.upper_bound,
            "included_minimizer": self.included_minimizer,
        }


def _symmetrize_x(grid: Grid, values: NDArray, x_axes) -> NDArray:
    """Average a field with its reflections across every X axis."""
    out = values.reshape(grid.shape).copy()
    for ax in x_axes:
        out = 0.5 * (out + np.flip(out, axis=ax))
    return out.ravel()


def theta_r_estimate(
    u0: GridField,
    potential: PotentialSpec,
    eps: float,
    r: float,
    R: float,
    n_centers: int = 9,
    n_perturb: int = 6,
    perturb_magnitudes=(0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0),
    seed: int = 0,
    beta_tol: float = 1e-3,
    extra_candidate: Optional[GridField] = None,
) -> ThetaReport:
    """Sampled upper-bound estimate of Theta_r.

    Candidates are path fields Phi_eps(x) over Q plus perturbations of norm
    up to r (in the eps-norm of the frame they perturb; that choice of norm
    matters and is fixed here), filtered to barycenter in Y.  The bumps are
    drawn once in frame-relative coordinates and X-symmetrized about the
    frame center.  ``perturb_magnitudes`` is an absolute ladder filtered by
    <= r, so candidate sets nest across r and the estimate is non-increasing
    in r by construction.  The scan streams: each candidate is built,
    tested and dropped.  If ``extra_candidate`` (e.g. the level_d minimizer,
    on the grid of u0) lies within r of the z = 0 path field, the only one in
    absolute coordinates, it joins the candidate set; that is what links the
    estimate to D_eps from above.
    """
    grid = u0.grid
    rng = np.random.default_rng(seed)
    rel = node_coordinates(grid) - np.asarray(grid.center)
    # each bump with its kinetic term: the stencil sees only spacing and
    # shape, which every frame shares, so one Laplacian serves all centers
    bumps = []
    for _ in range(n_perturb):
        c = rng.uniform(-2.0, 2.0, size=grid.dim)
        widths = rng.uniform(0.7, 2.0)
        amp = rng.standard_normal()
        bump = amp * np.exp(-np.sum((rel - c) ** 2, axis=1) / (2 * widths**2))
        bump = _symmetrize_x(grid, bump, potential.x_axes)
        bumps.append((bump, kinetic_array(grid, bump, bump)))
    magnitudes = [m for m in perturb_magnitudes if m <= r]

    best = math.inf
    n_feasible = 0

    def consider(frame: Grid, cand: NDArray, vsamp: NDArray) -> None:
        nonlocal best, n_feasible
        beta = _barycenter_values(frame, cand)
        beta_x = math.sqrt(sum(float(beta[ax]) ** 2 for ax in potential.x_axes))
        if not beta_x <= beta_tol:  # NaN (zero field) is infeasible too
            return
        n_feasible += 1
        best = min(best, field_energy(frame, cand, vsamp)[0])

    origin = None
    for z in _q_samples(potential, R, n_centers):
        base = phi_path(u0, z, eps, potential)
        frame = base.grid
        vsamp = potential_samples(potential, frame, eps)
        if not np.any(z):
            origin = (base, vsamp)
        consider(frame, base.values, vsamp)
        for bump, bump_kin in bumps:
            norm = math.sqrt(bump_kin + _weighted_mass(frame, bump, vsamp))
            if norm > 0:
                d = bump / norm
                for mag in magnitudes:
                    consider(frame, base.values + mag * d, vsamp)

    included = False
    if extra_candidate is not None:
        if origin is None:
            base = phi_path(u0, np.zeros(grid.dim), eps, potential)
            origin = (base, potential_samples(potential, base.grid, eps))
        base, vsamp = origin
        if extra_candidate.grid != base.grid:
            raise ValueError("extra_candidate must live on the grid of u0")
        if math.sqrt(eps_norm_sq(base.grid, extra_candidate.values - base.values, vsamp)) <= r:
            consider(base.grid, extra_candidate.values, vsamp)
            included = True

    feasible = math.isfinite(best)
    return ThetaReport(
        value=best if feasible else math.nan,
        r=r,
        n_feasible=n_feasible,
        feasible=feasible,
        upper_bound=True,
        included_minimizer=included,
    )


# ---------------------------------------------------------------------------
# barycenter zero finder (degree evidence)
# ---------------------------------------------------------------------------

@dataclass
class ZeroFinderResult:
    x_star: Optional[list]
    residual: float
    inconclusive: bool
    degree_evidence: dict

    def to_dict(self) -> dict:
        return {
            "x_star": self.x_star,
            "residual": self.residual,
            "inconclusive": self.inconclusive,
            "degree_evidence": self.degree_evidence,
        }


def barycenter_zero_finder(
    u0: GridField,
    potential: PotentialSpec,
    eps: float,
    R: float,
    n_coarse: int = 17,
    tol: float = 1e-3,
    max_bisect: int = 48,
    boundary_samples: int = 16,
) -> ZeroFinderResult:
    """Locate x* in Q with P_X beta(Phi_eps(x*)) ~ 0.

    With a one-dimensional X this is sign bracketing plus bisection; with a
    two-dimensional X a boundary winding number is computed first and a
    recursive quadrant search descends toward the zero.  Missing sign change
    or zero winding is reported as inconclusive (no degree evidence), not as
    failure.
    """
    axes = potential.x_axes
    dim = potential.dim

    def f_vec(x: NDArray) -> NDArray:
        z = np.zeros(dim)
        for k, ax in enumerate(axes):
            z[ax] = x[k]
        beta = barycenter(phi_path(u0, z, eps, potential))
        return np.array([beta[ax] for ax in axes])

    if len(axes) == 1:
        xs = np.linspace(-R, R, n_coarse)
        vals = np.array([f_vec(np.array([x]))[0] for x in xs])
        evidence = {
            "boundary_values": [float(vals[0]), float(vals[-1])],
            "degree_one": bool(vals[0] < 0 < vals[-1]),
        }
        best_idx = int(np.argmin(np.abs(vals)))
        best_x, best_f = float(xs[best_idx]), float(vals[best_idx])
        if abs(best_f) > tol:
            brackets = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
            if brackets.size == 0:
                return ZeroFinderResult(None, abs(best_f), True, evidence)
            lo, hi = xs[brackets[0]], xs[brackets[0] + 1]
            f_lo = vals[brackets[0]]
            for _ in range(max_bisect):
                mid = 0.5 * (lo + hi)
                f_mid = f_vec(np.array([mid]))[0]
                if abs(f_mid) < abs(best_f):
                    best_x, best_f = mid, f_mid
                if abs(f_mid) <= tol or (hi - lo) < 0.25 * eps * u0.grid.spacing:
                    break
                if f_lo * f_mid <= 0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
        return ZeroFinderResult([best_x], abs(best_f), False, evidence)

    # two-dimensional X: winding number on the boundary, then quadrant descent
    def winding(center: NDArray, half: float, n: int) -> int:
        ts = np.linspace(0.0, 1.0, n, endpoint=False)
        pts = []
        for t in ts:
            s = 8.0 * t
            if s < 2:
                p = (-1 + s, -1.0)
            elif s < 4:
                p = (1.0, -1 + (s - 2))
            elif s < 6:
                p = (1 - (s - 4), 1.0)
            else:
                p = (-1.0, 1 - (s - 6))
            pts.append(center + half * np.array(p))
        values = [f_vec(p) for p in pts]
        angles = np.array([math.atan2(fv[1], fv[0]) for fv in values])
        d = np.diff(np.concatenate([angles, angles[:1]]))
        d = (d + math.pi) % (2 * math.pi) - math.pi
        return int(round(float(np.sum(d)) / (2 * math.pi)))

    center = np.zeros(2)
    half = float(R)
    w0 = winding(center, half, boundary_samples)
    evidence = {"winding": w0, "degree_one": bool(abs(w0) >= 1)}
    if w0 == 0:
        f_c = f_vec(center)
        res = float(np.linalg.norm(f_c))
        if res <= tol:
            return ZeroFinderResult([float(c) for c in center], res, False, evidence)
        return ZeroFinderResult(None, res, True, evidence)
    for _ in range(max_bisect):
        f_c = f_vec(center)
        if float(np.linalg.norm(f_c)) <= tol or half < 0.25 * eps * u0.grid.spacing:
            break
        descended = False
        for sx in (-0.5, 0.5):
            for sy in (-0.5, 0.5):
                child = center + half * np.array([sx, sy])
                if winding(child, 0.5 * half, boundary_samples) != 0:
                    center, half = child, 0.5 * half
                    descended = True
                    break
            if descended:
                break
        if not descended:
            break
    res = float(np.linalg.norm(f_vec(center)))
    return ZeroFinderResult([float(c) for c in center], res, False, evidence)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

# sigma at or below this counts as no gap (constrained_gap and sandwich fail)
SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class CertificateConfig:
    """Everything a certificate run needs besides eps."""

    potential: PotentialSpec
    h_target: float = 0.15
    solver_half_extent: float = 10.0
    r_schedule: tuple = (0.25, 0.5, 1.0, 2.0)
    theta_radius: float = 0.5
    q_samples: int = 9
    beta_tol: float = 1e-3
    solver: SolverConfig = SolverConfig(tol=1e-6, max_iters=4000)
    seed: int = 1234
    compute_numerical_m: bool = True
    m_c0_numerical: Optional[float] = None

    def grid(self) -> Grid:
        """The one grid of every certificate quantity: [-L, L]^N at spacing
        close to ``h_target`` with an odd node count (a node at the origin)."""
        L = self.solver_half_extent
        return Grid(self.potential.dim, L, _odd_points(L, self.h_target))


@dataclass
class LevelCertificate:
    eps: float
    m_c0: float
    m_c0_numerical: Optional[float]
    D_eps_estimate: float
    sup_X_J: float
    theta_r_estimate: float
    R_used: Optional[float]
    sigma_margin: float
    flags: dict
    inconclusive: dict
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "m_c0": self.m_c0,
            "m_c0_numerical": self.m_c0_numerical,
            "D_eps_estimate": self.D_eps_estimate,
            "sup_X_J": self.sup_X_J,
            "theta_r_estimate": self.theta_r_estimate,
            "R_used": self.R_used,
            "sigma_margin": self.sigma_margin,
            "flags": dict(self.flags),
            "inconclusive": dict(self.inconclusive),
        }


def _odd_points(half_extent: float, h_target: float) -> int:
    n = max(17, int(round(2.0 * half_extent / h_target)) + 1)
    return n if n % 2 == 1 else n + 1


def certificate(eps: float, cfg: CertificateConfig) -> LevelCertificate:
    """Assemble the level separations and the minimax bracket at one eps.

    All sampling is seeded, so the certificate is deterministic for a fixed
    configuration.  Sub-level failures surface as inconclusive flags rather
    than exceptions.
    """
    pot = cfg.potential
    m_c0 = m_closed_form(pot.c0, pot.dim)

    # one grid for m(c0), D_eps, Theta_r, R and sup_X J: the path moves the
    # frame, not the field, so no eps-dependent path grid is needed and the
    # orderings between these numbers are not blurred by mixed grids
    grid = cfg.grid()
    u0 = gausson(grid, pot.c0)

    inconclusive = {}

    m_num = cfg.m_c0_numerical
    if m_num is None and cfg.compute_numerical_m:
        sol = ground_state(grid, pot.c0, eps, config=cfg.solver)
        m_num = sol.energy
        if not sol.converged:  # a stalled solve is not a converged one
            inconclusive["m_c0_numerical"] = True

    d_res = level_d(grid, pot, eps, solver=cfg.solver, beta_tol=cfg.beta_tol)
    if not (d_res.feasible and d_res.converged):
        inconclusive["level_d"] = True
    d_est = d_res.value
    disc_tol = 1e-6 + m_c0 * grid.spacing**2
    if d_est < m_c0 - disc_tol:
        raise AssertionError(
            f"D estimate {d_est} fell below m(c0) = {m_c0} beyond the discretization allowance"
        )
    sigma = max(0.0, d_est - m_c0)

    theta_q_radius = max(cfg.r_schedule)
    theta = theta_r_estimate(
        u0,
        pot,
        eps,
        r=cfg.theta_radius,
        R=theta_q_radius,
        n_centers=cfg.q_samples,
        seed=cfg.seed,
        beta_tol=cfg.beta_tol,
    )
    if not theta.feasible:
        inconclusive["theta_r"] = True

    threshold = 0.5 * (m_c0 + theta.value) if theta.feasible else math.nan
    r_choice = (
        choose_r(u0, pot, eps, threshold, schedule=cfg.r_schedule)
        if theta.feasible
        else ChooseRResult(None, math.nan, {}, False)
    )
    if not r_choice.succeeded:
        inconclusive["choose_r"] = True
    r_used = r_choice.R if r_choice.succeeded else max(cfg.r_schedule)

    sup_x = level_sup_x(u0, pot, eps, R=r_used, n_samples=cfg.q_samples)

    theta_val = theta.value if theta.feasible else math.nan
    flags = {
        # positive gap of the constrained level over the free ground level
        "constrained_gap": bool(sigma > SIGMA_FLOOR),
        # path energies over X stay below the doubled ground level
        "sup_below_two_m": bool(sup_x.value < 2.0 * m_c0 - sigma),
        # some disc radius keeps its boundary under the threshold
        "boundary_radius_found": bool(r_choice.succeeded),
        # neighborhood level clears the midpoint of the gap
        "theta_above_half_gap": bool(theta.feasible and theta_val > m_c0 + 0.5 * sigma),
        # the minimax bracket (m + sigma/2, 2m - sigma) is nonempty and holds
        "sandwich": bool(
            theta.feasible
            and sigma > SIGMA_FLOOR
            and theta_val > m_c0 + 0.5 * sigma
            and sup_x.value < 2.0 * m_c0 - sigma
            and m_c0 + 0.5 * sigma < 2.0 * m_c0 - sigma
        ),
    }

    return LevelCertificate(
        eps=float(eps),
        m_c0=m_c0,
        m_c0_numerical=m_num,
        D_eps_estimate=d_est,
        sup_X_J=sup_x.value,
        theta_r_estimate=theta_val,
        R_used=r_used if r_choice.succeeded else None,
        sigma_margin=sigma,
        flags=flags,
        inconclusive=inconclusive,
        details={
            "level_d": d_res.to_dict(),
            "theta": theta.to_dict(),
            "choose_r": r_choice.to_dict(),
            "sup_x": sup_x.to_dict(),
            # the single grid; the key name predates the moving frame
            "path_grid": (grid.dim, grid.half_extent, grid.points_per_axis),
        },
    )


def sweep_eps(eps_values, cfg: CertificateConfig) -> list[LevelCertificate]:
    """Certificates for a list of eps values, reusing the numerical m(c0)."""
    certs = []
    m_num = cfg.m_c0_numerical
    for eps in eps_values:
        cert = certificate(float(eps), replace(cfg, m_c0_numerical=m_num))
        m_num = cert.m_c0_numerical
        certs.append(cert)
    return certs
