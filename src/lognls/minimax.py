"""Barycenter-constrained levels and the minimax certificate.

The barycenter beta(u) is the u^2-weighted average of x/|x|.  Translating
u0, the Gausson of the constant potential c0 on the origin node, to z/eps
and rescaling onto the Nehari set gives the path field Phi_eps(z); its
barycenter approaches z/|z| as eps -> 0.  The translation is carried out by
moving the grid's frame center to z/eps, not by moving node values, so the
path is a property of (grid, potential): u0 and its frame-independent terms
are built once per grid, every path field lives on that grid, and all four
numbers below come from it (D_eps from a frame of it moved to the lattice
node nearest y*/eps, where V on Y is least, see ``certificate``):

* D_eps  -- inf of J over Nehari fields with barycenter in Y (estimated by
  one descent held on that set by a tilt; an UPPER bound of the true
  infimum, since every iterate is a member of the set),
* sup_X J(Phi_eps(x)) over the disc Q in X,
* Theta_r -- inf of J over Nehari fields with barycenter in Y in the
  eps-norm r-ball around Phi_eps(0), a subset of D_eps's set, so D_eps <=
  Theta_r.  It is estimated by the smaller J of two members of that set:
  Phi_eps(0) itself and the D_eps minimizer when its distance to Phi_eps(0)
  is at most r.  Both are fields of the set, so the estimate is an UPPER
  bound, and at every default eps it is D_eps_estimate itself,
* R -- a disc radius whose boundary values sit below a threshold.

The minimax value over continuous fillings of Q is never computed; the
certificate brackets it between Theta_r and sup_Q J(Phi_eps) and records
pass/fail for each separation inequality.  sigma is defined operationally
as max(0, D_eps - m(c0)).  The barycenter-zero evidence reads the kernels
here from ``oracles``, which no certificate loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from .energy import _projected_level, energy_terms, eps_norm_sq, field_energy, potential_samples
from .grid import Grid, GridField, box_problems, integrate_array, is_real, node_axes, refuse
from .nehari import (
    SolverConfig,
    _gausson_seed,
    gausson,
    ground_state,
    m_closed_form,
    minimize_on_nehari,
)
from .potential import PotentialSpec, _subspace_sphere

if TYPE_CHECKING:
    from numpy.typing import NDArray


def direction_weights(grid: Grid) -> NDArray:
    """x/|x| at every node, frame center included, with 0 at the origin node
    (measure-zero point); read-only.  Only a grid centered at the origin is
    cached: a moved frame, one per zero-finder sample, is built per call."""
    return (_direction_table.__wrapped__ if any(grid.center) else _direction_table)(grid)


@lru_cache(maxsize=8)
def _direction_table(grid: Grid) -> NDArray:
    """The origin is detected with a spacing-relative tolerance: linspace
    rounding can leave the center node at ~1e-15 rather than exactly 0, and
    x/|x| there would be a full-size junk direction.  The table is data,
    computed from the open mesh."""
    z = node_axes(grid)
    norm = np.sqrt(sum(x * x for x in z))
    off_origin = norm > 1e-9 * grid.spacing
    safe = np.where(off_origin, norm, 1.0)
    w = np.stack([np.where(off_origin, x / safe, 0.0) for x in z], axis=-1).reshape(-1, grid.dim)
    w.flags.writeable = False
    return w


def _barycenter_values(sq: NDArray, w: NDArray) -> NDArray:
    """The one barycenter kernel: (u^2 @ w) / sum(u^2) from the squared node
    values and a weight table (all directions, or the X columns alone), the
    cell volume cancelling; NaN for the zero field."""
    mass = float(np.sum(sq))
    if mass <= 0:
        return np.full(w.shape[1], np.nan)
    return (sq @ w) / mass


def _x_norm(beta_x: NDArray) -> float:
    """|P_X beta| from the X components of a barycenter; NaN stays NaN."""
    return math.sqrt(float(beta_x @ beta_x))


# ---------------------------------------------------------------------------
# the path in a moving frame
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _path_gausson(grid: Grid, c0: float) -> NDArray:
    """Node values of u0, the c0-Gausson on the origin node of ``grid``, the
    one profile of every path; read-only, built once per (grid, c0).

    The path moves the frame center away from the origin, so it starts from
    a grid centered there, as ``field_text`` does.
    """
    if any(grid.center):
        raise ValueError("the path needs a grid centered at the origin")
    u0 = gausson(grid, c0).values
    u0.flags.writeable = False
    return u0


@lru_cache(maxsize=8)
def _path_terms(grid: Grid, c0: float) -> tuple[NDArray, float, float, float]:
    """(u0^2, kin, mass, ent) of ``_path_gausson``, the frame-independent
    part of the path, from one energy kernel call per (grid, c0).  A cache
    of its own: the zero finder of ``oracles`` reads u0 alone and prices
    nothing."""
    _, sq, kin, _, mass, ent = energy_terms(grid, _path_gausson(grid, c0), 0.0)
    sq.flags.writeable = False
    return sq, kin, mass, ent


def _path_row(grid: Grid, potential: PotentialSpec, eps: float, z: NDArray) -> tuple[Grid, NDArray, float, float]:
    """(frame, V(eps x) in it, t, J(t u0)): the one pricing of the path row z.
    Only pot(z) = integral(V u0^2) sees the frame moved to z/eps, so a row
    samples V once and reuses the cached terms of u0 for the rest."""
    frame = _path_frame(grid, z, eps)
    vsamp = potential_samples(potential, frame, eps)
    sq, kin, mass, ent = _path_terms(grid, potential.c0)
    t, j, _ = _projected_level(kin, integrate_array(frame, vsamp * sq), mass, ent)
    return frame, vsamp, t, j


def _path_frame(grid: Grid, z: NDArray, eps: float) -> Grid:
    with np.errstate(over="ignore"):  # an infinite center is refused by Grid
        return replace(grid, center=np.add(grid.center, z / eps))


# ---------------------------------------------------------------------------
# level D: barycenter-constrained minimization
# ---------------------------------------------------------------------------

# the |P_X beta| at or below which a field's barycenter counts as lying in Y
BETA_TOL = 1e-3

# |P_X beta| of rounding: the target of a tilt, and no tilt within it
_BETA_ROUNDING = 32.0 * np.finfo(float).eps

# F evaluations of one tilt, Newton steps and their halvings together
_TILT_EVALUATIONS = 60


def _solve_small(a: NDArray, b: NDArray) -> NDArray:
    """a^+ b for the tilt's k x k Jacobian, a division for one X axis (every
    certificate below N = 3): a first LAPACK call, pinv's, adds ~1 MB of RSS."""
    return b / a[0, 0] if len(b) == 1 else np.linalg.pinv(a) @ b


class _BarycenterTilt:
    """The constraint of D_eps, sum w_X c^2 = 0 (P_X beta(c) = 0), held by
    the tilt c -> c e^{lam.x_X}, which commutes with the Nehari rescale.

    lam is the root of F(lam) = sum w_X c^2 e^{2 lam.x_X}, the gradient of
    the convex Psi(lam) = 1/2 sum c^2 |x|^-1 e^{2 lam.x_X}: its Jacobian is
    symmetric positive semidefinite, and damped Newton from lam = 0 finds
    the root when there is one.  Each x_a is an X axis's array of the open
    mesh ``node_axes``, broadcast over a field; ``wx`` holds the X columns
    of the direction weights.
    """

    def __init__(self, grid: Grid, axes):
        self.shape = grid.shape
        z = node_axes(grid)
        self.coords = [z[a] for a in axes]
        self.others = [tuple(b for b in range(grid.dim) if b != a) for a in axes]
        self.wx = direction_weights(grid)[:, list(axes)]

    def _moments(self, f: NDArray) -> NDArray:
        """sum x_X f, from the marginal of f on each X axis."""
        f = f.reshape(self.shape)
        return np.array([f.sum(axis=o) @ x.ravel() for o, x in zip(self.others, self.coords)])

    def _half_jacobian(self, q: NDArray) -> NDArray:
        """sum w_X x_X^T q, symmetric: M of ``reduce`` for q = u^2."""
        r = np.empty_like(q)
        return np.array([self._moments(np.multiply(q, w, out=r)) for w in self.wx.T])

    def _root_terms(self, c: NDArray, lam: NDArray) -> tuple[NDArray, NDArray, float]:
        """(F(lam), its Jacobian, sum c^2 e^{2 lam.x_X})."""
        q = (c * c).reshape(self.shape)
        for x, lam_a in zip(self.coords, lam):
            q *= np.exp(2.0 * lam_a * x)
        q = q.ravel()
        return q @ self.wx, 2.0 * self._half_jacobian(q), float(np.sum(q))

    def retract(self, c: NDArray) -> bool:
        """Tilt c >= 0 in place onto the constraint: True once c lies on it
        (a c on it to rounding is left untouched, with no Jacobian formed),
        False if no tilt carries it there."""
        if _x_norm(_barycenter_values(c * c, self.wx)) <= _BETA_ROUNDING:
            return True
        lam, step = np.zeros(len(self.coords)), None
        f, jac, mass = self._root_terms(c, lam)
        for _ in range(_TILT_EVALUATIONS):
            if _x_norm(f) <= _BETA_ROUNDING * mass:
                for x, lam_a in zip(self.coords, lam):
                    c.reshape(self.shape)[...] *= np.exp(lam_a * x)
                return True
            if step is None:
                step = -_solve_small(jac, f)
            # a step that overflows gives a NaN F, which is no decrease
            with np.errstate(over="ignore", invalid="ignore"):
                trial = self._root_terms(c, lam + step)
            if _x_norm(trial[0]) < _x_norm(f):
                lam, (f, jac, mass), step = lam + step, trial, None
            else:
                step = step / 2.0
        return False

    def reduce(self, g: NDArray, u: NDArray) -> NDArray:
        """The L2 gradient of c -> J(tilt(c)) at a u on the constraint, from
        the gradient g of J, in place: g - (w_X u) M^-1 <x_X u, g> with M =
        sum w_X x_X^T u^2, half the Jacobian at lam = 0.  It vanishes at the
        constrained minimizer, where g is a combination of the w_X u."""
        b = self._moments(u * g)
        r = self.wx @ _solve_small(self._half_jacobian(u * u), b)
        g -= np.multiply(r, u, out=r)
        return g


@dataclass(eq=False)
class LevelDResult:
    """The D_eps estimate of ``level_d``: J of the solve's last iterate,
    that field, whether its |P_X beta| (``beta_x_norm``) is at most
    ``BETA_TOL``, and the solve's info dict as the one entry of ``stages``."""

    value: float
    field: GridField
    feasible: bool
    beta_x_norm: float
    stages: list

    @property
    def converged(self) -> bool:
        """True only if the solve, whose info dict is ``stages``'s one entry, converged."""
        return all(stage["converged"] for stage in self.stages)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "feasible": self.feasible,
            "beta_x_norm": self.beta_x_norm,
            "converged": self.converged,
        }


def level_d(grid: Grid, potential: PotentialSpec, eps: float, solver: Optional[SolverConfig] = None) -> LevelDResult:
    """Estimate inf J over Nehari fields whose barycenter lies in Y.

    One descent of J on the Nehari set within the nonnegative cone, from the
    Gausson at the frame center as in ``ground_state``, whose
    trials ``_BarycenterTilt`` keeps on P_X beta = 0 and whose gradient is
    that of J after the tilt.  Every iterate is a member of the constrained
    set (|P_X beta| at rounding), so the returned J is an UPPER bound of the
    true infimum.  ``feasible`` reads |P_X beta| <= ``BETA_TOL``; a solve
    that did not converge is reported (``converged``).
    """
    if len(potential.y_axes) == 0:
        raise ValueError("level_d needs a nontrivial Y subspace")
    solver = solver or SolverConfig()
    vsamp = potential_samples(potential, grid, eps)
    tilt = _BarycenterTilt(grid, potential.x_axes)
    u, info = minimize_on_nehari(grid, vsamp, _gausson_seed(grid, potential, eps), solver, constraint=tilt)
    beta_x = _x_norm(_barycenter_values(u * u, tilt.wx))  # NaN, the zero field's, is infeasible
    return LevelDResult(field_energy(grid, u, vsamp)[0], GridField(grid, u), beta_x <= BETA_TOL, beta_x, [info])


# ---------------------------------------------------------------------------
# sup over X of the path energy, boundary radius, Theta_r
# ---------------------------------------------------------------------------

# points on each sphere of Q and of its boundary (two X axes; one axis gives two)
_BOUNDARY_SAMPLES = 8


def level_sup_x(grid: Grid, potential: PotentialSpec, eps: float, threshold: float, origin: float) -> dict:
    """Max of J(Phi_eps(x)) over sampled Q and the radius R of Q, from one
    walk over X, with the analytic cap m(c0) + (3/10) c2 integral(u0^2).

    The walk starts at ``origin``, the J of the z = 0 row that
    ``level_theta`` has priced (where a symmetric saddle puts the path
    maximum), then prices the sphere of X (``_subspace_sphere``) of each
    ``R_SCHEDULE`` radius in increasing order, and stops at the first whose
    boundary max is at or below ``threshold``: that radius is R, and every
    row priced lies in Q(R).  A NaN threshold clears no radius; exhaustion
    reports R None and the max over Q(max R_SCHEDULE)."""
    boundary, found = {}, None
    for R in sorted(R_SCHEDULE):
        zs = _subspace_sphere(potential.dim, potential.x_axes, R, _BOUNDARY_SAMPLES)
        boundary[float(R)] = float(np.max([_path_row(grid, potential, eps, z)[3] for z in zs]))
        if boundary[float(R)] <= threshold:
            found = float(R)
            break
    m_c0 = m_closed_form(potential.c0, grid.dim)
    return {
        "value": float(np.max([origin, *boundary.values()])),
        "R": found,
        "threshold": threshold,
        "boundary_max": boundary,
        "succeeded": found is not None,
        "cap": m_c0 + 0.3 * potential.c2 * _path_terms(grid, potential.c0)[2],
        "cap_closed_form": m_c0 * (1.0 + 0.6 * potential.c2),  # integral(u0^2) = 2 m(c0) for the exact profile
    }


def level_theta(
    grid: Grid,
    potential: PotentialSpec,
    eps: float,
    r: float,
    minimizer: LevelDResult,
) -> dict:
    """Upper bound of Theta_r from the two fields the certificate already has.

    Theta_r is the inf of J over Nehari fields with barycenter in Y that lie
    in the eps-norm r-ball around Phi_eps(0).  That set is a subset of the
    one D_eps minimizes over, so D_eps <= Theta_r, and J of any of its
    members bounds Theta_r from above.  Two members are at hand:

    * Phi_eps(0) = t*u0 itself, at distance 0 from the ball's center, when
      |P_X beta| <= ``BETA_TOL`` (the Gausson sits on the origin node, so
      beta_X is rounding): its field, its J and the V samples of the
      distance below all come from one ``_path_row`` at z = 0, whose J
      (``origin_J``) ``level_sup_x`` takes at the center of Q, so the
      estimate never exceeds sup_X J;
    * the ``level_d`` minimizer, when it is feasible, lies on ``grid`` and
      its eps-norm distance to Phi_eps(0), read off one forward transform,
      is at most r.  One on a moved frame, about |y*|/eps away (20.9 at eps
      0.4 on a Y-asymmetric V), far outside r, is skipped (NaN distance).

    The estimate is the smaller of their J values.  With the minimizer in
    the ball it is D_eps_estimate itself, since D_eps <= J(Phi_eps(0)); the
    minimizer sits inside r = ``THETA_RADIUS`` at every default eps
    (distance 0.200 / 0.065 / 0.018 / 0.005 at eps 0.4 / 0.2 / 0.1 / 0.05).
    Otherwise J(Phi_eps(0)) is the estimate, still an upper bound, and
    ``used_minimizer`` says which one it was.  No field off the Nehari set
    is priced: J off that set can lie below every Nehari level.
    """
    if replace(minimizer.field.grid, center=grid.center) != grid:
        raise ValueError("the level_d minimizer must live on the path grid or a moved frame of it")
    # Phi_eps(0) is t*u0 in the grid's own frame
    _, vsamp, t, j0 = _path_row(grid, potential, eps, np.zeros(grid.dim))
    base = t * _path_gausson(grid, potential.c0)
    beta_x = _x_norm(_barycenter_values(base * base, direction_weights(grid))[list(potential.x_axes)])
    best = j0 if beta_x <= BETA_TOL else math.inf
    on_grid = minimizer.field.grid == grid
    dist = math.sqrt(eps_norm_sq(grid, minimizer.field.values - base, vsamp)) if on_grid else math.nan
    used = minimizer.feasible and dist <= r and minimizer.value < best
    if used:
        best = minimizer.value
    feasible = math.isfinite(best)
    return {
        "value": best if feasible else math.nan,
        "r": r,
        "minimizer_distance": dist,
        "used_minimizer": used,
        "feasible": feasible,
        "origin_J": j0,
    }


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

# sigma at or below this counts as no gap (constrained_gap and sandwich fail)
SIGMA_FLOOR = 1e-6

# the coarsest h_target whose grid resolves the Gausson (see ``certificate``)
MAX_H_TARGET = 0.6

# the certificate's fixed sampling: the radii of the spheres of X that
# ``level_sup_x`` walks, and the eps-norm radius r of Theta_r
R_SCHEDULE = (0.25, 0.5, 1.0, 2.0)
THETA_RADIUS = 0.5

# a level_d minimizer whose boundary ratio (``_boundary_ratio``) exceeds this
# is cut by its box.  At h = 0.4 on 1 + 0.25(1+z1^2)/(1+|z|^2) + 0.1 z1/
# (1+z1^2), eps 0.4, origin-centred L = 6 / 6.8 / 7.2 / 7.6 read 1.4e-3 /
# 5.9e-5 / 9.4e-6 / 1.3e-6 and shift D_eps from L = 16 by 1.65e-5 / 1.8e-8 /
# 3.8e-10 / 1.8e-11: up to 1e-6 the shift is below the solve's 1e-10 scatter
_BOX_TAIL_RATIO = 1e-6


@dataclass(frozen=True)
class CertificateConfig:
    """Everything a certificate run needs besides eps.  The constructor owns
    the certificate block's rules: one ValueError lists every violation."""

    potential: PotentialSpec
    h_target: float = 0.4
    solver_half_extent: float = 6.0
    solver: SolverConfig = SolverConfig()
    compute_numerical_m: bool = True

    def __post_init__(self) -> None:
        problems = []
        # a grid coarser than MAX_H_TARGET does not resolve the Gausson
        if not (is_real(self.h_target) and 0 < self.h_target <= MAX_H_TARGET):
            problems.append(f"h_target must be a finite number in (0, {MAX_H_TARGET}], got {self.h_target}")
        problems += box_problems("solver_half_extent", self.solver_half_extent)
        if not isinstance(self.compute_numerical_m, bool):
            problems.append(f"compute_numerical_m must be true or false, got {self.compute_numerical_m}")
        refuse(problems)

    def grid(self) -> Grid:
        """The grid of a certificate: [-L, L]^N at spacing close to
        ``h_target`` with an odd node count (a node at the origin), L =
        ``solver_half_extent``; level_d runs on a moved frame of it."""
        L = self.solver_half_extent
        return Grid(self.potential.dim, L, _odd_points(L, self.h_target))


@dataclass
class LevelCertificate:
    """The certificate at one eps: the levels and the bracket, R, sigma, the
    five flags and what was inconclusive, with the sub-reports behind them
    in ``details``, which the written report leaves out."""

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
        """The written report: every field but ``details``, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "details"}


def _odd_points(half_extent: float, h_target: float) -> int:
    n = max(17, int(round(2.0 * half_extent / h_target)) + 1)
    return n if n % 2 == 1 else n + 1


def _boundary_ratio(u: GridField) -> float:
    """max |u| over the outer node layer of its box over max |u|: how much of
    the field the Dirichlet edge cuts off."""
    a = np.abs(u.reshaped())
    edge = max(float(np.max(np.take(a, (0, -1), axis=k))) for k in range(a.ndim))
    return edge / float(np.max(a))


@lru_cache(maxsize=8)
def _ground_level(grid: Grid, c0: float, solver: SolverConfig) -> tuple[float, bool]:
    """(J, converged) of the numerical ground state of the constant c0 on
    ``grid``: V(eps x) = c0 at every eps, so a sweep solves it once."""
    sol = ground_state(grid, c0, 1.0, config=solver)
    return sol.energy, sol.converged


def certificate(eps: float, cfg: CertificateConfig) -> LevelCertificate:
    """Assemble the level separations and the minimax bracket at one eps.

    Nothing is drawn at random, so the certificate is deterministic for a
    fixed configuration.  Sub-level failures surface as inconclusive flags
    rather than exceptions.

    ``D_eps`` below m(c0) by more than 1e-6 + 1e-9 m(c0), an allowance that
    does not read the grid, is an internal defect (AssertionError).  D_eps is
    J of a field u on the discrete Nehari set of V >= c0, so J_V(u) =
    max_t J_V(t u) >= max_t J_c0(t u) >= m_h(c0), the discrete ground level
    of c0, which the sampled Gausson attains: m_h(c0) = m(c0) to 4.5e-16 at
    h = 0.4 and 8.5e-12 at ``MAX_H_TARGET`` (8.7e-7 low at h = 0.8).  V
    sampled below c0 on the D_eps grid breaks the premise: a ValueError.
    """
    pot = cfg.potential
    m_c0 = m_closed_form(pot.c0, pot.dim)

    inconclusive = {}

    # one grid for every number: the path moves the frame, not the field, so
    # no eps-dependent path grid is needed.  The D_eps minimizer concentrates
    # at y*/eps, so level_d runs on the frame moved to the lattice node
    # nearest it, seeded there; a minimizer that its box still cuts is
    # inconclusive, so a truncated D_eps is never written unflagged
    grid = cfg.grid()
    h = grid.spacing
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # a center past the floats is refused by Grid
        center = np.round(np.divide(pot.y_star, eps * h)) * h
    d_res = level_d(replace(grid, center=center), pot, eps, solver=cfg.solver)
    ratio = _boundary_ratio(d_res.field)
    if ratio > _BOX_TAIL_RATIO:
        inconclusive["box"] = True

    m_num = None
    if cfg.compute_numerical_m:
        m_num, converged = _ground_level(grid, pot.c0, cfg.solver)
        if not converged:  # a stalled solve is not a converged one
            inconclusive["m_c0_numerical"] = True

    if not (d_res.feasible and d_res.converged):
        inconclusive["level_d"] = True
    d_est = d_res.value
    if d_est < m_c0 - (1e-6 + 1e-9 * m_c0):
        low = float(np.min(potential_samples(pot, d_res.field.grid, eps)))
        if low < pot.c0:
            raise ValueError(f"V samples down to {low} on the D_eps grid, below c0 = {pot.c0}: V >= c0 fails")
        raise AssertionError(
            f"D estimate {d_est} fell below m(c0) = {m_c0} beyond the rounding allowance"
        )
    sigma = max(0.0, d_est - m_c0)

    theta = level_theta(grid, pot, eps, THETA_RADIUS, d_res)
    if not theta["feasible"]:
        inconclusive["theta_r"] = True

    # an infeasible Theta_r (value NaN) leaves a NaN threshold, which no radius clears
    sup_x = level_sup_x(grid, pot, eps, 0.5 * (m_c0 + theta["value"]), theta["origin_J"])
    if not sup_x["succeeded"]:
        inconclusive["choose_r"] = True

    flags = {
        # positive gap of the constrained level over the free ground level
        "constrained_gap": bool(sigma > SIGMA_FLOOR),
        # path energies over X stay below the doubled ground level
        "sup_below_two_m": bool(sup_x["value"] < 2.0 * m_c0 - sigma),
        # some disc radius keeps its boundary under the threshold
        "boundary_radius_found": sup_x["succeeded"],
        # neighborhood level clears the midpoint of the gap; with Theta_r =
        # D_eps (the minimizer in the ball) this is sigma > 0
        "theta_above_half_gap": bool(theta["feasible"] and theta["value"] > m_c0 + 0.5 * sigma),
    }
    # the minimax bracket (m + sigma/2, 2m - sigma) is nonempty and holds
    flags["sandwich"] = bool(
        flags["constrained_gap"]
        and flags["sup_below_two_m"]
        and flags["theta_above_half_gap"]
        and m_c0 + 0.5 * sigma < 2.0 * m_c0 - sigma
    )

    return LevelCertificate(
        eps=float(eps),
        m_c0=m_c0,
        m_c0_numerical=m_num,
        D_eps_estimate=d_est,
        sup_X_J=sup_x["value"],
        theta_r_estimate=theta["value"],
        R_used=sup_x["R"],
        sigma_margin=sigma,
        flags=flags,
        inconclusive=inconclusive,
        details={
            "level_d": d_res.to_dict(),
            "theta": theta,
            "sup_x": sup_x,
            # the grid of every number (level_d on a moved frame of it); the
            # key name predates the moving frame
            "path_grid": (grid.dim, grid.half_extent, grid.points_per_axis),
            "boundary_ratio": ratio,
        },
    )


def sweep_eps(eps_values, cfg: CertificateConfig) -> list[LevelCertificate]:
    """Certificates for a list of eps values, each one on its own: a row
    reads nothing from the rows before it, so it is the ``certificate`` at
    its eps (the rows on one grid share the cached numerical m(c0), which no
    eps changes)."""
    return [certificate(float(eps), cfg) for eps in eps_values]
