"""Barycenter-constrained levels and the minimax certificate.

The barycenter beta(u) is the u^2-weighted average of x/|x|.  Translating
u0, the Gausson of the constant potential c0 on the origin node, to z/eps
and rescaling onto the Nehari set gives the path field Phi_eps(z); its
barycenter approaches z/|z| as eps -> 0.  The translation is carried out by
moving the grid's frame center to z/eps, not by moving node values, so the
path is a property of (grid, potential): u0 and its frame-independent terms
are built once per grid, every path field lives on that grid, and all four
numbers below come from it:

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
as max(0, D_eps - m(c0)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .energy import energy_terms, eps_norm_sq, field_energy, potential_samples
from .grid import Grid, GridField, integrate_array, node_coordinates
from .nehari import (
    SolverConfig,
    _gausson_seed,
    _reduced_objective,
    gausson,
    ground_state,
    m_closed_form,
    minimize_on_nehari,
)
from .potential import PotentialSpec, _subspace_sphere


def direction_weights(grid: Grid) -> NDArray:
    """x/|x| at every node, frame center included, with 0 at the origin node
    (measure-zero point); read-only.  Only a grid centered at the origin is
    cached: a moved frame, one per zero-finder sample, is built per call."""
    return (_direction_table.__wrapped__ if any(grid.center) else _direction_table)(grid)


@lru_cache(maxsize=8)
def _direction_table(grid: Grid) -> NDArray:
    """The origin is detected with a spacing-relative tolerance: linspace
    rounding can leave the center node at ~1e-15 rather than exactly 0, and
    x/|x| there would be a full-size junk direction."""
    pts = node_coordinates(grid)
    norm = np.linalg.norm(pts, axis=1)
    off_origin = norm > 1e-9 * grid.spacing
    safe = np.where(off_origin, norm, 1.0)
    w = np.where(off_origin[:, None], pts / safe[:, None], 0.0)
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


def barycenter(u: GridField) -> NDArray:
    """Mass-direction average  integral((x/|x|) u^2) / integral(u^2)."""
    beta = _barycenter_values(u.values * u.values, direction_weights(u.grid))
    if np.isnan(beta[0]):
        raise ValueError("barycenter is undefined for the zero field")
    return beta


# ---------------------------------------------------------------------------
# the path in a moving frame
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _path_gausson(grid: Grid, c0: float) -> NDArray:
    """Node values of u0, the c0-Gausson on the origin node of ``grid``, the
    one profile of every path; read-only, built once per (grid, c0).

    The path moves the frame center away from the origin, so it starts from
    a grid centered there, as ``dump_field`` does.
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
    of its own: the zero finder reads u0 alone and prices nothing."""
    _, sq, kin, _, mass, ent = energy_terms(grid, _path_gausson(grid, c0), 0.0)
    sq.flags.writeable = False
    return sq, kin, mass, ent


def path_levels(grid: Grid, potential: PotentialSpec, eps: float, zs) -> NDArray:
    """J of the path fields Phi_eps(z), one entry per row z of ``zs``.

    Phi_eps(z) is t*u0 with the frame center moved to z/eps.  Kinetic, mass
    and log terms do not see the frame, so the cached terms of u0 serve every
    row; a row samples V once for pot(z) = integral(V u0^2) in its frame and
    takes J from the reduced objective.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    if zs.ndim != 2 or zs.shape[1] != grid.dim:
        raise ValueError(f"z must have {grid.dim} components")
    terms = _path_terms(grid, potential.c0)
    j = np.empty(len(zs))
    for k, z in enumerate(zs):
        frame = _path_frame(grid, z, eps)
        j[k] = _path_level(terms, frame, potential_samples(potential, frame, eps))[1]
    return j


def _path_level(terms: tuple, frame: Grid, vsamp: NDArray) -> tuple[float, float]:
    """(t, J(t u0)) in a frame from its potential samples."""
    sq, kin, mass, ent = terms
    pot = integrate_array(frame, vsamp * sq)
    return _reduced_objective(kin + pot - ent, mass)


def _path_frame(grid: Grid, z: NDArray, eps: float) -> Grid:
    return replace(grid, center=np.add(grid.center, z / eps))


def phi_path(grid: Grid, potential: PotentialSpec, eps: float, z, vsamp: Optional[NDArray] = None) -> GridField:
    """Path field Phi_eps(z), one row of ``path_levels`` as a field: t*u0 on
    ``grid`` with the center shifted by z/eps, so it never leaves the box.

    ``vsamp`` is V(eps x) on that moved frame, for a caller that has sampled
    it already; otherwise it is sampled here.
    """
    z = np.asarray(z, dtype=float).ravel()
    if z.size != grid.dim:
        raise ValueError(f"z must have {grid.dim} components")
    frame = _path_frame(grid, z, eps)
    if vsamp is None:
        vsamp = potential_samples(potential, frame, eps)
    t = _path_level(_path_terms(grid, potential.c0), frame, vsamp)[0]
    return GridField(frame, t * _path_gausson(grid, potential.c0))


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
    the root when there is one.  Each x_a is a per-axis vector shaped to
    broadcast over a field (no n^N coordinate table); ``wx`` holds the X
    columns of the direction weights.
    """

    def __init__(self, grid: Grid, axes):
        self.shape = grid.shape
        self.coords = [grid.axis(a).reshape((-1,) + (1,) * (grid.dim - 1 - a)) for a in axes]
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

    def retract(self, c: NDArray, sq: NDArray) -> Optional[bool]:
        """Tilt c >= 0 in place onto the constraint, ``sq`` = c^2 as the
        energy kernel returns it: False if c lies on it to rounding (c
        untouched), True if it was tilted, None if no tilt carries it there."""
        if _x_norm(_barycenter_values(sq, self.wx)) <= _BETA_ROUNDING:
            return False
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
        return None

    def reduce(self, g: NDArray, u: NDArray) -> NDArray:
        """The L2 gradient of c -> J(tilt(c)) at a u on the constraint, from
        the gradient g of J, in place: g - (w_X u) M^-1 <x_X u, g> with M =
        sum w_X x_X^T u^2, half the Jacobian at lam = 0.  It vanishes at the
        constrained minimizer, where g is a combination of the w_X u."""
        b = self._moments(u * g)
        r = self.wx @ _solve_small(self._half_jacobian(u * u), b)
        g -= np.multiply(r, u, out=r)
        return g


@dataclass
class LevelDResult:
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
    Gausson at the origin with level V(0) as in ``ground_state``, whose
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
    u, info = minimize_on_nehari(grid, vsamp, _gausson_seed(grid, potential), solver, constraint=tilt)
    beta_x = _x_norm(_barycenter_values(u * u, tilt.wx))  # NaN, the zero field's, is infeasible
    return LevelDResult(field_energy(grid, u, vsamp)[0], GridField(grid, u), beta_x <= BETA_TOL, beta_x, [info])


# ---------------------------------------------------------------------------
# sup over X of the path energy, boundary radius, Theta_r
# ---------------------------------------------------------------------------

# points on each sphere of Q and of its boundary (two X axes; one axis gives two)
_BOUNDARY_SAMPLES = 8


def level_sup_x(grid: Grid, potential: PotentialSpec, eps: float, threshold: float) -> dict:
    """Max of J(Phi_eps(x)) over sampled Q and the radius R of Q, from one
    walk over X, with the analytic cap m(c0) + (3/10) c2 integral(u0^2).

    The walk prices the z = 0 row, where a symmetric saddle puts the path
    maximum, then the sphere of X (``_subspace_sphere``) of each
    ``R_SCHEDULE`` radius in increasing order, and stops at the first whose
    boundary max is at or below ``threshold``: that radius is R, and every
    row priced lies in Q(R).  A NaN threshold clears no radius; exhaustion
    reports R None and the max over Q(max R_SCHEDULE)."""
    origin = path_levels(grid, potential, eps, np.zeros((1, potential.dim)))[0]
    boundary, found = {}, None
    for R in sorted(R_SCHEDULE):
        zs = _subspace_sphere(potential.dim, potential.x_axes, R, _BOUNDARY_SAMPLES)
        boundary[float(R)] = float(np.max(path_levels(grid, potential, eps, zs)))
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
    members bounds Theta_r from above.  Two members are at hand, both on the
    Nehari set of ``grid``:

    * Phi_eps(0) = t*u0 itself, at distance 0 from the ball's center, when
      |P_X beta| <= ``BETA_TOL`` (the Gausson sits on the origin node, so
      beta_X is rounding), priced as the z = 0 row of ``path_levels``: the
      bits ``level_sup_x`` reads at the center of Q, so the estimate never
      exceeds sup_X J;
    * the ``level_d`` minimizer, when it is feasible and its eps-norm
      distance to Phi_eps(0), read off one forward transform, is at most r.

    The estimate is the smaller of their J values.  With the minimizer in
    the ball it is D_eps_estimate itself, since D_eps <= J(Phi_eps(0)); the
    minimizer sits inside r = ``THETA_RADIUS`` at every default eps
    (distance 0.200 / 0.065 / 0.018 / 0.005 at eps 0.4 / 0.2 / 0.1 / 0.05).
    Otherwise J(Phi_eps(0)) is the estimate, still an upper bound, and
    ``used_minimizer`` says which one it was.  No field off the Nehari set
    is priced: J off that set can lie below every Nehari level.
    """
    if minimizer.field.grid != grid:
        raise ValueError("the level_d minimizer must live on the path grid")
    # Phi_eps(0) is t*u0 in the grid's own frame
    vsamp = potential_samples(potential, grid, eps)
    base = phi_path(grid, potential, eps, np.zeros(grid.dim), vsamp=vsamp).values
    beta_x = _x_norm(_barycenter_values(base * base, direction_weights(grid))[list(potential.x_axes)])
    best = _path_level(_path_terms(grid, potential.c0), grid, vsamp)[1] if beta_x <= BETA_TOL else math.inf
    dist = math.sqrt(eps_norm_sq(grid, minimizer.field.values - base, vsamp))
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
    }


# ---------------------------------------------------------------------------
# barycenter zero finder (degree evidence)
# ---------------------------------------------------------------------------

def barycenter_zero_finder(grid: Grid, potential: PotentialSpec, eps: float, R: float) -> dict:
    """The zero x* in Q of P_X beta(Phi_eps(x)), with the degree evidence.

    u0 is radial and sits on the origin node, so beta(Phi_eps(0)) =
    beta(u0) = 0 up to rounding for every V: x* is 0, and its residual
    |P_X beta(Phi_eps(0))| is reported.  A residual above ``BETA_TOL``, a
    path that breaks this symmetry, is reported as inconclusive.  The degree
    evidence is read on the boundary of Q, the sphere of radius R in X that
    ``level_sup_x`` prices: the sign of P_X beta at -R and R for one X axis,
    and its winding number on the counterclockwise circle of
    ``_BOUNDARY_SAMPLES`` points for two; a missing sign change or zero
    winding is not degree one, not a failure.
    """
    axes = list(potential.x_axes)
    u0 = _path_gausson(grid, potential.c0)
    sq = u0 * u0

    def f_rows(zs) -> NDArray:
        """P_X beta(Phi_eps(z)) for each row z, read off u0 in the moved
        frame: beta(t u) = beta(u), so no t, J or V is needed."""
        return np.array([_barycenter_values(sq, direction_weights(_path_frame(grid, z, eps)))[axes] for z in zs])

    boundary = f_rows(_subspace_sphere(potential.dim, potential.x_axes, R, _BOUNDARY_SAMPLES))
    if len(axes) == 1:
        hi, lo = boundary[:, 0]  # the sampler returns +R first
        evidence = {"boundary_values": [float(lo), float(hi)], "degree_one": bool(lo < 0 < hi)}
    else:
        angles = np.array([math.atan2(fv[1], fv[0]) for fv in boundary])
        d = np.diff(np.concatenate([angles, angles[:1]]))
        d = (d + math.pi) % (2 * math.pi) - math.pi
        winding = int(round(float(np.sum(d)) / (2 * math.pi)))
        evidence = {"winding": winding, "degree_one": bool(abs(winding) >= 1)}
    residual = float(np.linalg.norm(f_rows(np.zeros((1, potential.dim)))[0]))
    inconclusive = residual > BETA_TOL
    return {
        "x_star": None if inconclusive else [0.0] * len(axes),
        "residual": residual,
        "inconclusive": inconclusive,
        "degree_evidence": evidence,
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


@dataclass(frozen=True)
class CertificateConfig:
    """Everything a certificate run needs besides eps."""

    potential: PotentialSpec
    h_target: float = 0.4
    solver_half_extent: float = 10.0
    solver: SolverConfig = SolverConfig()
    compute_numerical_m: bool = True

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

    Nothing is drawn at random, so the certificate is deterministic for a
    fixed configuration.  Sub-level failures surface as inconclusive flags
    rather than exceptions.

    ``D_eps`` below m(c0) by more than 1e-6 + 1e-9 m(c0), an allowance that
    does not read the grid, is an internal defect (AssertionError).  D_eps is
    J of a field u on the discrete Nehari set of V >= c0, so J_V(u) =
    max_t J_V(t u) >= max_t J_c0(t u) >= m_h(c0), the discrete ground level
    of c0, which the sampled Gausson attains: m_h(c0) = m(c0) to 4.5e-16 at
    h = 0.4 and 8.5e-12 at ``MAX_H_TARGET`` (8.7e-7 low at h = 0.8).
    """
    pot = cfg.potential
    m_c0 = m_closed_form(pot.c0, pot.dim)

    # one grid for m(c0), D_eps, Theta_r, R and sup_X J: the path moves the
    # frame, not the field, so no eps-dependent path grid is needed and the
    # orderings between these numbers are not blurred by mixed grids
    grid = cfg.grid()

    inconclusive = {}

    m_num = None
    if cfg.compute_numerical_m:
        sol = ground_state(grid, pot.c0, eps, config=cfg.solver)
        m_num = sol.energy
        if not sol.converged:  # a stalled solve is not a converged one
            inconclusive["m_c0_numerical"] = True

    d_res = level_d(grid, pot, eps, solver=cfg.solver)
    if not (d_res.feasible and d_res.converged):
        inconclusive["level_d"] = True
    d_est = d_res.value
    if d_est < m_c0 - (1e-6 + 1e-9 * m_c0):
        raise AssertionError(
            f"D estimate {d_est} fell below m(c0) = {m_c0} beyond the rounding allowance"
        )
    sigma = max(0.0, d_est - m_c0)

    theta = level_theta(grid, pot, eps, THETA_RADIUS, d_res)
    if not theta["feasible"]:
        inconclusive["theta_r"] = True

    # an infeasible Theta_r (value NaN) leaves a NaN threshold, which no radius clears
    sup_x = level_sup_x(grid, pot, eps, 0.5 * (m_c0 + theta["value"]))
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
            # the single grid; the key name predates the moving frame
            "path_grid": (grid.dim, grid.half_extent, grid.points_per_axis),
        },
    )


def sweep_eps(eps_values, cfg: CertificateConfig) -> list[LevelCertificate]:
    """Certificates for a list of eps values, each one on its own: a row
    solves its own numerical m(c0) and reads nothing from the rows before
    it, so it is the ``certificate`` at its eps."""
    return [certificate(float(eps), cfg) for eps in eps_values]
