"""Batch front end: config ingestion, experiment orchestration, data export.

Subcommands (one per experiment):

    gausson          exact constant-potential solution and its level
    ground-state     Nehari ground state for a configured potential
    check-potential  saddle hypothesis checkers (V1, V2, V4 + advisory V3)
    saddle-cert      level certificate at one eps
    sweep-eps        certificates over an eps list, CSV + JSON output
    barycenter-zero  degree evidence for the barycenter zero (on the
                     certificate grid; the path moves the frame)

Configuration is a JSON file with blocks grid / potential / solver / sweep /
certificate / output; command-line flags override file values, and
SETTING_FLAGS is the one list of the flags that set a setting (its
"block.key" is the flag's --help metavar).  All floats are written with 17
significant digits and every file, field dumps included, is written
atomically (write then rename), so reruns of one config are byte
identical.  ``sweep.seed`` is validated as an integer and has no effect: no
certificate number is drawn at random, and the key stays accepted only
because the benchmark driver (perfbench/child.py) still sets it.  Exit
codes: 0 success, 2 config error, 3 numerical non-convergence, 4
certificate inconclusive (for sweep-eps: any row, after all rows are
written; or a numerical ValueError), 5 internal defect (a failed internal
consistency assertion).  A config file that is not valid
JSON, a config or block that is not a JSON object, a setting of the wrong
type or range, an empty sweep.eps (or a bare sweep-eps --eps), a --eps or
--R flag that is not finite and positive, a --V
that does not parse, a --A not above -1, a potential that PotentialSpec
refuses (an expression whose sampled c0 is not above -1), a box too small
for the Gausson's ball, and a block or key that nothing reads are config
errors, not silently ignored or left to fail later; a bad value from a flag
names the flag.  Every default lives in DEFAULT_CONFIG, whose solver and
certificate blocks read theirs off SolverConfig and CertificateConfig; a
merged, validated grid, solver or certificate block is the keyword arguments
of Grid, SolverConfig or CertificateConfig.  The certificate's fixed
sampling (the radii of the spheres of X that bound Q, the Theta_r radius and
the barycenter tolerance) and its box check (the boundary ratio of the D_eps
minimizer above which its box cuts it) are ``minimax`` constants, not
settings: certificate.solver_half_extent is the half extent of every
certificate grid, 6 by default (31^2 nodes at h_target 0.4); D_eps is solved
on that grid's frame moved to y*/eps, and a box that still cuts its
minimizer is inconclusive (exit 4), never enlarged.

Sweep points run one after another in input order, each on its own: a row
is the saddle-cert output at its eps.  Its numerical m(c0), a constant
potential that no eps changes, is solved once per grid and shared.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .energy import SplitParams, energy
from .grid import Grid, field_text, require_supported_dim
from .minimax import MAX_H_TARGET, CertificateConfig, certificate, sweep_eps
from .nehari import GAUSSON_BALL_RADIUS, SolverConfig, gausson, ground_state, m_closed_form
from .potential import PotentialSpec, constant_potential, model_saddle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5


# ---------------------------------------------------------------------------
# deterministic serialization: every float at 17 significant digits
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def to_json_text(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and stable key order."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {to_json_text(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{pad}  {to_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return '"nan"' if math.isnan(v) else format_float(v)
    return json.dumps(obj)


def atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, (float, np.floating)):
                cells.append(format_float(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULT_CONFIG = {
    "grid": {"dim": 2, "half_extent": 7.0, "points_per_axis": 129},
    "potential": {"kind": "model_saddle", "c0": 1.0, "c1": 1.25, "x_axes": [0], "lambda": 0.5},
    "solver": asdict(SolverConfig()),
    "sweep": {"eps": [0.4, 0.2, 0.1, 0.05], "seed": 1234},
    "certificate": {
        key: getattr(CertificateConfig, key) for key in ("h_target", "solver_half_extent", "compute_numerical_m")
    },
    "output": {"directory": "lognls-out"},
}


class ConfigError(Exception):
    """A config that breaks a precondition; ``violations`` lists every one."""

    def __init__(self, violations: list[str]):
        super().__init__(violations)
        self.violations = violations


def merge_config(base: dict, override: dict) -> dict:
    """Merge blocks key by key; a base block that is not an object is kept for validation."""
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key].update(val)
        elif not (isinstance(val, dict) and key in out):
            out[key] = val
    return out


def _is_number(x) -> bool:
    """A finite int or float; JSON's Infinity and NaN and the bools are not
    numbers here."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_positive(x) -> bool:
    return _is_number(x) and x > 0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_box(name: str, half_extent, problems: list) -> None:
    """A half extent is a finite positive number that leaves the Gausson on
    the origin its ball of ``GAUSSON_BALL_RADIUS``."""
    if not _is_positive(half_extent):
        problems.append(f"{name} must be a finite positive number, got {half_extent}")
    elif half_extent < GAUSSON_BALL_RADIUS:
        problems.append(
            f"{name} must be at least {GAUSSON_BALL_RADIUS:g}, the Gausson's "
            f"{GAUSSON_BALL_RADIUS:g}-sigma ball, got {half_extent}"
        )


def validate_config(cfg: dict) -> list[str]:
    """Collect every violated precondition; never stop at the first.

    The shape comes first: every other check reads inside the blocks, so a
    config or block that is not a JSON object is reported on its own.
    """
    if not isinstance(cfg, dict):
        return [f"the config must be a JSON object, got {json.dumps(cfg)}"]
    malformed = [name for name in DEFAULT_CONFIG if not isinstance(cfg.get(name, {}), dict)]
    if malformed:
        return [f"{name} must be a JSON object, got {json.dumps(cfg[name])}" for name in malformed]

    problems = []
    g = cfg.get("grid", {})
    dim = g.get("dim")
    try:
        require_supported_dim(dim, "grid.dim")
    except ValueError as err:
        problems.append(str(err))
        dim = None
    _check_box("grid.half_extent", g.get("half_extent"), problems)
    if not (_is_int(g.get("points_per_axis")) and g["points_per_axis"] >= 16):
        problems.append(f"grid.points_per_axis must be an integer >= 16, got {g.get('points_per_axis')}")

    p = cfg.get("potential", {})
    kind = p.get("kind")
    if kind not in ("model_saddle", "constant", "expression"):
        problems.append(f"potential.kind must be model_saddle, constant or expression, got {kind}")
    if kind == "model_saddle":
        c0, c1 = p.get("c0"), p.get("c1")
        if not (_is_number(c0) and c0 > -1):
            problems.append(f"potential.c0 must be a finite number above -1, got {c0}")
        # a c0 that is not a number is reported once, above
        if not (_is_number(c1) and (not _is_number(c0) or c1 > c0)):
            problems.append(f"potential.c1 must be a finite number above c0, got c0={c0}, c1={c1}")
    if kind == "constant" and not (_is_number(p.get("value")) and p["value"] > -1):
        problems.append(f"potential.value must be a finite number above -1 for kind=constant, got {p.get('value')}")
    if kind == "expression":
        if not isinstance(p.get("expr"), str):
            problems.append("potential.expr must be a string for kind=expression")
        elif dim is not None:
            from .expression import compile_expression

            try:
                compile_expression(p["expr"], dim)
            except ValueError as err:
                problems.append(f"potential.expr: {err}")
    lam = p.get("lambda")
    if not (_is_number(lam) and 0 < lam < 1):
        problems.append(f"potential.lambda must lie in (0,1), got {lam}")
    axes = p.get("x_axes")
    if dim is not None and not (
        isinstance(axes, list)
        and all(_is_int(a) and 0 <= a < dim for a in axes)
        and len(set(axes)) == len(axes)
    ):
        problems.append(
            f"potential.x_axes must be a list of distinct axes of dimension {dim}, got {axes}"
        )

    so = cfg.get("solver", {})
    if not _is_positive(so.get("tol")):
        problems.append(f"solver.tol must be a finite positive number, got {so.get('tol')}")
    if not (_is_int(so.get("max_iters")) and so["max_iters"] >= 1):
        problems.append(f"solver.max_iters must be a positive integer, got {so.get('max_iters')}")

    c = cfg.get("certificate", {})
    if not _is_positive(c.get("h_target")):
        problems.append(f"certificate.h_target must be a finite positive number, got {c.get('h_target')}")
    elif c["h_target"] > MAX_H_TARGET:
        # a coarser grid does not resolve the Gausson
        problems.append(f"certificate.h_target must be at most {MAX_H_TARGET}, got {c['h_target']}")
    _check_box("certificate.solver_half_extent", c.get("solver_half_extent"), problems)
    if not isinstance(c.get("compute_numerical_m"), bool):
        problems.append(f"certificate.compute_numerical_m must be true or false, got {c.get('compute_numerical_m')}")

    sw = cfg.get("sweep", {})
    eps_list = sw.get("eps")
    if not (isinstance(eps_list, list) and all(_is_positive(e) for e in eps_list)):
        problems.append(f"sweep.eps must be a list of finite positive numbers, got {eps_list}")
    elif not eps_list:  # an empty sweep would certify nothing
        problems.append("sweep.eps must name at least one eps, got []")
    if not _is_int(sw.get("seed")):
        problems.append(f"sweep.seed must be an integer, got {sw.get('seed')}")

    out = cfg.get("output", {})
    directory = out.get("directory")
    if not (isinstance(directory, str) and directory):
        problems.append(f"output.directory must be a non-empty string, got {json.dumps(directory)}")

    for name in sorted(set(cfg) - set(BLOCK_KEYS)):
        problems.append(f"{name} is not a config block; the blocks are {', '.join(BLOCK_KEYS)}")
    for block, known in BLOCK_KEYS.items():
        for key in sorted(set(cfg.get(block, {})) - set(known)):
            problems.append(f"{block}.{key} is not a setting; {block} takes {', '.join(known)}")
    return problems


def build_potential(cfg: dict) -> PotentialSpec:
    """The configured potential; one that ``PotentialSpec`` refuses (a sampled
    c0 not above -1, or NaN) is a config error, raised before any output."""
    p = cfg["potential"]
    dim = cfg["grid"]["dim"]
    lam = float(p["lambda"])
    x_axes = tuple(p["x_axes"])
    try:
        if p["kind"] == "model_saddle":
            return model_saddle(float(p["c0"]), float(p["c1"]), dim, x_axes, lam)
        if p["kind"] == "constant":
            return constant_potential(float(p["value"]), dim, x_axes, lam)
        from .expression import expression_potential

        return expression_potential(p["expr"], dim, x_axes, lam)
    except ValueError as err:
        raise ConfigError([f"potential: {err}"]) from None


# the keys the commands read, block by block: the keys of DEFAULT_CONFIG;
# validate_config rejects others.  A potential block is merged over the
# default model saddle, so it takes the union of what the three kinds read:
# the saddle's keys plus the constant's value and the expression's expr.
BLOCK_KEYS = {block: tuple(keys) for block, keys in DEFAULT_CONFIG.items()}
BLOCK_KEYS["potential"] += ("value", "expr")


def build_certificate_config(cfg: dict) -> CertificateConfig:
    """The certificate of a config that load_config resolved against
    DEFAULT_CONFIG and validated: its solver and certificate blocks hold
    exactly the keywords of SolverConfig and CertificateConfig."""
    return CertificateConfig(build_potential(cfg), solver=SolverConfig(**cfg["solver"]), **cfg["certificate"])


def require_axes(cfg: dict, y_axis: bool) -> None:
    """The path, Q and the boundary radius live in X, so a command that walks
    the path needs ``potential.x_axes`` nonempty; a certificate's D_eps also
    constrains the barycenter to Y (``y_axis``), so X must leave Y an axis.
    ``check-potential`` takes any X."""
    x_axes, dim = cfg["potential"]["x_axes"], cfg["grid"]["dim"]
    if len(x_axes) == 0:
        raise ConfigError(["potential.x_axes must name an axis: the path moves in X, got []"])
    if y_axis and len(x_axes) == dim:
        raise ConfigError(
            [f"potential.x_axes must leave an axis to Y for a certificate, got {x_axes} in dimension {dim}"]
        )


# each command's setting flags and the "block.key" that each sets: the one
# place a setting flag is named.  build_parser adds them, typed by the
# setting's default, and load_config reads the given ones over the file
SETTING_FLAGS = {
    "gausson": {"--N": "grid.dim", "--L": "grid.half_extent", "--n": "grid.points_per_axis"},
    "ground-state": {"--dim": "grid.dim", "--L": "grid.half_extent", "--n": "grid.points_per_axis",
                     "--tol": "solver.tol", "--max-iters": "solver.max_iters"},
    "sweep-eps": {"--eps": "sweep.eps"},
}


def load_config(args, potential: dict | None = None) -> dict:
    """DEFAULT_CONFIG, the file ``args.config``, then the ``potential`` block
    of a --V and each setting whose flag was given; a violation of such a
    setting names its flag."""
    path = args.config
    cfg = {k: dict(v) if isinstance(v, dict) else v for k, v in DEFAULT_CONFIG.items()}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(
                [f"the config {path} is not valid JSON: {err.msg} at line {err.lineno} column {err.colno}"]
            ) from None
        except (OSError, UnicodeDecodeError) as err:
            reason = getattr(err, "strerror", None) or str(err)
            raise ConfigError([f"the config {path} cannot be read: {reason}"]) from None
        if not isinstance(loaded, dict):
            raise ConfigError(validate_config(loaded))
        cfg = merge_config(cfg, loaded)
    given = {flag: key for flag, key in SETTING_FLAGS.get(args.command, {}).items() if getattr(args, key) is not None}
    overrides = {"potential": potential or {}}
    for key in given.values():
        block, _, name = key.partition(".")
        overrides.setdefault(block, {})[name] = getattr(args, key)
    cfg = merge_config(cfg, overrides)
    problems = validate_config(cfg)
    for flag, key in given.items():
        problems = [flag + text[len(key):] if text.startswith(key + " ") else text for text in problems]
    if problems:
        raise ConfigError(problems)
    return cfg


def check_flags(**flags) -> None:
    """Numbers a command takes from its flags, not from the config, obey the
    sweep.eps rule: finite and positive, checked before any output."""
    problems = [
        f"--{name} must be a finite positive number, got {value}"
        for name, value in flags.items()
        if not _is_positive(value)
    ]
    if problems:
        raise ConfigError(problems)


def write_report(outdir: str, name: str, report) -> None:
    """Format ``report`` once, write it to outdir/name and print the same text."""
    text = to_json_text(report)
    atomic_write(os.path.join(outdir, name), text + "\n")
    print(text)


def ensure_outdir(cfg: dict) -> str:
    outdir = cfg["output"]["directory"]
    os.makedirs(outdir, exist_ok=True)
    atomic_write(os.path.join(outdir, "config_resolved.json"), to_json_text(cfg) + "\n")
    return outdir


def parse_potential_flag(text: str) -> dict:
    """--V const:0  or  --V saddle:1,1.25  shorthand (ranges: validate_config)."""
    kind, _, rest = text.partition(":")
    try:
        if kind in ("const", "constant"):
            return {"kind": "constant", "value": float(rest)}
        if kind in ("saddle", "model_saddle"):
            c0_s, c1_s = rest.split(",")
            return {"kind": "model_saddle", "c0": float(c0_s), "c1": float(c1_s)}
    except ValueError:
        pass
    raise ConfigError([f"--V must be const:<value> or saddle:<c0>,<c1>, got {text!r}"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gausson(args) -> int:
    if not (_is_number(args.A) and args.A > -1):
        raise ConfigError([f"--A must be a finite number above -1, got {args.A}"])
    cfg = load_config(args)
    grid = Grid(**cfg["grid"])
    m = m_closed_form(args.A, grid.dim)
    u = gausson(grid, args.A)
    outdir = ensure_outdir(cfg)
    atomic_write(os.path.join(outdir, "gausson_field.txt"), field_text(u))
    print(f"m_closed_form = {m:.6f}")
    print(to_json_text({"A": args.A, "N": grid.dim, "m_closed_form": m}))
    return EXIT_OK


def cmd_ground_state(args) -> int:
    check_flags(eps=args.eps)
    cfg = load_config(args, parse_potential_flag(args.V) if args.V is not None else None)

    grid = Grid(**cfg["grid"])
    pot = build_potential(cfg)
    sol = ground_state(grid, pot, args.eps, config=SolverConfig(**cfg["solver"]))
    # the fixed cutoff delta enters the Phi/Psi split of the breakdown only
    breakdown = energy(sol.field, pot, args.eps, SplitParams())

    outdir = ensure_outdir(cfg)
    atomic_write(os.path.join(outdir, "ground_state_field.txt"), field_text(sol.field))
    result = sol.to_dict()
    result["energy_breakdown"] = breakdown
    if "m_closed_form" in sol.diagnostics:
        result["m_closed_form"] = sol.diagnostics["m_closed_form"]
        result["below_closed_form"] = sol.diagnostics["below_closed_form"]
    write_report(outdir, "ground_state.json", result)
    return EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE


def cmd_check_potential(args) -> int:
    from .hypotheses import check_V1, check_V2, check_V4, v3_diagnostic

    cfg = load_config(args)
    pot = build_potential(cfg)
    report = {
        "potential": pot.describe(),
        "V1": check_V1(pot),
        "V2": check_V2(pot),
        "V4": check_V4(pot),
        "V3_advisory": v3_diagnostic(pot),
    }
    outdir = ensure_outdir(cfg)
    write_report(outdir, "potential_checks.json", report)
    return EXIT_OK


def cmd_saddle_cert(args) -> int:
    check_flags(eps=args.eps)
    cfg = load_config(args)
    require_axes(cfg, y_axis=True)
    cert_cfg = build_certificate_config(cfg)
    cert = certificate(args.eps, cert_cfg)
    outdir = ensure_outdir(cfg)
    write_report(outdir, f"certificate_eps_{args.eps:g}.json", cert.to_dict())
    return EXIT_INCONCLUSIVE if cert.inconclusive else EXIT_OK


# the sweep CSV's columns as (header, key of a certificate's JSON row), then
# one flag_<name> column per flag in the row's order; a null R_used reads nan
CSV_KEYS = (
    ("eps", "eps"),
    ("m_c0", "m_c0"),
    ("D_eps", "D_eps_estimate"),
    ("sup_X_J", "sup_X_J"),
    ("theta_r", "theta_r_estimate"),
    ("R", "R_used"),
    ("sigma", "sigma_margin"),
)


def cmd_sweep_eps(args) -> int:
    cfg = load_config(args)  # a bare --eps is an empty list, refused by validate_config
    require_axes(cfg, y_axis=True)
    cert_cfg = build_certificate_config(cfg)
    outdir = ensure_outdir(cfg)
    certs = sweep_eps(cfg["sweep"]["eps"], cert_cfg)

    rows = [cert.to_dict() for cert in certs]
    flags = list(rows[0]["flags"])  # sweep.eps names at least one eps
    header = [name for name, _ in CSV_KEYS] + [f"flag_{flag}" for flag in flags]
    cells = [
        [math.nan if row[key] is None else row[key] for _, key in CSV_KEYS] + [row["flags"][f] for f in flags]
        for row in rows
    ]
    write_csv(os.path.join(outdir, "sweep_eps.csv"), header, cells)
    atomic_write(os.path.join(outdir, "sweep_eps.json"), to_json_text(rows) + "\n")
    print(f"wrote {len(rows)} sweep rows to {outdir}")
    # every row is written first; an inconclusive one still decides the code
    return EXIT_INCONCLUSIVE if any(c.inconclusive for c in certs) else EXIT_OK


def cmd_barycenter_zero(args) -> int:
    from .oracles import barycenter_zero_finder

    check_flags(eps=args.eps, R=args.R)
    cfg = load_config(args)
    require_axes(cfg, y_axis=False)
    cert_cfg = build_certificate_config(cfg)
    res = barycenter_zero_finder(cert_cfg.grid(), cert_cfg.potential, args.eps, R=args.R)
    outdir = ensure_outdir(cfg)
    write_report(outdir, "barycenter_zero.json", res)
    return EXIT_INCONCLUSIVE if res["inconclusive"] else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """The subcommand ``name`` with --config and its SETTING_FLAGS, each kept
    under its "block.key" and typed by that setting's default (a list is
    nargs="*" floats)."""
    p = sub.add_parser(name, help=help)
    for flag, key in SETTING_FLAGS.get(name, {}).items():
        block, _, setting = key.partition(".")
        default = DEFAULT_CONFIG[block][setting]
        if isinstance(default, list):
            p.add_argument(flag, dest=key, type=float, nargs="*")
        else:
            p.add_argument(flag, dest=key, type=type(default))
    p.add_argument("--config")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lognls",
        description="Ground states and minimax level certificates for the logarithmic Schrodinger equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "gausson", cmd_gausson, "exact constant-potential solution and level")
    p.add_argument("--A", type=float, default=0.0)

    p = _add_command(sub, "ground-state", cmd_ground_state, "Nehari ground state")
    p.add_argument("--V", default=None, help="potential shorthand, e.g. const:0 or saddle:1,1.25")
    p.add_argument("--eps", type=float, default=1.0)

    _add_command(sub, "check-potential", cmd_check_potential, "V1/V2/V4 checkers plus advisory V3")

    p = _add_command(sub, "saddle-cert", cmd_saddle_cert, "level certificate at one eps")
    p.add_argument("--eps", type=float, required=True)

    _add_command(sub, "sweep-eps", cmd_sweep_eps, "certificates over an eps list")

    p = _add_command(sub, "barycenter-zero", cmd_barycenter_zero, "degree evidence for the barycenter zero")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--R", type=float, default=1.0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(to_json_text({"error": "config", "violations": err.violations}))
        return EXIT_CONFIG
    except OSError as err:
        print(to_json_text({"error": "output", "message": str(err)}))
        return EXIT_CONFIG
    except ValueError as err:
        print(to_json_text({"error": "runtime", "message": str(err)}))
        return EXIT_INCONCLUSIVE
    except AssertionError as err:
        print(to_json_text({"error": "internal", "message": str(err)}))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
