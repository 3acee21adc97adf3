import json
import math
import re
from pathlib import Path

import pytest

import lognls.cli as cli
from lognls.cli import (
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    ConfigError,
    build_parser,
    format_float,
    load_config,
    main,
    merge_config,
    parse_potential_flag,
    to_json_text,
    validate_config,
    write_csv,
)
from lognls.grid import Grid, load_field
from lognls.minimax import CertificateConfig, LevelCertificate
from lognls.nehari import SolverConfig


TINY_CONFIG = {
    "grid": {"dim": 2, "half_extent": 7.0, "points_per_axis": 33},
    "solver": {"tol": 1e-3, "max_iters": 60},
    "sweep": {"eps": [0.4, 0.2], "seed": 7},
    "certificate": {
        "h_target": 0.5,
        "solver_half_extent": 6.0,
        "compute_numerical_m": False,
    },
}


# Every row of the tiny sweep certifies.  One solver iteration stalls the
# D_eps descent, so with ``solver={"max_iters": 1}`` every row is
# inconclusive (level_d) and sweep-eps exits with EXIT_INCONCLUSIVE after
# writing all rows.
def write_tiny_config(tmp_path, outdir, solver=None):
    cfg = dict(TINY_CONFIG)
    cfg["solver"] = {**TINY_CONFIG["solver"], **(solver or {})}
    cfg["output"] = {"directory": str(outdir)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_format_float_17_digits():
    assert format_float(math.pi) == "3.1415926535897931"
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0


def test_to_json_text_deterministic():
    obj = {"a": 1.5, "b": [True, None, 2], "c": {"d": float("nan")}}
    assert to_json_text(obj) == to_json_text(obj)
    assert '"nan"' in to_json_text(obj)


def test_merge_config_nested():
    merged = merge_config({"a": {"x": 1, "y": 2}, "b": 3}, {"a": {"y": 9}})
    assert merged == {"a": {"x": 1, "y": 9}, "b": 3}


def test_validate_config_collects_all_problems():
    bad = {
        "grid": {"dim": 3, "half_extent": -2, "points_per_axis": 4},
        "potential": {"kind": "mystery"},
        "solver": {"tol": -1, "max_iters": 0, "backend": "quantum"},
        "sweep": {"eps": [-0.1]},
    }
    problems = validate_config(bad)
    assert len(problems) >= 8


def test_parse_potential_flag():
    assert parse_potential_flag("const:0") == {"kind": "constant", "value": 0.0}
    assert parse_potential_flag("saddle:1,1.25") == {"kind": "model_saddle", "c0": 1.0, "c1": 1.25}
    with pytest.raises(ConfigError) as err:
        parse_potential_flag("well:3")
    assert err.value.violations == ["--V must be const:<value> or saddle:<c0>,<c1>, got 'well:3'"]


def test_load_config_raises_config_error(tmp_path):
    path = tmp_path / "bad.json"
    args = build_parser().parse_args(["check-potential", "--config", str(path)])
    path.write_text(json.dumps({"grid": {"dim": 5}}))
    with pytest.raises(ConfigError):
        load_config(args)
    # a file that is not JSON at all names itself and the position
    path.write_text('{"grid": ')
    with pytest.raises(ConfigError) as err:
        load_config(args)
    assert err.value.violations == [f"the config {path} is not valid JSON: Expecting value at line 1 column 10"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["gausson", "--N", "1"], "gausson_field.txt"),
        (["ground-state", "--V", "const:0", "--dim", "1", "--L", "10", "--n", "65"], "ground_state_field.txt"),
    ],
)
def test_field_dump_is_written_atomically(tmp_path, capsys, monkeypatch, argv, name):
    # a killed run leaves the old dump or the new one, never a truncated file
    monkeypatch.chdir(tmp_path)
    written = []
    real = cli.atomic_write

    def recorded(path, text):
        written.append(path)
        real(path, text)

    monkeypatch.setattr(cli, "atomic_write", recorded)
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert str(Path("lognls-out") / name) in written


def test_gausson_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["gausson", "--A", "0", "--N", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "2.409015" in out  # 1/2 e sqrt(pi) printed to six decimals
    field = load_field(str(tmp_path / "lognls-out" / "gausson_field.txt"))
    assert field.grid.dim == 1
    assert field.values.max() == pytest.approx(math.exp(0.5), rel=1e-12)


@pytest.mark.parametrize(
    "grid, header",
    [(None, ["1", "7", "129"]), ({"half_extent": 6.0, "points_per_axis": 257}, ["1", "6", "257"])],
)
def test_gausson_reads_the_grid_block(tmp_path, capsys, monkeypatch, grid, header):
    # gausson --N 1 dumps on the config's grid block, the default one if none
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": grid} if grid else {}))
    assert main(["gausson", "--A", "0", "--N", "1", "--config", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "lognls-out" / "gausson_field.txt").read_text().splitlines()[:3] == header


def test_solver_and_certificate_defaults_are_the_classes():
    # a validated block is its class's keywords, so the default blocks build
    # the classes' defaults
    assert SolverConfig(**cli.DEFAULT_CONFIG["solver"]) == SolverConfig()
    cert = cli.build_certificate_config(cli.DEFAULT_CONFIG)
    assert cert == CertificateConfig(potential=cert.potential)
    assert Grid(**cli.DEFAULT_CONFIG["grid"]) == Grid(2, 7.0, 129)


def test_ground_state_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["ground-state", "--V", "const:0", "--dim", "1", "--L", "10", "--n", "256", "--eps", "1.0"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    result = json.loads(out)
    assert result["energy"] == pytest.approx(0.5 * math.e * math.sqrt(math.pi), rel=1e-12)
    assert result["converged"] is True
    assert result["below_closed_form"] is False
    # field dump round-trips
    field = load_field(str(tmp_path / "lognls-out" / "ground_state_field.txt"))
    assert field.grid.points_per_axis == 256


def test_ground_state_writes_one_j(tmp_path, capsys, monkeypatch):
    # the solution's energy and the breakdown's J are the same sum of the
    # same kernel reductions, so they agree bit for bit
    monkeypatch.chdir(tmp_path)
    code = main(
        ["ground-state", "--V", "saddle:1,1.25", "--eps", "0.1", "--dim", "2", "--L", "10", "--n", "135"]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    result = json.loads((tmp_path / "lognls-out" / "ground_state.json").read_text())
    assert result["energy"] == result["energy_breakdown"]["J"]


def test_config_error_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grid": {"dim": 3, "half_extent": -1, "points_per_axis": 2}}))
    code = main(["ground-state", "--config", str(bad)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert out["error"] == "config"
    assert len(out["violations"]) == 3


def test_check_potential_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_tiny_config(tmp_path, tmp_path / "out")
    code = main(["check-potential", "--config", cfg])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["V1"]["passed"] is True
    assert report["V4"]["ineq2"] is True
    assert report["V4"]["ineq1_m_based"] is False


def test_sweep_eps_deterministic(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outdir = tmp_path / "out"
    cfg = write_tiny_config(tmp_path, outdir, solver={"max_iters": 1})
    assert main(["sweep-eps", "--config", cfg]) == EXIT_INCONCLUSIVE  # stalled, see above
    capsys.readouterr()
    first = (outdir / "sweep_eps.csv").read_bytes()
    assert main(["sweep-eps", "--config", cfg]) == EXIT_INCONCLUSIVE
    capsys.readouterr()
    second = (outdir / "sweep_eps.csv").read_bytes()
    assert first == second
    rows = json.loads((outdir / "sweep_eps.json").read_text())
    # the stalled eps 0.4 field reaches the edge of its 25^2 box (boundary
    # ratio 1.55e-6), which is flagged, not solved again on a larger box
    assert [r["inconclusive"] for r in rows] == [{"box": True, "level_d": True}, {"level_d": True}]
    header = first.decode().splitlines()[0]
    assert header.startswith("eps,m_c0,D_eps,sup_X_J,theta_r,R,sigma")
    assert len(first.decode().splitlines()) == 3  # header + one row per eps
    # config echo makes the run reproducible from artifacts alone
    assert (outdir / "config_resolved.json").exists()


def test_sweep_inconclusive_row_sets_exit_code(tmp_path, capsys, monkeypatch):
    import lognls.minimax as minimax_mod

    monkeypatch.chdir(tmp_path)
    real = minimax_mod.certificate

    def first_row_inconclusive(eps, cfg):
        cert = real(eps, cfg)
        if eps == 0.4:
            cert.inconclusive["theta_r"] = True
        return cert

    outdir = tmp_path / "out"
    # both rows of the tiny sweep are conclusive
    cfg = write_tiny_config(tmp_path, outdir)
    assert main(["sweep-eps", "--config", cfg]) == EXIT_OK
    rows = json.loads((outdir / "sweep_eps.json").read_text())
    assert [r["inconclusive"] for r in rows] == [{}, {}]

    monkeypatch.setattr(minimax_mod, "certificate", first_row_inconclusive)
    assert main(["sweep-eps", "--config", cfg]) == EXIT_INCONCLUSIVE
    capsys.readouterr()
    # every row is still written, the inconclusive one included
    assert len((outdir / "sweep_eps.csv").read_text().splitlines()) == 3
    rows = json.loads((outdir / "sweep_eps.json").read_text())
    assert [r["inconclusive"] for r in rows] == [{"theta_r": True}, {}]


def test_sweep_with_a_box_too_small_writes_every_row_and_exits_4(tmp_path, capsys, monkeypatch):
    # L = 4 (21^2 at h = 0.4) cuts the D_eps minimizer of this potential on
    # its followed frame at both eps, so both rows are inconclusive["box"],
    # and both are written before the exit code
    monkeypatch.chdir(tmp_path)
    outdir = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "potential": {"kind": "expression", "expr": "1 + 0.25*(1+z1**2)/(1+z0**2+z1**2) + 0.1*z1/(1+z1**2)"},
        "sweep": {"eps": [0.4, 0.1]},
        "certificate": {"solver_half_extent": 4.0, "compute_numerical_m": False},
        "output": {"directory": str(outdir)},
    }))
    assert main(["sweep-eps", "--config", str(path)]) == EXIT_INCONCLUSIVE
    capsys.readouterr()
    rows = json.loads((outdir / "sweep_eps.json").read_text())
    assert [r["inconclusive"] for r in rows] == [{"box": True}, {"box": True}]
    assert len((outdir / "sweep_eps.csv").read_text().splitlines()) == 3


def test_sweep_csv_cells_are_the_json_rows(tmp_path, capsys, monkeypatch):
    # each CSV column reads one key of the JSON row, then one column per
    # flag in the row's order; a null R_used (no radius found) is written
    # nan.  The rows stand in for certificates with a distinct value in
    # every column, so a column that reads the wrong key shows.
    def distinct_rows(eps_values, cfg):
        flags = ["sandwich", "constrained_gap", "sup_below_two_m", "boundary_radius_found", "theta_above_half_gap"]
        return [
            LevelCertificate(
                eps=eps, m_c0=31.5 + k, m_c0_numerical=None, D_eps_estimate=39.25 + k, sup_X_J=40.125 + k,
                theta_r_estimate=39.5625 + k, R_used=None if k else 0.5, sigma_margin=7.75 + k,
                flags={name: (i + k) % 2 == 0 for i, name in enumerate(flags)}, inconclusive={},
            )
            for k, eps in enumerate(eps_values)
        ]

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "sweep_eps", distinct_rows)
    outdir = tmp_path / "out"
    assert main(["sweep-eps", "--config", write_tiny_config(tmp_path, outdir)]) == EXIT_OK
    capsys.readouterr()
    rows = json.loads((outdir / "sweep_eps.json").read_text())
    header, *lines = (outdir / "sweep_eps.csv").read_text().splitlines()
    columns = {
        "eps": "eps",
        "m_c0": "m_c0",
        "D_eps": "D_eps_estimate",
        "sup_X_J": "sup_X_J",
        "theta_r": "theta_r_estimate",
        "R": "R_used",
        "sigma": "sigma_margin",
    }
    flags = list(rows[0]["flags"])
    assert header.split(",") == list(columns) + [f"flag_{flag}" for flag in flags]
    assert [row["R_used"] for row in rows] == [0.5, None]

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return "nan" if value is None else format_float(float(value))

    assert len(lines) == len(rows)
    for row, line in zip(rows, lines):
        values = [row[key] for key in columns.values()] + [row["flags"][flag] for flag in flags]
        assert line.split(",") == [cell(v) for v in values]


def test_sweep_empty_eps_in_the_config_is_a_config_error(tmp_path, capsys, monkeypatch):
    # a sweep over no eps certifies nothing: exit 2 before any output, not
    # an empty JSON list and a header-only CSV with exit 0
    monkeypatch.chdir(tmp_path)
    cfg_dict = dict(TINY_CONFIG)
    cfg_dict["sweep"] = {"eps": [], "seed": 7}
    cfg_dict["output"] = {"directory": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_dict))
    assert main(["sweep-eps", "--config", str(path)]) == EXIT_CONFIG
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == ["sweep.eps must name at least one eps, got []"]
    assert not (tmp_path / "out").exists()


def test_saddle_cert_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_tiny_config(tmp_path, tmp_path / "out")
    code = main(["saddle-cert", "--eps", "0.3", "--config", cfg])
    cert = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert set(cert["flags"]) == {
        "constrained_gap",
        "sup_below_two_m",
        "boundary_radius_found",
        "theta_above_half_gap",
        "sandwich",
    }
    assert cert["m_c0"] == pytest.approx(31.5503, abs=1e-3)


def test_barycenter_zero_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_tiny_config(tmp_path, tmp_path / "out")
    code = main(["barycenter-zero", "--eps", "0.2", "--R", "0.5", "--config", cfg])
    res = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert res["degree_evidence"]["degree_one"] is True
    assert abs(res["x_star"][0]) <= 0.1


def test_write_csv_line_endings(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b"], [[1.0, True], [float("nan"), False]])
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    assert raw.decode().splitlines() == ["a,b", "1,true", "nan,false"]


def test_ground_state_nonconvergence_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"tol": 1e-14, "max_iters": 3}}))
    # not a constant potential: the Gausson seed solves that one exactly, so
    # the solve would converge at its first iteration
    code = main(
        ["ground-state", "--V", "saddle:1,1.25", "--dim", "2", "--L", "10", "--n", "65",
         "--eps", "1.0", "--config", str(cfg)]
    )
    result = json.loads(capsys.readouterr().out)
    assert code == 3
    assert result["converged"] is False


def test_unwritable_output_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    cfg_dict = {"output": {"directory": str(blocker)}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_dict))
    code = main(["gausson", "--A", "0", "--N", "1", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert out["error"] == "output"


def test_internal_defect_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_tiny_config(tmp_path, tmp_path / "out")

    def broken(eps, cfg):
        raise AssertionError("energy identity violated")

    monkeypatch.setattr(cli, "certificate", broken)
    code = main(["saddle-cert", "--eps", "0.3", "--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_INTERNAL
    assert EXIT_INTERNAL not in (EXIT_OK, EXIT_CONFIG, EXIT_INCONCLUSIVE)
    assert out == {"error": "internal", "message": "energy identity violated"}


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("solver", "backend", "forward_backward"),
        ("certificate", "growth_exponent", 4.0),
        ("solver", "tolerance", 1e-6),
        ("grid", "spacing", 0.1),
        ("potential", "c2", 1.0),
        ("sweep", "eps_list", [0.1]),
        ("output", "format", "csv"),
    ],
)
def test_unread_setting_is_config_error(tmp_path, capsys, monkeypatch, block, key, value):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({block: {key: value}}))
    code = main(["ground-state", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert len(out["violations"]) == 1
    assert out["violations"][0].startswith(f"{block}.{key} ")


def test_disallowed_expression_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"potential": {"kind": "expression", "expr": "__import__('os').getcwd()"}}))
    code = main(["check-potential", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert len(out["violations"]) == 1
    assert out["violations"][0].startswith("potential.expr: ")


@pytest.mark.parametrize(
    "expr, got",
    [("0*z0 - 2", "-2.0"), ("z0/z0", "nan")],
    ids=["below-minus-one", "nan"],
)
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
def test_potential_the_spec_refuses_is_config_error(tmp_path, capsys, monkeypatch, expr, got):
    # the expression compiles, but its sampled c0 is not above -1: once a
    # runtime error (exit 4), and a NaN c0 passed and was written as "nan"
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"potential": {"kind": "expression", "expr": expr}}))
    for argv in (["check-potential"], ["saddle-cert", "--eps", "0.4"]):
        code = main(argv + ["--config", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_CONFIG, argv
        assert out == {"error": "config", "violations": [f"potential: c0 must exceed -1, got {got}"]}
        assert not (tmp_path / "lognls-out").exists()


def test_a_node_sample_below_minus_one_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    # the sampled c0 is 1 on [-20, 20], so the spec is accepted; at eps 5 the
    # default grid puts a node at z0 = 30.08, where V is about -2, and the
    # solve refuses its samples: a runtime error (exit 4) before any output
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"potential": {"kind": "expression", "expr": "1 - 3*np.exp(-(z0-30)**2/4)"}}))
    code = main(["ground-state", "--eps", "5", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_INCONCLUSIVE
    assert out == {"error": "runtime", "message": "potential samples must stay above -1 (V + 1 must be positive)"}
    assert not (tmp_path / "lognls-out").exists()


def test_readme_config_block_matches_defaults():
    # docs that name a removed or renamed setting, or miss a setting, fail here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    assert json.loads(blocks[0]) == cli.DEFAULT_CONFIG
    assert validate_config(cli.DEFAULT_CONFIG) == []


@pytest.mark.parametrize(
    "config, name",
    [
        ([1], "the config"),
        ({"solver": None}, "solver"),
        ({"grid": 3}, "grid"),
        ({"certificate": []}, "certificate"),
        ({"sweep": {"eps": 0.1}}, "sweep.eps"),
        ({"sweep": {"seed": "abc"}}, "sweep.seed"),
        ('{"grid": ', "the config"),  # not JSON at all: raw text
        # a removed setting is refused by name whatever its value
        ({"output": {"formats": "csv"}}, "output.formats"),
        ({"output": {"formats": ["csv", "xml"]}}, "output.formats"),
        ({"potential": {"kind": "constant"}}, "potential.value"),
        ({"potential": {"x_axes": 0}}, "potential.x_axes"),
        ({"potential": {"x_axes": [0, 0]}}, "potential.x_axes"),
        ({"solvr": {"tol": 1e-6}}, "solvr"),
        ({"sweep": {"eps": [0.4, float("inf")]}}, "sweep.eps"),
        # json reads Infinity and NaN; every numeric setting must be finite
        # and not a bool, the sweep.eps rule
        ({"potential": {"c1": float("inf")}}, "potential.c1"),
        ({"potential": {"c0": float("inf")}}, "potential.c0"),
        ({"potential": {"c0": True}}, "potential.c0"),
        ({"potential": {"kind": "constant", "value": float("inf")}}, "potential.value"),
        ({"potential": {"kind": "constant", "value": float("nan")}}, "potential.value"),
        ({"grid": {"half_extent": float("inf")}}, "grid.half_extent"),
        ({"grid": {"dim": True}}, "grid.dim"),
        ({"grid": {"dim": 2.0}}, "grid.dim"),
        ({"solver": {"tol": float("inf")}}, "solver.tol"),
        ({"solver": {"max_iters": True}}, "solver.max_iters"),
    ],
)
def test_malformed_config_is_config_error(tmp_path, capsys, monkeypatch, config, name):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config))
    code = main(["check-potential", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert len(out["violations"]) == 1
    assert out["violations"][0].startswith(f"{name} ")
    assert not (tmp_path / "lognls-out").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_is_config_error(tmp_path, capsys, monkeypatch, kind):
    # a config file that cannot be opened or decoded is a config error that
    # names the file, as one that is not JSON is
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{")
    code = main(["check-potential", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert out["error"] == "config"
    assert len(out["violations"]) == 1
    assert out["violations"][0].startswith(f"the config {path} cannot be read: ")
    assert not (tmp_path / "lognls-out").exists()


@pytest.mark.parametrize(
    "key, value",
    # theta_radius, beta_tol, q_samples and r_schedule are minimax constants
    # now: a config that names one is refused by name whatever the value
    [
        ("h_target", "abc"),
        ("h_target", -1),
        ("solver_half_extent", 0),
        ("theta_radius", True),
        ("beta_tol", None),
        ("q_samples", 0),
        ("q_samples", 2.5),
        ("r_schedule", []),
        ("r_schedule", [0.5, -1.0]),
        ("compute_numerical_m", "yes"),
        ("n_perturb", 6),
        ("r_schedule", [float("inf")]),
        ("h_target", float("inf")),
        ("h_target", 0.8),  # too coarse to resolve the Gausson
        ("solver_half_extent", float("inf")),
        ("theta_radius", float("inf")),
    ],
)
def test_certificate_block_is_validated(tmp_path, capsys, monkeypatch, key, value):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"certificate": {key: value}}))
    code = main(["saddle-cert", "--eps", "0.3", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert len(out["violations"]) == 1
    assert out["violations"][0].startswith(f"certificate.{key} ")
    assert not (tmp_path / "lognls-out").exists()


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("split", "delta", 0.1),
        ("certificate", "r_schedule", [0.25, 0.5, 1.0, 2.0]),
        ("certificate", "theta_radius", 0.5),
        ("certificate", "q_samples", 9),
        ("certificate", "beta_tol", 1e-3),
        ("output", "formats", ["json", "csv"]),
    ],
)
def test_removed_setting_is_config_error(tmp_path, capsys, monkeypatch, block, key, value):
    # the settings that only tests set are constants now: a config naming
    # one, even at its old default, is refused before any output
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({block: {key: value}}))
    code = main(["saddle-cert", "--eps", "0.3", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert len(out["violations"]) == 1
    # the split block held delta alone, so the whole block is gone
    named = f"{block} is not a config block" if block == "split" else f"{block}.{key} is not a setting"
    assert out["violations"][0].startswith(named)
    assert not (tmp_path / "lognls-out").exists()


@pytest.mark.parametrize(
    "argv, config, name",
    [
        (["gausson", "--N", "1", "--L", "3"], {}, "--L"),
        (["ground-state", "--V", "const:0", "--dim", "1", "--L", "3", "--n", "64"], {}, "--L"),
        (["ground-state", "--dim", "1"], {"grid": {"half_extent": 3.999}}, "grid.half_extent"),
        (["saddle-cert", "--eps", "0.4"], {"certificate": {"solver_half_extent": 3.0}}, "certificate.solver_half_extent"),
        (["sweep-eps"], {"certificate": {"solver_half_extent": 3.5}}, "certificate.solver_half_extent"),
    ],
)
def test_box_too_small_for_the_gausson_is_config_error(tmp_path, capsys, monkeypatch, argv, config, name):
    # the Gausson on the origin needs its 4-sigma ball inside the box; a
    # smaller box used to load and then exit 4 as a runtime error
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(argv + ["--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert out["error"] == "config"
    assert len(out["violations"]) == 1
    assert out["violations"][0].startswith(f"{name} must be at least 4, ")
    assert not (tmp_path / "lognls-out").exists()


@pytest.mark.parametrize(
    "argv, start",
    [
        (["gausson", "--N", "3"], "--N must be 1 or 2, got 3"),
        (["gausson", "--N", "1", "--L", "3"], "--L must be at least 4, "),
        (["gausson", "--n", "8"], "--n must be an integer >= 16, got 8"),
        (["ground-state", "--dim", "3"], "--dim must be 1 or 2, got 3"),
        (["ground-state", "--L", "3"], "--L must be at least 4, "),
        (["ground-state", "--n", "8"], "--n must be an integer >= 16, got 8"),
        (["ground-state", "--tol", "-1"], "--tol must be a finite positive number, got -1.0"),
        (["ground-state", "--max-iters", "0"], "--max-iters must be a positive integer, got 0"),
        (["sweep-eps", "--eps", "inf"], "--eps must be a list of finite positive numbers, got [inf]"),
        # a bare --eps is an empty list, not a fallback to the config's eps
        (["sweep-eps", "--eps"], "--eps must name at least one eps, got []"),
    ],
)
def test_config_error_from_a_flag_names_the_flag(tmp_path, capsys, monkeypatch, argv, start):
    # the user typed the flag, not the config key it overrides
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert len(out["violations"]) == 1
    assert out["violations"][0].startswith(start)
    assert not (tmp_path / "lognls-out").exists()


@pytest.mark.parametrize(
    "argv, config, start",
    [
        (["gausson"], {"grid": {"dim": 3}}, "grid.dim must be 1 or 2, got 3"),
        (["gausson", "--N", "2"], {"grid": {"points_per_axis": 8}}, "grid.points_per_axis must be an integer >= 16"),
        (["ground-state", "--n", "65"], {"grid": {"dim": 3}}, "grid.dim must be 1 or 2, got 3"),
        (["ground-state", "--dim", "2"], {"grid": {"half_extent": 3}}, "grid.half_extent must be at least 4, "),
        (["ground-state", "--L", "10"], {"solver": {"max_iters": 0}}, "solver.max_iters must be a positive integer"),
        (["sweep-eps"], {"sweep": {"eps": [0.4, -1]}}, "sweep.eps must be a list of finite positive numbers"),
    ],
)
def test_config_error_from_the_file_names_the_key(tmp_path, capsys, monkeypatch, argv, config, start):
    # a bad value read from the config file keeps its key, even when other
    # settings of its block come from flags
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(argv + ["--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert len(out["violations"]) == 1
    assert out["violations"][0].startswith(start)


def test_box_of_the_gausson_ball_is_accepted(tmp_path, capsys, monkeypatch):
    # the bound is inclusive: the ball may touch the boundary
    monkeypatch.chdir(tmp_path)
    assert main(["gausson", "--N", "1", "--L", "4", "--n", "65"]) == EXIT_OK
    capsys.readouterr()


def test_sweep_seed_changes_no_output(tmp_path, capsys, monkeypatch):
    # nothing is drawn at random; sweep.seed is validated and read by nothing.
    # On the default certificate grid the earlier random Theta scan wrote a
    # theta_r of its own at each seed; the tiny config does not show that
    monkeypatch.chdir(tmp_path)
    written = []
    for seed in (7, 901):
        outdir = tmp_path / f"out-{seed}"
        path = tmp_path / f"cfg-{seed}.json"
        cfg = {
            "sweep": {"eps": [0.4, 0.2], "seed": seed},
            "certificate": {"compute_numerical_m": False},
            "output": {"directory": str(outdir)},
        }
        path.write_text(json.dumps(cfg))
        assert main(["sweep-eps", "--config", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert json.loads((outdir / "config_resolved.json").read_text())["sweep"]["seed"] == seed
        written.append([(outdir / name).read_bytes() for name in ("sweep_eps.json", "sweep_eps.csv")])
    assert written[0] == written[1]



@pytest.mark.parametrize(
    "argv", [["saddle-cert", "--eps", "0.3"], ["sweep-eps"], ["barycenter-zero", "--eps", "0.3"]]
)
def test_empty_y_is_config_error_for_certificates(tmp_path, capsys, monkeypatch, argv):
    # D_eps constrains the barycenter to Y, and the path, Q and R live in X:
    # a certificate needs both, the zero finder (path only) an X axis
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    refused = [[]] if argv[0] == "barycenter-zero" else [[0, 1], []]
    for x_axes in refused:
        path.write_text(json.dumps({**TINY_CONFIG, "potential": {"x_axes": x_axes}, "output": {"directory": "out"}}))
        code = main(argv + ["--config", str(path)])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_CONFIG, x_axes
        assert len(out["violations"]) == 1
        assert out["violations"][0].startswith("potential.x_axes ")
        assert not (tmp_path / "out").exists()  # refused before any output
    # the potential checks have no Y constraint and still accept an X of every axis
    path.write_text(json.dumps({**TINY_CONFIG, "potential": {"x_axes": [0, 1]}, "output": {"directory": "out"}}))
    assert main(["check-potential", "--config", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["potential"]["y_axes"] == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["saddle-cert", "--eps", "-0.1"], "--eps"),
        (["saddle-cert", "--eps", "0"], "--eps"),
        (["saddle-cert", "--eps", "nan"], "--eps"),
        (["saddle-cert", "--eps", "inf"], "--eps"),
        (["barycenter-zero", "--eps", "-0.1"], "--eps"),
        (["barycenter-zero", "--eps", "0.2", "--R", "-1"], "--R"),
        (["barycenter-zero", "--eps", "0.2", "--R", "0"], "--R"),
        (["ground-state", "--eps", "-0.5"], "--eps"),
        (["ground-state", "--eps", "nan"], "--eps"),
    ],
)
def test_flag_eps_and_r_must_be_finite_and_positive(tmp_path, capsys, monkeypatch, argv, flag):
    # the same rule as every sweep.eps entry, applied before any output
    monkeypatch.chdir(tmp_path)
    cfg = write_tiny_config(tmp_path, tmp_path / "out")
    code = main(argv + ["--config", cfg])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert len(out["violations"]) == 1
    assert out["violations"][0].startswith(f"{flag} ")
    assert not (tmp_path / "out").exists()


def test_constant_value_must_exceed_minus_one(tmp_path, capsys, monkeypatch):
    # the constant's value has the c0 rule, by the config and by --V alike
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"potential": {"kind": "constant", "value": -2}}))
    routes = [(["saddle-cert", "--eps", "0.3", "--config", str(path)], "-2"), (["ground-state", "--V", "const:-2"], "-2.0")]
    for argv, got in routes:
        code = main(argv)
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_CONFIG, argv
        assert out["violations"] == [f"potential.value must be a finite number above -1 for kind=constant, got {got}"]
        assert not (tmp_path / "lognls-out").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ground-state", "--V", "const:abc"], "--V"),
        (["ground-state", "--V", "saddle:1"], "--V"),
        (["ground-state", "--V", "foo:1"], "--V"),
        (["ground-state", "--V", "saddle:1,2,3"], "--V"),
        (["gausson", "--A", "-1.5"], "--A"),
        (["gausson", "--A", "nan"], "--A"),
    ],
)
def test_bad_flag_value_is_config_error(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert len(out["violations"]) == 1
    assert out["violations"][0].startswith(f"{flag} ")
    assert not (tmp_path / "lognls-out").exists()


@pytest.mark.parametrize("argv", [["gausson"], ["ground-state", "--dim", "1"]])
def test_flags_do_not_hide_a_malformed_block(tmp_path, capsys, monkeypatch, argv):
    # a grid flag merges into the grid block;
    # a grid block that is not an object is reported, not replaced
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid": 3}))
    code = main(argv + ["--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert out["violations"] == ["grid must be a JSON object, got 3"]
