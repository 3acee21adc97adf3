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
    format_float,
    load_config,
    main,
    merge_config,
    parse_potential_flag,
    to_json_text,
    validate_config,
    write_csv,
)
from lognls.grid import load_field


TINY_CONFIG = {
    "grid": {"dim": 2, "half_extent": 7.0, "points_per_axis": 33},
    "solver": {"tol": 1e-3, "max_iters": 60},
    "sweep": {"eps": [0.4, 0.2], "seed": 7},
    "certificate": {
        "h_target": 0.5,
        "solver_half_extent": 6.0,
        "q_samples": 5,
        "r_schedule": [0.25, 0.5],
        "compute_numerical_m": False,
    },
}


# The tiny r_schedule stops at 0.5, below the radius the boundary threshold
# needs, so choose_r fails and every tiny sweep row is inconclusive: sweep-eps
# exits with EXIT_INCONCLUSIVE on it after writing all rows.
def write_tiny_config(tmp_path, outdir, **certificate):
    cfg = dict(TINY_CONFIG)
    cfg["certificate"] = {**TINY_CONFIG["certificate"], **certificate}
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
        "split": {"delta": 0.5},
        "solver": {"tol": -1, "max_iters": 0, "backend": "quantum"},
        "sweep": {"eps": [-0.1]},
    }
    problems = validate_config(bad)
    assert len(problems) >= 8


def test_parse_potential_flag():
    assert parse_potential_flag("const:0") == {"kind": "constant", "value": 0.0}
    assert parse_potential_flag("saddle:1,1.25") == {"kind": "model_saddle", "c0": 1.0, "c1": 1.25}
    with pytest.raises(ValueError):
        parse_potential_flag("well:3")


def test_load_config_raises_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"grid": {"dim": 5}}))
    with pytest.raises(ConfigError):
        load_config(str(path), {})


def test_gausson_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["gausson", "--A", "0", "--N", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "2.409015" in out  # 1/2 e sqrt(pi) printed to six decimals
    field = load_field(str(tmp_path / "lognls-out" / "gausson_field.txt"))
    assert field.grid.dim == 1
    assert field.values.max() == pytest.approx(math.exp(0.5), rel=1e-12)


def test_ground_state_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["ground-state", "--V", "const:0", "--dim", "1", "--L", "10", "--n", "256", "--eps", "1.0"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    result = json.loads(out)
    assert abs(result["energy"] - 2.409016) / 2.409016 < 0.01
    assert result["converged"] is True
    assert result["below_closed_form"] is False
    # field dump round-trips
    field = load_field(str(tmp_path / "lognls-out" / "ground_state_field.txt"))
    assert field.grid.points_per_axis == 256


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
    cfg = write_tiny_config(tmp_path, outdir)
    assert main(["sweep-eps", "--config", cfg]) == EXIT_INCONCLUSIVE  # choose_r, see above
    capsys.readouterr()
    first = (outdir / "sweep_eps.csv").read_bytes()
    assert main(["sweep-eps", "--config", cfg]) == EXIT_INCONCLUSIVE
    capsys.readouterr()
    second = (outdir / "sweep_eps.csv").read_bytes()
    assert first == second
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
    # with radii up to 2 choose_r succeeds and both rows are conclusive
    cfg = write_tiny_config(tmp_path, outdir, r_schedule=[0.5, 1.0, 2.0])
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


def test_sweep_empty_eps_writes_header_only(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_dict = dict(TINY_CONFIG)
    cfg_dict["sweep"] = {"eps": [], "seed": 7}
    cfg_dict["output"] = {"directory": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_dict))
    assert main(["sweep-eps", "--config", str(path)]) == EXIT_OK
    capsys.readouterr()
    lines = (tmp_path / "out" / "sweep_eps.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("eps,")


def test_saddle_cert_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_tiny_config(tmp_path, tmp_path / "out")
    code = main(["saddle-cert", "--eps", "0.3", "--config", cfg])
    cert = json.loads(capsys.readouterr().out)
    assert code in (EXIT_OK, 4)
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
    code = main(
        ["ground-state", "--V", "const:0", "--dim", "1", "--L", "10", "--n", "64",
         "--eps", "1.0", "--config", str(cfg)]
    )
    result = json.loads(capsys.readouterr().out)
    assert code == 3
    assert result["converged"] is False


def test_output_formats_respected(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_dict = dict(TINY_CONFIG)
    cfg_dict["sweep"] = {"eps": [0.4], "seed": 7}
    cfg_dict["output"] = {"directory": str(tmp_path / "out"), "formats": ["csv"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_dict))
    assert main(["sweep-eps", "--config", str(path)]) == EXIT_INCONCLUSIVE  # choose_r, see above
    capsys.readouterr()
    assert (tmp_path / "out" / "sweep_eps.csv").exists()
    assert not (tmp_path / "out" / "sweep_eps.json").exists()


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
    [("solver", "backend", "forward_backward"), ("split", "growth_exponent", 4.0), ("solver", "tolerance", 1e-6)],
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


def test_readme_config_block_matches_defaults():
    # docs that name a removed or renamed setting fail here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    documented = json.loads(blocks[0])
    for name, block in documented.items():
        assert name in cli.DEFAULT_CONFIG, f"README names the config block {name!r}"
        for key, value in block.items():
            assert key in cli.DEFAULT_CONFIG[name], f"README names the setting {name}.{key}"
            assert cli.DEFAULT_CONFIG[name][key] == value, f"README default of {name}.{key}"
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
    ],
)
def test_malformed_config_is_config_error(tmp_path, capsys, monkeypatch, config, name):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(["check-potential", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONFIG
    assert len(out["violations"]) == 1
    assert out["violations"][0].startswith(f"{name} ")


@pytest.mark.parametrize(
    "key, value",
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


def test_split_cutoff_does_not_change_certificates(tmp_path, capsys, monkeypatch):
    # every certificate number is a value of J, which does not depend on delta
    monkeypatch.chdir(tmp_path)
    written = []
    for delta in (0.1, 0.2):
        outdir = tmp_path / f"out-{delta}"
        path = tmp_path / f"cfg-{delta}.json"
        path.write_text(json.dumps({**TINY_CONFIG, "split": {"delta": delta}, "output": {"directory": str(outdir)}}))
        assert main(["sweep-eps", "--config", str(path)]) == EXIT_INCONCLUSIVE  # choose_r, see above
        capsys.readouterr()
        assert json.loads((outdir / "config_resolved.json").read_text())["split"]["delta"] == delta
        written.append((outdir / "sweep_eps.csv").read_bytes())
    assert written[0] == written[1]

