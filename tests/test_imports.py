import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lognls

SRC = str(Path(lognls.__file__).resolve().parent.parent)

# what the front end loads at import: the certificate pipeline and nothing else
CLI_MODULES = {f"lognls.{m}" for m in ("grid", "energy", "nehari", "potential", "minimax", "cli")}


def modules_loaded_by(statement: str, cwd=None) -> set:
    """The modules in sys.modules after ``statement`` runs in a fresh
    interpreter (in ``cwd``, if given)."""
    code = f"import sys\n{statement}\nprint(' '.join(sys.modules))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


def submodules_loaded_by(statement: str, cwd=None) -> set:
    """The ``lognls.*`` modules in sys.modules after ``statement`` runs in a
    fresh interpreter."""
    return {m for m in modules_loaded_by(statement, cwd) if m.startswith("lognls.")}


def test_package_import_loads_no_module():
    assert submodules_loaded_by("import lognls") == set()


# a solve loads only the layers it reads: neither the potentials, nor the
# certificate machinery, nor the front end; the potential layer reads only
# the grid: neither the checkers nor the expression grammar
@pytest.mark.parametrize(
    "module, loaded",
    (
        ("grid", {"lognls.grid"}),
        ("energy", {"lognls.grid", "lognls.energy"}),
        ("nehari", {"lognls.grid", "lognls.energy", "lognls.nehari"}),
        ("potential", {"lognls.grid", "lognls.potential"}),
        ("oracles", CLI_MODULES - {"lognls.cli"} | {"lognls.oracles"}),
    ),
)
def test_layer_import_loads_only_its_dependencies(module, loaded):
    assert submodules_loaded_by(f"import lognls.{module}") == loaded


def run_command(argv: list, config: dict) -> str:
    """A statement that runs the CLI on ``argv`` with ``config`` written to
    cfg.json and asserts exit code 0."""
    return (
        "from lognls.cli import main\n"
        f"open('cfg.json', 'w').write({json.dumps(config)!r})\n"
        f"assert main({argv!r} + ['--config', 'cfg.json']) == 0\n"
    )


# the benchmark ends set-up at the first call of cli.sweep_eps or
# cli.certificate; a module these commands loaded later would move its cost
# past that stamp, so they load nothing beyond the import of the front end,
# and that import loads the pipeline alone, without numpy.typing (NDArray is
# imported for type checkers only)
@pytest.mark.parametrize(
    "statement",
    (
        "import lognls.cli",
        run_command(["sweep-eps"], {}),
        run_command(["saddle-cert", "--eps", "0.03"], {"certificate": {"compute_numerical_m": False}}),
    ),
    ids=("import", "sweep-eps", "saddle-cert"),
)
def test_cli_and_certificate_commands_load_only_the_pipeline(tmp_path, statement):
    loaded = modules_loaded_by(statement, cwd=tmp_path)
    assert {m for m in loaded if m.startswith("lognls.")} == CLI_MODULES
    assert "numpy.typing" not in loaded


EXPRESSION = {"potential": {"kind": "expression", "expr": "1 + 0.25*(1+z1**2)/(1+z0**2+z1**2) + 0.1*z0/(1+z0**2)"}}


# the checkers and the barycenter-zero evidence load with the command that
# runs them, the expression grammar with a config that names an expression
@pytest.mark.parametrize(
    "argv, config, extra",
    (
        (["check-potential"], {}, {"lognls.hypotheses"}),
        (["check-potential"], EXPRESSION, {"lognls.hypotheses", "lognls.expression"}),
        (["ground-state", "--n", "32"], EXPRESSION, {"lognls.expression"}),
        (["barycenter-zero", "--eps", "0.05"], {}, {"lognls.oracles"}),
    ),
)
def test_checkers_and_expressions_load_with_their_command(tmp_path, argv, config, extra):
    assert submodules_loaded_by(run_command(argv, config), cwd=tmp_path) == CLI_MODULES | extra
