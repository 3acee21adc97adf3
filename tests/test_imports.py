import os
import subprocess
import sys
from pathlib import Path

import pytest

import lognls

SRC = str(Path(lognls.__file__).resolve().parent.parent)


def submodules_loaded_by(statement: str) -> set:
    """The ``lognls.*`` modules in sys.modules after ``statement`` runs in a
    fresh interpreter."""
    code = f"import sys\n{statement}\nprint(' '.join(m for m in sys.modules if m.startswith('lognls.')))\n"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_package_import_loads_no_module():
    assert submodules_loaded_by("import lognls") == set()


# a solve loads only the layers it reads: neither the potentials, nor the
# certificate machinery, nor the front end
@pytest.mark.parametrize(
    "module, loaded",
    (
        ("grid", {"lognls.grid"}),
        ("energy", {"lognls.grid", "lognls.energy"}),
        ("nehari", {"lognls.grid", "lognls.energy", "lognls.nehari"}),
    ),
)
def test_layer_import_loads_only_its_dependencies(module, loaded):
    assert submodules_loaded_by(f"import lognls.{module}") == loaded
