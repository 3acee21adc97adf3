"""Guard: no module-level function of the package takes a parameter it never
reads, no dataclass of the package has a field that no line of the package
reads, no defaulted parameter goes unset by every call of the package
and the benchmark, and no public function or class goes unreached by the
package and the benchmark.  An unread parameter or field is a setting that
looks like it matters and does not, which is how an unused SplitParams once
ran through the whole certificate pipeline; a default that nothing overrides
is a constant that looks like a setting; a public name that nothing reaches
is a second road to a kernel that only the tests walk."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lognls"
BENCHMARK = ROOT / "perfbench"

# module.function.parameter -> why the unread slot stays
ALLOWED = {
    "nehari.ground_state.params": (
        "the benchmark script perfbench/child.py calls "
        "ground_state(grid, 1.0, 1.0, params, solver) positionally"
    ),
}

# module.function.parameter -> why the default stays although no call sets it
ALLOWED_UNSET = {
    "nehari.gausson.center": "the tests' oracle for translated Gaussons",
    "potential.check_V4.v_at_origin": (
        "acceptance criterion 11 checks the level inequalities at a given V(0)"
    ),
}

# module.name -> why the public function stays although neither the package
# nor the benchmark reaches it
ALLOWED_UNREACHED = {
    "energy.sq_log_sq": "acceptance criterion 01 checks the splitting identity on it",
    "energy.grad_L2": "acceptance criterion 03 measures the residual of a solve with it",
    "nehari.nehari_scale": "acceptance criterion 04 checks the Nehari identities with it",
    "energy.log_sobolev_slack": "acceptance criterion 05 checks the log-Sobolev inequality with it",
    "minimax.barycenter": "acceptance criteria 06 and 07 read the path's barycenter with it",
    "grid.load_field": "it reads the field files that dump_field writes",
}

# module.class.field -> why the field stays although the package never reads it
ALLOWED_FIELDS = {
    "minimax.LevelCertificate.details": (
        "the sub-reports behind a certificate, for library callers: "
        "perfbench/tracing.py reads the grid; the tests read the grid, level_d, "
        "and theta, which says whether Theta_r took the level_d minimizer and "
        "at what distance"
    ),
}


def unread_parameters(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [f"{path.stem}.{node.name}.{p}" for p in params if p not in read]
    return found


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def unread_fields(paths: list[Path]) -> list[str]:
    """Fields of module-level dataclasses whose name no attribute load in
    ``paths`` reads (``obj.name`` anywhere counts, ``obj.name = ...`` not)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if stmt.target.id not in read:
                        found.append(f"{path.stem}.{node.name}.{stmt.target.id}")
    return found


def _defaulted(node: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position) of each defaulted parameter; keyword-only ones have
    no position."""
    a = node.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
    return out + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def unset_defaults(package: list[Path], callers: list[Path]) -> list[str]:
    """Defaulted parameters of the module-level functions in ``package`` that
    no call in ``callers`` sets, by keyword or by position.  A call is matched
    by the called name (``f(...)`` or ``mod.f(...)``)."""
    keywords, positions = set(), {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            keywords |= {(name, k.arg) for k in node.keywords}
            positions[name] = max(positions.get(name, 0), len(node.args))
    found = []
    for path in package:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for param, pos in _defaulted(node):
                by_position = pos is not None and positions.get(node.name, 0) > pos
                if not (by_position or (node.name, param) in keywords):
                    found.append(f"{path.stem}.{node.name}.{param}")
    return found


def _loaded_names(node: ast.AST) -> list[str]:
    """Every name that ``node`` loads, as ``name`` or as ``obj.name``."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    ]


def unreached_names(package: list[Path], readers: list[Path]) -> list[str]:
    """Public module-level functions and classes of ``package`` whose name no
    line of ``readers`` loads outside the definition itself (a recursive
    call does not count).  Imports are not loads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in set(package) | set(readers)}
    loads = Counter(name for path in readers for name in _loaded_names(trees[path]))
    found = []
    for path in package:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = _loaded_names(node).count(node.name) if path in readers else 0
            if loads[node.name] <= own:
                found.append(f"{path.stem}.{node.name}")
    return found


def test_every_parameter_is_read():
    unread = [name for path in sorted(PACKAGE.glob("*.py")) for name in unread_parameters(path)]
    assert sorted(set(unread) - set(ALLOWED)) == []
    # an exception whose parameter is gone or now read must leave the list
    assert sorted(set(ALLOWED) - set(unread)) == []


def test_every_default_is_set_somewhere():
    package = sorted(PACKAGE.glob("*.py"))
    unset = unset_defaults(package, package + sorted(BENCHMARK.glob("*.py")))
    assert sorted(set(unset) - set(ALLOWED_UNSET)) == []
    # an exception whose default is gone or now set must leave the list
    assert sorted(set(ALLOWED_UNSET) - set(unset)) == []


def test_every_dataclass_field_is_read():
    unread = unread_fields(sorted(PACKAGE.glob("*.py")))
    assert sorted(set(unread) - set(ALLOWED_FIELDS)) == []
    assert sorted(set(ALLOWED_FIELDS) - set(unread)) == []


def test_every_public_name_is_reached():
    package = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    unreached = unreached_names(package, package + sorted(BENCHMARK.glob("*.py")))
    assert sorted(set(unreached) - set(ALLOWED_UNREACHED)) == []
    # an exception that is gone or now reached must leave the list
    assert sorted(set(ALLOWED_UNREACHED) - set(unreached)) == []


def test_guard_sees_an_unread_parameter(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def f(a, b, *rest, c=1, **kw):\n"
        "    b = 2\n"
        "    def inner():\n"
        "        return rest, kw\n"
        "    return a + b + inner()\n",
        encoding="utf-8",
    )
    assert unread_parameters(module) == ["sample.f.c"]


def test_guard_sees_an_unread_field(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    read: int = 1\n"
        "    written: int = 2\n"
        "\n"
        "@dataclasses.dataclass\n"
        "class Report:\n"
        "    shown: str\n"
        "\n"
        "class Plain:\n"
        "    ignored: int = 3\n"
        "\n"
        "def use(cfg, report):\n"
        "    report.written = cfg.read\n"
        "    return report.shown\n",
        encoding="utf-8",
    )
    assert unread_fields([module]) == ["sample.Config.written"]


def test_guard_sees_an_unset_default(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a + b + c + d + e\n"
        "\n"
        "def g(x=0):\n"
        "    return f(x, 5, e=6) + mod.f(1, d=7)\n",
        encoding="utf-8",
    )
    assert unset_defaults([module], [module]) == ["sample.f.c", "sample.g.x"]


def test_guard_sees_an_unreached_name(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def called(x):\n"
        "    return x\n"
        "\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "\n"
        "def imported():\n"
        "    return 1\n"
        "\n"
        "def _private():\n"
        "    return called(2)\n"
        "\n"
        "class Shown:\n"
        "    pass\n"
        "\n"
        "class Hidden:\n"
        "    pass\n"
        "\n"
        "def main():\n"
        "    return Shown()\n",
        encoding="utf-8",
    )
    other = tmp_path / "other.py"
    other.write_text("import sample\nfrom sample import imported\n\nsample.main()\n", encoding="utf-8")
    assert unreached_names([module], [module, other]) == ["sample.recursive", "sample.imported", "sample.Hidden"]
