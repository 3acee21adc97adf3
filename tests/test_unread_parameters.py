"""Guard: no module-level function of the package takes a parameter it never
reads, and no dataclass of the package has a field that no line of the
package reads.  An unread parameter or field is a setting that looks like it
matters and does not, which is how an unused SplitParams once ran through
the whole certificate pipeline."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lognls"

# module.function.parameter -> why the unread slot stays
ALLOWED = {
    "nehari.ground_state.params": (
        "the benchmark script perfbench/child.py calls "
        "ground_state(grid, 1.0, 1.0, params, solver) positionally"
    ),
}

# module.class.field -> why the field stays although the package never reads it
ALLOWED_FIELDS = {
    "minimax.LevelCertificate.details": (
        "the sub-reports behind a certificate, for library callers: "
        "perfbench/tracing.py reads the grid, the tests read level_d and the grid"
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


def test_every_parameter_is_read():
    unread = [name for path in sorted(PACKAGE.glob("*.py")) for name in unread_parameters(path)]
    assert sorted(set(unread) - set(ALLOWED)) == []
    # an exception whose parameter is gone or now read must leave the list
    assert sorted(set(ALLOWED) - set(unread)) == []


def test_every_dataclass_field_is_read():
    unread = unread_fields(sorted(PACKAGE.glob("*.py")))
    assert sorted(set(unread) - set(ALLOWED_FIELDS)) == []
    assert sorted(set(ALLOWED_FIELDS) - set(unread)) == []


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
