"""Guard: no module-level function of the package takes a parameter it never
reads.  An unread parameter is a setting that looks like it matters and does
not, which is how an unused SplitParams once ran through the whole
certificate pipeline."""

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


def test_every_parameter_is_read():
    unread = [name for path in sorted(PACKAGE.glob("*.py")) for name in unread_parameters(path)]
    assert sorted(set(unread) - set(ALLOWED)) == []
    # an exception whose parameter is gone or now read must leave the list
    assert sorted(set(ALLOWED) - set(unread)) == []


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
