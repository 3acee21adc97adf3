"""Guard: no module-level function of the package takes a parameter it never
reads, no dataclass of the package has a field that no line of the package
reads, no defaulted parameter goes unset by every call of the package
and the benchmark, no config setting goes unset by every flag, benchmark
config and CI config, and no public function or class goes unreached by the
package and the benchmark.  An unread parameter or field is a setting that
looks like it matters and does not, which is how an unused SplitParams once
ran through the whole certificate pipeline; a default or a config setting
that nothing overrides is a constant that looks like a setting; a public
name that nothing reaches is a second road to a kernel that only the tests
walk."""

import ast
import json
from collections import Counter
from pathlib import Path

import lognls.cli as cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lognls"
BENCHMARK = ROOT / "perfbench"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

# module.function.parameter -> why the unread slot stays
ALLOWED = {
    "nehari.ground_state.params": (
        "the benchmark script perfbench/child.py calls "
        "ground_state(grid, 1.0, 1.0, params, solver) positionally"
    ),
}

# module.function.parameter -> why the default stays although no call sets it
ALLOWED_UNSET: dict[str, str] = {}

# module.name -> why the public function stays although neither the package
# nor the benchmark reaches it
ALLOWED_UNREACHED = {
    "grid.load_field": "it reads the field files that field_text formats",
}

# block.key -> why the config setting stays although only the tests set it
ALLOWED_SETTINGS = {
    "potential.lambda": (
        "problem data, not a method knob: the cone of the saddle hypothesis, "
        "which check_V1 reads"
    ),
    "certificate.h_target": (
        "perfbench/child.py reads it from DEFAULT_CONFIG for the solver "
        "spacing, and it is the starting spacing of a mesh refinement"
    ),
    "certificate.solver_half_extent": (
        "perfbench/child.py reads it from DEFAULT_CONFIG for the solver spacing"
    ),
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


def _reflected_fields(cls: ast.ClassDef) -> tuple[bool, set]:
    """(whether a method of ``cls`` loops over ``fields(self)``, the field
    names such a loop skips by name: the string constants the class compares
    with ``!=``).  A loop over ``fields(self)`` reads every other field."""
    reflects = any(
        isinstance(n, ast.Call)
        and getattr(n.func, "id", getattr(n.func, "attr", None)) == "fields"
        and [getattr(a, "id", None) for a in n.args] == ["self"]
        for n in ast.walk(cls)
    )
    skipped = {
        c.value
        for n in ast.walk(cls)
        if isinstance(n, ast.Compare) and isinstance(n.ops[0], ast.NotEq)
        for c in n.comparators
        if isinstance(c, ast.Constant)
    }
    return reflects, skipped


def unread_fields(paths: list[Path]) -> list[str]:
    """Fields of module-level dataclasses whose name no attribute load in
    ``paths`` reads (``obj.name`` anywhere counts, ``obj.name = ...`` not),
    and that no loop of their class over ``fields(self)`` reads."""
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
            reflects, skipped = _reflected_fields(node)
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                    if name not in read and not (reflects and name not in skipped):
                        found.append(f"{path.stem}.{node.name}.{name}")
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


def _string_keys(node: ast.Dict) -> set[str]:
    return {k.value for k in node.keys if isinstance(k, ast.Constant) and isinstance(k.value, str)}


def literal_settings(paths: list[Path], blocks) -> set[str]:
    """``block.key`` of every dict literal in ``paths`` that is the value of a
    dict entry keyed by a block name, as a benchmark config is written."""
    found = set()
    for path in paths:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Dict):
                for key, value in zip(n.keys, n.values):
                    if isinstance(key, ast.Constant) and key.value in blocks and isinstance(value, ast.Dict):
                        found |= {f"{key.value}.{k}" for k in _string_keys(value)}
    return found


def json_settings(path: Path, blocks) -> set[str]:
    """``block.key`` of every JSON object in the text of ``path`` whose keys
    are all block names, as a CI step writes a config with echo or a
    heredoc."""
    text = path.read_text(encoding="utf-8")
    decoder = json.JSONDecoder()
    found = set()
    for start in (i for i, char in enumerate(text) if char == "{"):
        try:
            obj, _ = decoder.raw_decode(text, start)
        except ValueError:
            continue
        if isinstance(obj, dict) and obj and set(obj) <= set(blocks):
            found |= {f"{b}.{k}" for b, block in obj.items() if isinstance(block, dict) for k in block}
    return found


def unset_settings(block_keys: dict, flagged: set[str], bench: list[Path], workflow: Path) -> list[str]:
    """``block.key`` of every setting of ``block_keys`` that no flag (the
    ``flagged`` settings), benchmark config literal or CI config sets."""
    blocks = set(block_keys)
    found = flagged | literal_settings(bench, blocks) | json_settings(workflow, blocks)
    return [f"{b}.{k}" for b, keys in block_keys.items() for k in keys if f"{b}.{k}" not in found]


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


def test_every_setting_is_set_outside_the_tests():
    # a flag sets a setting of SETTING_FLAGS or a potential key of a --V form
    flagged = {key for flags in cli.SETTING_FLAGS.values() for key in flags.values()}
    flagged |= {f"potential.{k}" for text in ("const:0", "saddle:1,2") for k in cli.parse_potential_flag(text)}
    unset = unset_settings(cli.BLOCK_KEYS, flagged, sorted(BENCHMARK.glob("*.py")), WORKFLOW)
    assert sorted(set(unset) - set(ALLOWED_SETTINGS)) == []
    # an exception whose setting is gone or now set must leave the list
    assert sorted(set(ALLOWED_SETTINGS) - set(unset)) == []


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


def test_guard_reads_the_fields_a_report_loops_over(tmp_path):
    # a report built off fields(self) reads every field but the ones it
    # skips by name; a class with no such loop reads none of its own
    module = tmp_path / "sample.py"
    module.write_text(
        "from dataclasses import dataclass, fields\n"
        "\n"
        "@dataclass\n"
        "class Report:\n"
        "    value: float\n"
        "    flags: dict\n"
        "    details: dict\n"
        "\n"
        "    def to_dict(self):\n"
        "        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != 'details'}\n"
        "\n"
        "@dataclass\n"
        "class Other:\n"
        "    hidden: int\n",
        encoding="utf-8",
    )
    assert unread_fields([module]) == ["sample.Report.details", "sample.Other.hidden"]


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


def test_guard_sees_an_unset_setting(tmp_path):
    flagged = {"grid.size", "grid.dim", "shape.kind", "shape.value", "sweep.eps"}
    bench = tmp_path / "bench.py"
    bench.write_text("CONFIG = {'output': {'directory': 'out'}, 'name': {'spacing': 1}}\n", encoding="utf-8")
    workflow = tmp_path / "ci.yml"
    workflow.write_text(
        "run: |\n"
        "  echo '{\"sweep\": {\"seed\": 3}}' > cfg.json\n"
        "  cat > other.json <<'JSON'\n"
        "  {\"shape\": {\"expr\": \"z0\"},\n"
        "   \"output\": {\"formats\": [\"csv\"]}}\n"
        "  JSON\n"
        "  python -c 'print({\"grid\": {\"spacing\": 1}, \"x\": 1})'\n"
        "  ${{ matrix.python }}\n",
        encoding="utf-8",
    )
    block_keys = {
        "grid": ("size", "dim", "spacing"),
        "shape": ("kind", "value", "expr", "lambda"),
        "sweep": ("eps", "seed"),
        "output": ("directory", "formats"),
    }
    assert unset_settings(block_keys, flagged, [bench], workflow) == ["grid.spacing", "shape.lambda"]
