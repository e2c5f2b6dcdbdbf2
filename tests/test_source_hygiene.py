"""Static checks on the package source that no runtime test would notice.

The member check matches attributes by name only, whatever the object: a
method or property counts as reached when any reaching file reads an
attribute of that name, even on an unrelated object.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from cqdw.cli import RUNNERS
from cqdw.config import RunConfig
from cqdw.presets import PRESETS

from test_cli import TINY_EVOLVE

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "cqdw"
MODULES = sorted(SOURCE.glob("*.py"))
# Files whose references count as reaching a definition: the package itself
# and the acceptance criteria with their test-side BdG block.
REACHING = MODULES + [TESTS / "test_acceptance.py", TESTS / "bdg_reference.py"]
PERFBENCH = TESTS.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads"
# Files whose settings count as a run that sets a config field.
SETTING = [SOURCE / "presets.py", *sorted(TESTS.glob("*.py"))]
# RunConfig leaves that no preset, workload or test sets but that stay, with why.
UNSET_BY_DESIGN = {
    "twomode.n_max": "the upper bound of the N axis, paired with n_min, which tests do set",
}
# Top-level definitions that no reaching file uses but that stay, with why.
UNREACHED_BY_DESIGN = {
    "hamiltonian": "the H that integrate_orbit's drift monitor checks; "
                   "test_hamilton_structure_at_random_points checks it generates reduced_rhs",
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each import binds in the module, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def referenced_names(tree: ast.AST) -> set[str]:
    """Bare names read in the tree, and the names `from ... import` binds.
    Stored names (dataclass field annotations, assignments) define rather
    than reference, so they do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def attribute_reads(tree: ast.AST) -> Counter:
    """How often each attribute name is read (`obj.name` in a load context)."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def keyword_names(tree: ast.AST) -> set[str]:
    """Names passed as keyword arguments in any call (`f(name=...)`)."""
    return {kw.arg for node in ast.walk(tree) if isinstance(node, ast.Call)
            for kw in node.keywords if kw.arg is not None}


def test_cli_import_loads_no_scipy():
    """`import cqdw.cli` loads no scipy module. scipy.linalg alone costs about
    0.3 s and 24 MiB; only the tridiagonal solve of `thermal` (dgtsv) needs
    it, and it imports it when it runs."""
    code = "import sys, cqdw.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]", done.stdout


def test_evolve_run_loads_no_scipy(tmp_path):
    """A whole `cqdw evolve` run loads no scipy module either: the midpoint
    step inverts its kinetic part by a closed-form Green's function."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps(TINY_EVOLVE))
    code = ("import sys, cqdw.cli; status = cqdw.cli.main(sys.argv[1:]); "
            "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    argv = ["evolve", "--config", str(config), "--out", str(tmp_path / "ev")]
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 []", done.stdout


def import_time_modules(tree: ast.Module) -> list[str]:
    """Modules a file imports when it loads: every import outside a function
    body (class bodies and `if`/`try` blocks run at import too)."""
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    """A scipy import runs inside the function that needs it, never when a
    cqdw module loads, whichever module imports it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scipy = [m for m in import_time_modules(tree) if m.split(".")[0] == "scipy"]
    assert not scipy, f"{path.name}: {scipy}"


def numpy_linalg_lines(tree: ast.Module) -> list[int]:
    """Lines that reach numpy.linalg: an import of it, or any `.linalg` attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(node.lineno)
        elif isinstance(node, ast.Import):
            found += [node.lineno for alias in node.names
                      if alias.name.split(".")[:2] == ["numpy", "linalg"]]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[:2] == ["numpy", "linalg"]
                or node.module == "numpy" and any(a.name == "linalg" for a in node.names)):
            found.append(node.lineno)
    return found


def test_spectrum_uses_no_numpy_linalg():
    """The doublet comes from Sturm bisection and inverse iteration on the
    tridiagonal folds, in Python: no LAPACK call, so no OpenBLAS thread wakes
    and no n x n workspace is allocated for it."""
    tree = ast.parse((SOURCE / "spectrum.py").read_text(encoding="utf-8"))
    assert not numpy_linalg_lines(tree), numpy_linalg_lines(tree)


def test_modules_found():
    assert {m.name for m in MODULES} >= {"cli.py", "continuation.py", "presets.py"}


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_top_level_definition_is_reached():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in REACHING}
    unreached = set()
    for path in MODULES:
        elsewhere = set().union(*(referenced_names(tree) for other, tree in trees.items()
                                  if other != path))
        body = trees[path].body
        own = [referenced_names(node) for node in body]
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            # references inside a definition's own body do not reach it
            if node.name not in elsewhere and not any(
                    node.name in names for other, names in zip(body, own) if other is not node):
                unreached.add(node.name)
    assert unreached == set(UNREACHED_BY_DESIGN), (
        f"defined in src/cqdw but used by no module, criterion or BdG reference: "
        f"{sorted(unreached - set(UNREACHED_BY_DESIGN))}; exemptions now reached "
        f"or gone: {sorted(set(UNREACHED_BY_DESIGN) - unreached)}")


def reads(tree: ast.AST) -> set[str]:
    """Names a tree reads, bare or as an attribute, or imports by name."""
    return referenced_names(tree) | set(attribute_reads(tree))


def test_every_constant_is_read():
    """Every UPPER_CASE module-level constant of src/cqdw is read in some
    src/cqdw module or test, outside its own assignment, so a constant that
    nothing reads does not stay."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES + sorted(TESTS.glob("*.py"))}
    unread = set()
    for path in MODULES:
        elsewhere = set().union(*(reads(tree) for other, tree in trees.items() if other != path))
        body = trees[path].body
        for node in body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for name in (t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()):
                if name not in elsewhere and not any(
                        name in reads(other) for other in body if other is not node):
                    unread.add(f"{path.stem}.{name}")
    assert not unread, f"read by no src/cqdw module or test: {sorted(unread)}"


def test_every_class_member_is_reached():
    """Every method and property of a src/cqdw class (dunders exempt) is read
    as an attribute in some reaching file. Matching is by name, whatever the
    object; reads inside the member's own body do not reach it."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in REACHING}
    unreached = set()
    for path in MODULES:
        elsewhere = set().union(*(attribute_reads(tree) for other, tree in trees.items()
                                  if other != path))
        here = attribute_reads(trees[path])
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("__"):
                    continue
                name = member.name
                if name not in elsewhere and here[name] <= attribute_reads(member)[name]:
                    unreached.add(f"{cls.name}.{name}")
    assert not unreached, (
        f"read by no module, criterion or BdG reference: {sorted(unreached)}")


def is_dataclass_def(node: ast.AST) -> bool:
    """A class statement decorated with `@dataclass` or `@dataclass(...)`."""
    return isinstance(node, ast.ClassDef) and any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    """Every field of a src/cqdw dataclass is read as an attribute in some
    src/cqdw module or test, so a field that only its constructor call fills
    does not stay. Matching is by name, whatever the object, as for members."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES + sorted(TESTS.glob("*.py"))]
    read = set().union(*(attribute_reads(tree) for tree in trees))
    unread = [f"{cls.name}.{stmt.target.id}"
              for tree in trees[:len(MODULES)] for cls in tree.body if is_dataclass_def(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert not unread, f"read by no src/cqdw module or test: {unread}"


def is_config_field(path: str) -> bool:
    """`section.field` or `seed`: a path to a leaf field of RunConfig."""
    node = RunConfig()
    for part in path.split("."):
        if not is_dataclass(node) or part not in {f.name for f in fields(node)}:
            return False
        node = getattr(node, part)
    return not is_dataclass(node)


def test_every_config_message_names_its_field():
    """Each message that validate_config appends, directly or through
    `_tag_clashes(path, ...)`, starts with `<path>:` for a real field of
    RunConfig, so a rule that moves into the gate always points at its field."""
    tree = ast.parse((SOURCE / "config.py").read_text(encoding="utf-8"))
    gate = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "validate_config")
    paths = []
    for node in ast.walk(gate):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend")):
            continue
        message = node.args[0]
        if node.func.attr == "extend":  # p.extend(_tag_clashes("section.field", ...))
            message = message.args[0]
        head = message.values[0] if isinstance(message, ast.JoinedStr) else message
        assert isinstance(head, ast.Constant) and isinstance(head.value, str), ast.unparse(node)
        text = head.value if node.func.attr == "append" else head.value + ":"
        path, colon, _ = text.partition(":")
        assert colon and is_config_field(path), f"{ast.unparse(node)} names no RunConfig field"
        paths.append(path)
    assert paths, "found no message in validate_config"


def config_leaves(node, prefix: str = "") -> list[str]:
    """Dotted path of every leaf field under a config dataclass."""
    leaves = []
    for f in fields(node):
        value = getattr(node, f.name)
        if is_dataclass(value):
            leaves.extend(config_leaves(value, f"{prefix}{f.name}."))
        else:
            leaves.append(prefix + f.name)
    return leaves


def json_keys(value) -> set[str]:
    if not isinstance(value, dict):
        return set()
    return set(value).union(*(json_keys(v) for v in value.values()))


def dict_keys_and_options(tree: ast.AST) -> set[str]:
    """String keys of the dict literals in the tree, and the names of the
    command-line options (`"--seed"`) among its string constants."""
    keys = {key.value for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key in node.keys if isinstance(key, ast.Constant) and isinstance(key.value, str)}
    options = {node.value[2:] for node in ast.walk(tree) if isinstance(node, ast.Constant)
               and isinstance(node.value, str) and node.value.startswith("--")}
    return keys | options


def test_every_config_field_is_set():
    """Every leaf of RunConfig is set in presets.py, a benchmark workload or
    a test: passed by keyword or as a command-line option, or a key of a dict
    literal or workload JSON. Matching is by the leaf's name, whatever the
    section, as for class members."""
    names = set()
    for path in SETTING:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= keyword_names(tree) | dict_keys_and_options(tree)
    for path in sorted(WORKLOADS.glob("*.json")):
        names |= json_keys(json.loads(path.read_text(encoding="utf-8")))
    unset = {leaf for leaf in config_leaves(RunConfig()) if leaf.rpartition(".")[2] not in names}
    assert unset == set(UNSET_BY_DESIGN), (
        f"set by no preset, workload or test: {sorted(unset - set(UNSET_BY_DESIGN))}; "
        f"exemptions now set or gone: {sorted(set(UNSET_BY_DESIGN) - unset)}")


def test_every_subcommand_is_run_by_a_preset_or_workload():
    """Each runner serves a preset or a benchmark workload (`Workload(name,
    subcommand)` in perfbench/workloads.py), so a subcommand that only tests
    run, a second route beside the pipeline, does not stay."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    run = {node.args[1].value for node in ast.walk(tree)
           if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload"}
    assert run, "no Workload(...) found in perfbench/workloads.py"
    run |= {preset.subcommand for preset in PRESETS.values()}
    assert set(RUNNERS) <= run, f"run by no preset or workload: {sorted(set(RUNNERS) - run)}"
