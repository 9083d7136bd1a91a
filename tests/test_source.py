import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from doorlab import classify, cli
from doorlab.topology import Topology

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "doorlab"


def test_no_assert_in_src():
    """Claim checks raise real errors, so they still run under python -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(SRC.glob("*.py"))
    assert found == []


def test_no_unused_imports_in_src():
    """Every name a module imports is used in it or re-exported by its
    __all__."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            targets = getattr(node, "targets", [])
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used |= set(ast.literal_eval(node.value))
        found += [f"{path.name}:{line} {name}"
                  for name, line in sorted(imported.items()) if name not in used]
    assert found == []


# Public functions kept without a src caller, each until the ROADMAP item
# that will call it lands.
NO_SRC_CALLER_YET: set[str] = set()


def src_trees_and_exports():
    """The parsed src modules, and the names their __all__ lists export."""
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    exported = set()
    for tree in trees:
        for node in tree.body:
            targets = getattr(node, "targets", [])
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported |= set(ast.literal_eval(node.value))
    return trees, exported


def public_defs(trees):
    """The public top-level functions and public methods of top-level
    classes, each with whether it is a method."""
    out = []
    for tree in trees:
        for node in tree.body:
            items = node.body if isinstance(node, ast.ClassDef) else [node]
            out += [(item, item is not node) for item in items
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def test_public_src_functions_have_src_callers():
    """A public top-level function, or a public method of a top-level
    class, is named somewhere else in src or is exported by an __all__: API
    that only tests use belongs in the tests."""
    trees, exported = src_trees_and_exports()
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    found = sorted(
        node.name for node, _ in public_defs(trees)
        if node.name not in named | exported | NO_SRC_CALLER_YET)
    assert found == []


def test_private_src_functions_have_src_references():
    """A private top-level function is named somewhere in src outside its
    own body: deleting its last caller deletes it too."""
    trees, _ = src_trees_and_exports()
    found = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                own = set(map(id, ast.walk(node)))
                if not any(getattr(ref, "id", getattr(ref, "attr", None)) == node.name
                           and id(ref) not in own
                           for t in trees for ref in ast.walk(t)):
                    found.append(node.name)
    assert found == []


def test_src_calls_pass_every_default_of_a_public_src_function():
    """Each defaulted parameter of a public src function, exported ones
    aside, is passed by some src call, positionally or by keyword: a knob
    that src always leaves at its default is a constant, and belongs in the
    function body."""
    trees, exported = src_trees_and_exports()
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    found = []
    for node, is_method in public_defs(trees):
        if node.name in exported:
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = [(i - is_method, a.arg)
                     for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for index, arg in defaulted:
            if not any(
                    any(k.arg in (arg, None) for k in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (index is not None and len(call.args) > index)
                    for call in calls.get(node.name, [])):
                found.append(f"{node.name}.{arg}")
    assert found == []


def test_names_the_benchmark_reads_resolve_in_src():
    """A traced benchmark run wraps every function `perfbench/spans.py`
    names in `layer_targets`, and the enumeration workload reads
    `Topology.opens`: deleting or renaming one of them would crash the
    benchmark, so it fails here first."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    importlib.import_module("doorlab.cli")  # loads every layer, as the benchmark does
    targets = spans.layer_targets()
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert targets and missing == []
    t = Topology(2, 0b1001)
    assert t.opens.to_hex() == t.to_hex()


IMPORT_PROFILE = """
import json, os, sys
src = sys.argv[1]
sys.path.insert(0, os.path.dirname(src))
ran = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(src):
        ran.add(os.path.basename(code.co_filename) + ":" + code.co_name)

sys.setprofile(profile)
import doorlab.cli
sys.setprofile(None)
print(json.dumps(sorted(ran)))
"""


def test_import_runs_no_src_function():
    """Importing the CLI, in a fresh interpreter, runs module and class
    bodies and comprehensions only: no function that src defines, so no
    table is decoded at import however wide the ground set grows."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROFILE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    ran = set(json.loads(out))
    defs = {f"{path.name}:{node.name}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert "core.py:<module>" in ran and "cli.py:<module>" in ran
    assert sorted(ran & defs) == []


def test_every_src_error_but_claim_falsified_is_a_value_error():
    """The CLI maps every error to exit 2 by one `except ValueError`, so an
    error class added to src must subclass ValueError, unless it is
    `ClaimFalsified`, which exits 1."""
    errors = {
        cls.__name__: cls
        for path in sorted(SRC.glob("*.py"))
        for cls in vars(importlib.import_module(f"doorlab.{path.stem}")).values()
        if isinstance(cls, type) and issubclass(cls, BaseException)
        and cls.__module__ == f"doorlab.{path.stem}"}
    assert {"ClaimFalsified", "DomainError", "TopologyError"} <= set(errors)
    assert sorted(name for name, cls in errors.items()
                  if not issubclass(cls, ValueError)) == ["ClaimFalsified"]


def test_form_kinds_agree_across_modules():
    """A form kind is in `VALID_KINDS` and the CLI's form names alike, and
    has a `classify.FORMS` row unless it is Form2, which needs free
    ultrafilters: no kind is half added."""
    kinds = set(classify.VALID_KINDS)
    assert kinds == set(cli.FORM_NAMES.values())
    assert kinds - {"Form2"} == set(classify.FORMS)
