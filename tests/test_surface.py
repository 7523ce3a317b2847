"""Public surface: exported names, the names the demos import, and the
names the traced benchmark wraps all exist; every demo runs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import MappingProxyType

import pytest

import weylsys

ROOT = Path(__file__).resolve().parents[1]


def test_exported_and_demo_names_exist():
    missing = [name for name in weylsys.__all__ if not hasattr(weylsys, name)]
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "weylsys"
            ):
                module = importlib.import_module(node.module)
                missing += [
                    f"{demo.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
    assert missing == []


@pytest.mark.parametrize(
    "demo", sorted(path.name for path in (ROOT / "demos").glob("*.py"))
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["PYTHONWARNINGS"] = "error"  # the suite's own warning rule
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def run_with_benchmark_path(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports from perfbench/."""
    env = dict(os.environ)
    paths = [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    env["PYTHONWARNINGS"] = "error"  # the suite's own warning rule
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_benchmark_span_wrappers_install():
    proc = run_with_benchmark_path("import inproc; inproc.install(inproc.Recorder())")
    assert proc.returncode == 0, proc.stderr


def test_benchmark_span_wrappers_stay_on_the_call_path(tmp_path):
    # install() alone calls through no wrapper: a name the CLI stopped
    # looking up at call time would leave its span empty without a word
    proc = run_with_benchmark_path(
        "import json, inproc, weylsys.cli as cli\n"
        "rec = inproc.Recorder()\n"
        "inproc.install(rec)\n"
        f"out = {str(tmp_path)!r}\n"
        "codes = [cli.main(['compute', '--model', 'twisted', '--pipeline', 'spectral',\n"
        "                   '-k', '16', '--out', out + '/compute']),\n"
        "         cli.main(['verify', '--model', 'twisted', '--out', out + '/verify'])]\n"
        "print(json.dumps([codes, sorted({span.name for span in rec.spans})]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    codes, spans = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    want = {"torus.build_model", "torus.mollifier", "torus.assemble", "torus.counting",
            "torus.fit", "cli.write_csv", "resolvent.b_profile", "resolvent.recover",
            "coefficients.panel", "kernels.moment"}
    assert want - set(spans) == set()


def test_benchmark_references_match_the_direct_route():
    # the benchmark checks every run against these values, computed through
    # the public API with the positional call second_weyl(lead, sub, x, quad, step)
    proc = run_with_benchmark_path(
        "import json, probe, weylsys\n"
        "model = weylsys.build_model('twisted')\n"
        "refs = probe.references(weylsys, model, [[0.0, 0.0]], ['a1', 'a0'])\n"
        "lead, sub = model.symbol_fields()\n"
        "quad = weylsys.CosphereQuadrature(n_angles=256)\n"
        "c = weylsys.weyl_coefficients(lead, sub, [0.0, 0.0], quad)\n"
        "print(json.dumps([refs, [{'x': [0.0, 0.0], 'a1': c.a_first_plus,\n"
        "                          'a0': c.a_second_plus}]]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    refs, direct = json.loads(proc.stdout)
    assert refs == direct


# imported only so that perfbench/inproc.py can wrap them in the module
BENCHMARK_HOOKS = {("coefficients.py", "eigen_jet"), ("resolvent.py", "eigen_jet")}


def test_built_records_hold_no_writable_table():
    # a registered model's modes and a solved spectrum's arrays are checked
    # or cached once, when made, so none of them may change after that, nor
    # be replaced: a non-Hermitian table assigned to modes would skip the
    # Hermiticity rule
    for name in weylsys.catalog_names():
        model = weylsys.build_model(name)
        for fld in (*model.coefficients, model.potential):
            assert isinstance(fld.modes, MappingProxyType), name
            assert not any(mat.flags.writeable for mat in fld.modes.values()), name
            with pytest.raises(AttributeError):
                fld.modes = {(0, 0): [[0, 1], [2, 0]]}
        spec = weylsys.assemble_and_solve(model, 8, [[0.0, 0.0]])
        assert not any(arr.flags.writeable
                       for arr in (spec.eigenvalues, spec.x_points, spec.weights)), name


def test_every_import_is_used():
    # a name a module imports must be read in that module, listed in its
    # __all__ (the package's re-exports) or be a documented benchmark hook
    unused = []
    for path in sorted((ROOT / "src" / "weylsys").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = "weylsys" if path.stem == "__init__" else f"weylsys.{path.stem}"
        used.update(getattr(importlib.import_module(module), "__all__", ()))
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)
                   if (path.name, name) not in BENCHMARK_HOOKS]
    assert unused == []


def _names(tree) -> Counter:
    """How often each identifier occurs as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_serves_the_package():
    # a module-level function or class of src/weylsys must be named outside
    # its own definition in src, demos/ or perfbench/, or be exported in an
    # __all__: code that only the tests reach does not belong in the package
    trees = {path: ast.parse(path.read_text())
             for folder in ("src", "demos", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    names = sum(map(_names, trees.values()), Counter())
    modules = sorted((ROOT / "src" / "weylsys").glob("*.py"))
    exported = set()
    for path in modules:
        module = "weylsys" if path.stem == "__init__" else f"weylsys.{path.stem}"
        exported.update(getattr(importlib.import_module(module), "__all__", ()))
    # module-level PEP 562 hooks are called by the interpreter, not by name
    hooks = {"__getattr__", "__dir__"}
    unserved = [f"{path.name}: {node.name}" for path in modules
                for node in trees[path].body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name not in exported
                and not (isinstance(node, ast.FunctionDef) and node.name in hooks)
                and names[node.name] == _names(node)[node.name]]
    assert unserved == []


def test_every_private_definition_is_read():
    # a private module-level function, class or assignment of src/weylsys,
    # and a private method or field of one of its classes, must be read as a
    # name or an attribute somewhere in src: a helper that only the tests
    # reach, or one the code has left behind, does not belong in the package
    trees = {path: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "weylsys").glob("*.py"))}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    unread = []
    for path, tree in trees.items():
        classes = [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        for node in (node for body in (tree.body, *classes) for node in body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            unread += [f"{path.name}: {name}" for name in names
                       if name.startswith("_") and not name.endswith("__")
                       and name not in read]
    assert unread == []


def test_every_export_serves_a_route():
    # a name in weylsys.__all__ must be named outside its own definition in
    # src/weylsys (the re-export in __init__.py aside), in demos/, in
    # perfbench/ or in the acceptance suite: an export that only the other
    # tests call is no route's
    paths = [path for path in sorted((ROOT / "src" / "weylsys").glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    trees = [ast.parse(path.read_text()) for path in paths]
    names = sum(map(_names, trees), Counter())
    own = Counter()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own[node.name] += _names(node)[node.name]
    assert [name for name in weylsys.__all__ if names[name] == own[name]] == []


def test_every_attribute_is_read():
    # an attribute a src/weylsys class assigns on self must be read as an
    # attribute somewhere in src, demos/ or perfbench/ (matched by name):
    # state that only the tests read does not belong in the package
    loads = set()
    for folder in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            loads.update(n.attr for n in ast.walk(ast.parse(path.read_text()))
                         if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    unread = []
    for path in sorted((ROOT / "src" / "weylsys").glob("*.py")):
        stored = {n.attr for n in ast.walk(ast.parse(path.read_text()))
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                  and isinstance(n.value, ast.Name) and n.value.id == "self"}
        unread += [f"{path.name}: {name}" for name in sorted(stored - loads)]
    assert unread == []


def test_every_record_field_is_read():
    # a field of a src/weylsys dataclass must be read as an attribute
    # somewhere in src, demos/, perfbench/ or tests/ (matched by name): a
    # field nothing reads is state a record carries for no reader
    loads = set()
    for folder in ("src", "demos", "perfbench", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            loads.update(n.attr for n in ast.walk(ast.parse(path.read_text()))
                         if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    unread = []
    for path in sorted((ROOT / "src" / "weylsys").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                unread += [f"{path.name}: {cls.name}.{n.target.id}" for n in cls.body
                           if isinstance(n, ast.AnnAssign) and n.target.id not in loads]
    assert unread == []


def test_every_parameter_is_read():
    # a parameter no body reads is a setting that silently does nothing;
    # a method's self is no setting (a cached_property may ignore it)
    unread = []
    for path in sorted((ROOT / "src" / "weylsys").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg)
                      if p is not None and p.arg != "self"]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}: {node.name}({p})" for p in params
                       if p not in read]
    assert unread == []


def _defaulted_parameters(tree):
    """(called name, parameter, positional index or None) for every
    parameter with a default of a function or method; an ``__init__`` is
    called by its class name, and a method's self or cls is never passed."""
    classes = {id(fn): node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for fn in node.body}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = classes[id(node)] if node.name == "__init__" else node.name
        a = node.args
        positional = [p.arg for p in (*a.posonlyargs, *a.args)]
        if id(node) in classes and positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        first = len(positional) - len(a.defaults)
        out += [(name, p, i) for i, p in enumerate(positional) if i >= first]
        out += [(name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None]
    return out


def _passes(call, param, index):
    """Whether ``call`` passes ``param``: by position (``*args`` passes every
    position) or by keyword (``**kwargs`` passes every keyword)."""
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if index is None:
        return False
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or len(call.args) > index)


def test_every_default_is_passed_somewhere():
    # a default no call ever overrides is a fixed rule dressed as a setting:
    # every defaulted parameter of src/weylsys must be passed by at least one
    # call in src, tests, demos or perfbench (calls match by function or
    # class name; a method call by its attribute name)
    calls = {}
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    never = []
    for path in sorted((ROOT / "src" / "weylsys").glob("*.py")):
        for name, param, index in _defaulted_parameters(ast.parse(path.read_text())):
            if not any(_passes(call, param, index) for call in calls.get(name, ())):
                never.append(f"{path.name}: {name}({param})")
    assert never == []
