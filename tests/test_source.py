"""Source-level rules for the library package."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import isingcyl

SRC = Path(isingcyl.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_no_assert_statements():
    # runtime checks must survive ``python -O``: raise typed errors instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


# bins a distance list and solves tree distances of both flavors, then
# reports whether numpy.ma was imported
BINNING = """
import sys
import numpy as np
from isingcyl.lattice import CylinderGeometry, tree_distances
from isingcyl.multiscale import envelope_decay_fit
sites = np.array([[(1, 1), (3, 2)], [(2, 2), (5, 3)], [(1, 0), (1, 0)]])
edges = np.zeros((3, 0, 3), dtype=int)
for boundary in (False, True):
    tree_distances(sites, edges, CylinderGeometry(6, 4), boundary=boundary)
d = np.arange(60.0)
envelope_decay_fit(d, np.exp(-0.1 * d) * (1.0 + 0.3 * np.cos(d)))
print("numpy.ma" in sys.modules)
"""


def test_binning_leaves_numpy_ma_unloaded():
    # a plain ``np.unique`` (no return_index/inverse/counts) imports
    # numpy.ma, 10-13 ms of a fresh process
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", BINNING],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_no_unused_module_imports():
    # every name a module imports at top level is read somewhere in it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names
                          if (alias.asname or alias.name).split(".")[0]
                          not in used]
    assert found == []


def _is_alias(fn):
    # the body, past a docstring, is only ``return g(<params, in order>)``
    body = fn.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    return (isinstance(call, ast.Call) and not call.keywords
            and all(isinstance(a, ast.Name) for a in call.args)
            and [a.id for a in call.args] == params)


def test_no_alias_functions():
    # a function that only forwards its own parameters to another one is a
    # second name for it: call the other function directly
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and _is_alias(node)]
    assert found == []


def test_benchmark_trace_targets_resolve():
    # the benchmark's tracer patches these names from outside the library:
    # a module attribute, or a method defined on the class itself
    targets = next(ast.literal_eval(node.value)
                   for node in ast.parse(TRACING.read_text()).body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets]
                   == ["TARGETS"])
    assert targets
    missing = []
    for module, attr, _ in targets:
        owner = vars(importlib.import_module(f"isingcyl.{module}"))
        *cls_name, name = attr.split(".")
        if cls_name:
            cls = owner.get(cls_name[0])
            owner = vars(cls) if isinstance(cls, type) else {}
        if not callable(owner.get(name)):
            missing.append(f"{module}.{attr}")
    assert missing == []


PERFBENCH = TRACING.parent


def _benchmark_names():
    # (module, path) for every library name a benchmark file imports with
    # ``from isingcyl.m import n`` or reads through a module alias
    # (``import isingcyl.m as a``, then ``a.n``), with one attribute more
    # where the name is used as ``a.n.attr`` or ``n.attr``
    found = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> (module, path it stands for)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname, (a.name, ())) for a in node.names
                             if a.asname and a.name.startswith("isingcyl."))
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.startswith("isingcyl.")):
                for a in node.names:
                    bound[a.asname or a.name] = (node.module, (a.name,))
                    found.add((node.module, (a.name,)))
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in bound:
                module, head = bound[node.id]
                found.add((module, (head + tuple(chain))[:2]))
    return found


def test_benchmark_names_resolve():
    # every library name the benchmark reads by name: deleting one ends
    # every benchmark run as run_failed.  A class's attribute is checked
    # one level down (``pr.LazyCriticalTable.block``); attributes read off
    # instances (``Kernel.scaled`` on a kernel, ``row_offset``) are not
    # seen here and stay covered by the benchmark's own tests only
    names = _benchmark_names()
    assert len(names) > 40  # 49 names when this test was written
    missing = []
    for module, path in sorted(names):
        obj = importlib.import_module(module)
        for i, attr in enumerate(path):
            if i and not isinstance(obj, type):
                break
            if not hasattr(obj, attr):
                missing.append(".".join((module, *path[:i + 1])))
                break
            obj = getattr(obj, attr)
    assert missing == []


def _mentions(node):
    # every identifier a piece of code names: variables, attributes, the
    # parts of imported module paths and of dotted string constants (the
    # tracer's targets)
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.ImportFrom) and n.module:
            out.update(n.module.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def _module_definitions():
    # (module, name) -> node for each top-level def, class and assignment,
    # and (module, "Class.method") -> node for each method but the dunders
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs[(path.stem, node.name)] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    if isinstance(t, ast.Name):
                        defs[(path.stem, t.id)] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not item.name.startswith("__")):
                        defs[(path.stem, f"{node.name}.{item.name}")] = item
    return defs


def test_every_module_definition_is_reached():
    # the library's uses are the CLI, the acceptance criteria and the
    # benchmark: every top-level definition and every method but the
    # dunders is named, transitively, from ``cli.main``,
    # ``acceptance.CHECKS`` or a benchmark module or benchmark test that
    # also names its module.  The check goes by name: a method counts as
    # reached once any reached code names an attribute of its name, so a
    # dead method that shares a live name (as ``Kernel.items`` did with
    # every ``dict.items`` call) still passes.
    defs = _module_definitions()
    name = {key: key[1].split(".")[-1] for key in defs}
    bench = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        bench |= _mentions(ast.parse(path.read_text()))
    todo = [("cli", "main"), ("acceptance", "CHECKS")]
    todo += [k for k in defs if k[0] in bench and name[k] in bench]
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            mentioned = _mentions(defs[key])
            todo += [k for k in defs if name[k] in mentioned]
    assert sorted(f"{m}.{n}" for m, n in set(defs) - reached) == []


# the oracle and residual functions that the report functions of
# ``acceptance`` call: the CLI verbs reach them only through those reports
REPORT_ONLY = {
    "enumerate_gibbs", "moments_to_cumulants", "max_block_difference",
    "boundary_residual", "critical_propagator_direct",
    "massive_propagator_direct", "log_partition_function_free",
    "telescoping_residual", "split_residual", "edge_decay_profile",
    "envelope_decay_fit", "scaling_series", "FreeCorrelator",
}


def test_cli_calls_no_oracle_directly():
    # identifiers only: output keys such as "boundary_residual" stay
    named = set()
    for n in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(n, ast.Name):
            named.add(n.id)
        elif isinstance(n, ast.Attribute):
            named.add(n.attr)
        elif isinstance(n, ast.alias):
            named.add(n.asname or n.name)
    assert named & REPORT_ONLY == set()


def _functions(tree):
    # (name, node) for each top-level function and each method, the latter
    # named "Class.method"
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item)
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)))


def test_kernel_operators_stay_on_arrays():
    # kernel operators read the key arrays and build their results by one
    # reduction: only the free source kernels are written as a dict
    # (``Kernel(...)``), and only the repr decodes ``coeffs``
    builds, decodes = [], []
    tree = ast.parse((SRC / "kernelcalc.py").read_text())
    for name, fn in _functions(tree):
        for n in ast.walk(fn):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == "Kernel"):
                builds.append(name)
            elif isinstance(n, ast.Attribute) and n.attr == "coeffs":
                decodes.append(name)
    assert set(builds) <= {"free_source_kernels"}
    assert set(decodes) <= {"Kernel.__repr__"}
