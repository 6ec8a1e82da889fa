"""Checks on the package source itself."""
import ast
import importlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import qpiverify
from qpiverify import cli

PACKAGE_DIR = Path(qpiverify.__file__).parent


def test_no_assert_in_package():
    """`python -O` strips assert statements, so no correctness check may be one."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_bracket_products_built_by_make():
    """Only `factored` calls the BracketProduct constructor itself; every
    factored value built elsewhere goes through `make`, the one place that
    knows the normal form."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "factored.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "BracketProduct":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"direct BracketProduct(...) calls outside factored.py: {found}"


def test_bracket_products_stay_in_factored_and_qseries():
    """Checks hand factor lists to the summation walks, so only `factored`,
    which defines BracketProduct, and `qseries`, whose `summand_brackets` and
    `wz_term_brackets` normalize one summand, import or name it."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name in ("factored.py", "qseries.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            imported = isinstance(node, ast.ImportFrom) and any(a.name == "BracketProduct" for a in node.names)
            if imported or isinstance(node, ast.Attribute) and node.attr == "BracketProduct":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"BracketProduct used outside factored.py and qseries.py: {found}"


def _numerics_reached(*roots):
    """The functions of `numerics` that roots reach by name, the roots among
    them: module-level functions, and every method of a class they name."""
    tree = ast.parse((PACKAGE_DIR / "numerics.py").read_text())
    defined = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defined[node.name] = [node]
        elif isinstance(node, ast.ClassDef):
            defined[node.name] = [fn for fn in node.body if isinstance(fn, ast.FunctionDef)]
    reached, todo = {}, list(roots)
    while todo:
        name = todo.pop()
        if name in defined and name not in reached:
            reached[name] = defined[name]
            todo += [node.id for fn in defined[name] for node in ast.walk(fn) if isinstance(node, ast.Name)]
    return [fn for fns in reached.values() for fn in fns]


def test_numeric_series_terms_name_no_series():
    """The numeric terms are the one before times the ratio read off the one
    summand definition in `qseries`, so `numerics._series_terms`, and every
    function of the module that it reaches, names no SeriesId member: no
    series is written out a fourth time."""
    reached = _numerics_reached("_series_terms")
    found = [
        f"numerics.py:{node.lineno}"
        for fn in reached
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr in qpiverify.SeriesId.__members__
    ]
    assert "_series_terms" in {fn.name for fn in reached}
    assert not found, f"SeriesId members named by _series_terms: {found}"


def test_numeric_hot_loops_run_on_integers():
    """The loops of the infinite products, of the series terms and their sum,
    and of the classical series run on integers: no `for` or `while` body in
    `numerics._qpoch_inf`, `_series_terms`, `eval_series` or
    `eval_classical`, or in any function of the module that they reach,
    names mpmath or Fraction or raises to a power with `**`."""
    roots = ("_qpoch_inf", "_series_terms", "eval_series", "eval_classical")
    reached = _numerics_reached(*roots)
    found = [
        f"numerics.py:{node.lineno}"
        for fn in reached
        for loop in ast.walk(fn)
        if isinstance(loop, (ast.For, ast.While))
        for stmt in loop.body + loop.orelse
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and node.id in ("mpmath", "Fraction")
        or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
    ]
    assert set(roots) <= {fn.name for fn in reached}, reached
    assert not found, f"mpmath, Fraction or ** in the numeric loops: {found}"


def test_prefactor_layout_read_only_in_factored():
    """Only `factored` reads a BracketProduct's brackets (`.exps`): every
    other module gets a factored value's sign, content, cyclotomics and
    q-shift through `FactoredSum.as_quotient` or `to_ratfunc`."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "factored.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "exps"
        ]
    assert not found, f".exps read outside factored.py: {found}"


def test_cyclotomics_expanded_only_in_polys():
    """A power of Phi_d enters or leaves a polynomial only through
    `polys.cyclo_powers`, so no other module names the dense
    `cyclotomic_int` to divide or multiply by it."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "polys.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            imported = isinstance(node, ast.ImportFrom) and any(a.name == "cyclotomic_int" for a in node.names)
            named = isinstance(node, ast.Name) and node.id == "cyclotomic_int"
            if imported or named or isinstance(node, ast.Attribute) and node.attr == "cyclotomic_int":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"cyclotomic_int named outside polys.py: {found}"


def _own_nodes(fn):
    """The nodes of a function's body, without those of functions or
    classes defined inside it."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _subtracts_multiple(node):
    """`r[i] -= f * v` or `r[i] = (r[i] - f * v) % p`: a multiple taken off
    an indexed entry."""

    def mult(e):
        return isinstance(e, ast.BinOp) and isinstance(e.op, ast.Mult)

    if isinstance(node, ast.AugAssign):
        return isinstance(node.target, ast.Subscript) and isinstance(node.op, ast.Sub) and mult(node.value)
    if isinstance(node, ast.Assign) and any(isinstance(t, ast.Subscript) for t in node.targets):
        return any(
            isinstance(e, ast.BinOp) and isinstance(e.op, ast.Sub) and isinstance(e.left, ast.Subscript) and mult(e.right)
            for e in ast.walk(node.value)
        )
    return False


def test_one_long_division_loop():
    """`polys.list_divmod` is the one long division of the package: no other
    function runs a loop, nested in a loop, that takes a multiple of the
    divisor off an indexed remainder.  `list_bracket_div`, the exact
    division by one bracket (1 - q**m), is the named exception."""
    loops = (ast.For, ast.While)
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            outers = [node for node in _own_nodes(fn) if isinstance(node, loops)]
            inners = [node for outer in outers for node in ast.walk(outer) if node is not outer and isinstance(node, loops)]
            if any(_subtracts_multiple(node) for loop in inners for stmt in loop.body for node in ast.walk(stmt)):
                found.add(f"{path.name}:{fn.name}")
    others = found - {"polys.py:list_divmod", "polys.py:list_bracket_div"}
    assert not others, f"long-division loops outside polys.list_divmod: {sorted(others)}"
    assert "polys.py:list_divmod" in found


def test_traced_layers_resolve():
    """The benchmark's tracer wraps these names from outside the package; a
    moved or renamed layer would break its traced run.  Names resolve as the
    tracer looks them up: a dotted one through its class's own `__dict__`,
    so an inherited or renamed method does not count."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    missing = []
    for name, module_name, attr, _ in tracer.LAYERS:
        *classes, fn = attr.split(".")
        owner = importlib.import_module(module_name)
        for cls in classes:
            owner = getattr(owner, cls, None)
        if not callable(vars(owner).get(fn) if owner is not None else None):
            missing.append(f"{name}: {module_name}.{attr}")
    assert not missing, f"traced layers that do not resolve: {missing}"


def test_no_unused_imports():
    """Every name a module imports with `from ... import` is used in it;
    `__init__.py` re-exports its imports and is exempt."""
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                unused += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name) not in used
                ]
    assert not unused, f"unused imports in the package: {unused}"


def test_private_helpers_have_callers():
    """Every private function or method the package defines (`_name`, not
    a dunder) is named somewhere in the package, so a helper that its last
    caller stops using fails here instead of lingering."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE_DIR.glob("*.py"))]
    named = set()
    defined = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append(node.name)
    assert defined
    uncalled = sorted(name for name in defined if name not in named)
    assert not uncalled, f"private helpers that nothing in the package names: {uncalled}"


def _module_level_imports(tree):
    """The modules a module imports when it is imported, relative ones with
    their leading dots: every import statement outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            if node.module:
                yield dots + node.module
            else:  # from . import name
                yield from (dots + alias.name for alias in node.names)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_mpmath_and_the_pool_imported_only_where_used():
    """Only `numerics` imports mpmath when it is imported, and no module
    imports `numerics` or `concurrent.futures` then: the exact checks load
    neither mpmath nor the process pool."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _module_level_imports(tree):
            top = name.split(".")[0]
            mpmath = top == "mpmath" or name == ".numerics"
            if mpmath and path.name != "numerics.py" or top == "concurrent":
                found.append(f"{path.name}: {name}")
    assert not found, f"module-level imports of mpmath, numerics or the pool: {found}"


_IMPORT_PROBE = """
import contextlib, io, json, sys

HEAVY = ("mpmath", "concurrent.futures.process")


def loaded():
    return [name for name in HEAVY if name in sys.modules]


import qpiverify

out = {"import qpiverify": loaded()}
from qpiverify import cli

out["import qpiverify.cli"] = loaded()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    out[" ".join(argv)] = [code, *loaded()]
from qpiverify import numerics

names = {}
exec("from qpiverify import *", names)
print(json.dumps({
    "loaded": out,
    "same": {name: getattr(qpiverify, name) is getattr(numerics, name) for name in sys.argv[2].split()},
    "star": sorted(set(qpiverify.__all__) - set(names)),
    "dir": sorted(set(sys.argv[2].split()) - set(dir(qpiverify))),
    "unknown": not hasattr(qpiverify, "no_such_name"),
}))
"""


def test_exact_commands_load_no_mpmath_or_pool():
    """In a fresh interpreter, importing the package and running the exact
    sweeps leaves mpmath and the process pool unloaded, and a numeric run
    loads mpmath.  The numeric names of the package still resolve, to the
    objects in `numerics`, through `getattr`, `import *` and `dir`."""
    exact = [
        ["verify-wz", "--pair", "J2", "--max-n", "2"],
        ["verify-identity", "--which", "a2", "--n-range", "1..3"],
        ["verify-congruence", "--which", "J2", "--odd-n", "1..9"],
        ["verify-congruence", "--which", "modsun", "--odd-n", "1..9", "--path", "exact"],
        ["verify-sun", "--primes", "5..13"],
    ]
    numeric = ["eval", "--identity", "pi1", "--digits", "10"]
    names = [
        "ConvergenceBudgetExceeded",
        "EvalReport",
        "check_identity_numeric",
        "eval_classical",
        "eval_qpoch_inf",
        "eval_series",
        "limit_scan",
        "q_gamma",
    ]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps([*exact, numeric]), " ".join(names)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(probe.stdout)
    loaded = report["loaded"]
    assert loaded.pop(" ".join(numeric)) == [0, "mpmath"]
    assert loaded == {
        "import qpiverify": [],
        "import qpiverify.cli": [],
        **{" ".join(argv): [0] for argv in exact},
    }
    assert report["same"] == dict.fromkeys(names, True)
    assert report["star"] == [] and report["dir"] == [] and report["unknown"]


def test_readme_commands_parse():
    """Every `qpiverify ...` line in the README's shell blocks is a valid
    command line: it parses and resolves to a nonempty list of cases."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line.split("#", 1)[0].strip()
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
    ]
    commands = [line for line in lines if line.startswith("qpiverify ")]
    assert commands, "no qpiverify commands found in README.md"
    for command in commands:
        args = cli.build_parser().parse_args(shlex.split(command)[1:])
        _, specs = cli._build_cases(args)
        assert specs, command
