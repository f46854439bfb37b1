"""Every public name is reached by the program, or is kept on purpose.

Each name in a submodule's __all__ must be referenced from src/, demos/ or
benchmarks/: imported by name and then used, read as `module.name`, loaded
inside its own module outside its own definition, or named as a
`spans.Layer(module, name)` of the benchmark.  The only exceptions are the
names in KEPT, and each is an oracle: an independent second route that the
tests check a kernel against.  A second check finds imports that a module of
the package, a test or a demo never uses.  Only the standard-library ast
module is used, so nothing is imported or run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "curvlab"
CALLER_DIRS = (ROOT / "src", ROOT / "demos", ROOT / "benchmarks")

ORACLE = "oracle"

#: code that only tests exercise, and why each piece stays
KEPT = {
    # independent second routes that the tests check the kernels against
    "sharp_via_brackets": ORACLE,
    "wedge_product": ORACLE,
    "so_matrix": ORACLE,
    "so_coords": ORACLE,
    "wedge_vectors": ORACLE,
    "wedge_index": ORACLE,
    "wedge_rank": ORACLE,
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _modules():
    """(module name, tree) for every package submodule; __init__ only re-exports."""
    return [
        (path.stem, _parse(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    ]


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _source_module(node, path):
    """The package submodule a from-import reads from, or None."""
    if node.level == 0:
        parts = (node.module or "").split(".")
    elif node.level == 1 and path.parent == PACKAGE:
        parts = ["curvlab"] + (node.module or "").split(".")
    else:
        return None
    if parts[0] != "curvlab":
        return None
    return ".".join(parts[1:]) or None


def _loaded_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _references(path, tree):
    """(module, name) pairs that one caller file references."""
    loads = _loaded_names(tree)
    module_alias = {}  # local name -> package submodule
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _source_module(node, path)
            for alias in node.names:
                local = alias.asname or alias.name
                if source is None and (
                    (node.level == 0 and node.module == "curvlab")
                    or (node.level == 1 and path.parent == PACKAGE and not node.module)
                ):
                    module_alias[local] = alias.name
                elif source is not None and local in loads:
                    refs.add((source, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "curvlab" and len(parts) == 2 and alias.asname:
                    module_alias[alias.asname] = parts[1]
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", "")
            args = node.args[:2]
            if name == "Layer" and len(args) == 2 and all(
                isinstance(a, ast.Constant) and isinstance(a.value, str) for a in args
            ):
                refs.add((args[0].value, args[1].value))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in module_alias:
            refs.add((module_alias[base.id], node.attr))
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "curvlab"
        ):
            refs.add((base.attr, node.attr))
    return refs


def _own_module_loads(tree):
    """Names loaded in a module outside the top-level definition that binds them."""
    loads = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id != own:
                    loads.add(node.id)
    return loads


def _unreached():
    refs = set()
    for folder in CALLER_DIRS:
        for path in sorted(folder.rglob("*.py")):
            refs |= _references(path, _parse(path))
    out = {}
    for module, tree in _modules():
        own = _own_module_loads(tree)
        for name in _exported(tree):
            if (module, name) not in refs and name not in own:
                out[name] = module
    return out


def test_public_names_are_reached_or_kept():
    unreached = _unreached()
    missing = sorted(f"{m}.{name}" for name, m in unreached.items() if name not in KEPT)
    assert not missing, f"public names only tests reach: {missing}"
    defined = {
        getattr(stmt, "name", None) for _, tree in _modules() for stmt in tree.body
    }
    gone = sorted(set(KEPT) - defined)
    assert not gone, f"KEPT names that no module defines: {gone}"
    assert set(KEPT.values()) == {ORACLE}


def _unused_imports(tree):
    exported = set(_exported(tree))
    loads = _loaded_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                if local not in loads and local not in exported:
                    unused.append(local)
    return unused


def test_only_report_renders_text():
    # every Markdown and CSV table goes through report.render_table
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if {"csv", "io"} & set(names):
                found.add(path.name)
    assert found == {"report.py"}


SVD_OWNERS = {
    ("spectral_decomp", "_null_space"),
    ("spectral_decomp", "_rank"),
}


def test_svd_only_in_its_two_helpers():
    # every null space and rank of the package goes through one of these,
    # so a change of method changes one place
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            for node in ast.walk(stmt):
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                if isinstance(node, ast.alias):
                    name = node.name
                if name in ("svd", "matrix_rank", "null_space"):
                    found.add((path.stem, getattr(stmt, "name", type(stmt).__name__)))
    assert found == SVD_OWNERS


def test_mpmath_imported_only_inside_functions():
    # mpmath loads on first use by verify's certificate-identity oracle:
    # importing it at module level would charge every command its 23-43 ms
    # and 3.7 MiB
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        pending = list(_parse(path).body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "mpmath" for name in names):
                found.append(f"{path.name}:{node.lineno}")
            pending.extend(ast.iter_child_nodes(node))
    assert not found, f"module-level mpmath imports: {found}"


def test_only_lie_basis_ranks_wedge_pairs():
    # the wedge-basis order is encoded once, in lie_basis; every other module
    # reads its pair table instead of ranking pairs
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "lie_basis":
            continue
        for node in ast.walk(_parse(path)):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in ("wedge_rank", "wedge_pairs"):
                found.add(path.stem)
    assert not found, f"modules that rank wedge pairs themselves: {sorted(found)}"


def test_lie_basis_keeps_one_table_per_fact():
    # the basis order is encoded once, in the pair table, and the bracket
    # once, in the bracket table; the dense vertex embedding is gone, and no
    # command builds the dense structure constants: only the sharp oracle
    # reads them
    tables, embedding, dense_reads = set(), set(), set()
    for folder in (PACKAGE, ROOT / "tests", ROOT / "demos"):
        for path in sorted(folder.glob("*.py")):
            for stmt in _parse(path).body:
                where = (path.stem, getattr(stmt, "name", type(stmt).__name__))
                for node in ast.walk(stmt):
                    name = getattr(node, "attr", None) or getattr(node, "id", None)
                    if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
                        name = node.name
                    ctx = getattr(node, "ctx", None)
                    if name == "_vertex_embedding":
                        embedding.add(where)
                    if name in ("_pair_table", "_bracket_table") and (
                        isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        or isinstance(ctx, ast.Store)
                    ):
                        tables.add((path.stem, name))
                    if folder == PACKAGE and name == "structure_constants" and (
                        isinstance(ctx, ast.Load)
                    ):
                        dense_reads.add(where)
    assert not embedding, f"the vertex embedding is back: {sorted(embedding)}"
    assert tables == {("lie_basis", "_pair_table"), ("lie_basis", "_bracket_table")}
    assert dense_reads == {("curvature_core", "sharp_via_brackets")}, dense_reads


def test_one_route_to_the_ricci_part():
    # decompose and the flow's drift projection both scatter through the
    # Ricci table: the package neither imports nor calls the wedge product,
    # which only the tests read as its oracle; and d2 returns the one
    # Bianchi-checked container, so its former record class is named nowhere
    wedge_reads, evaluation = set(), set()
    for folder in (PACKAGE, ROOT / "tests", ROOT / "demos"):
        for path in sorted(folder.glob("*.py")):
            for stmt in _parse(path).body:
                where = (path.stem, getattr(stmt, "name", type(stmt).__name__))
                for node in ast.walk(stmt):
                    name = getattr(node, "attr", None) or getattr(node, "id", None)
                    if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
                        name = node.name
                    elif isinstance(node, ast.Constant) and folder == PACKAGE:
                        name = node.value
                    if name == "SymmetryEvaluation":
                        evaluation.add(where)
                    if folder == PACKAGE and name == "wedge_product" and (
                        isinstance(node, ast.alias)
                        or isinstance(getattr(node, "ctx", None), ast.Load)
                    ):
                        wedge_reads.add(where)
    assert not wedge_reads, f"the package takes wedge products: {sorted(wedge_reads)}"
    assert not evaluation, f"SymmetryEvaluation is back: {sorted(evaluation)}"


def test_preconditions_have_one_owner():
    # symmetric matrix, Bianchi identity and unit Weyl operator are checked
    # in curvature_core: no other module takes a Ricci trace or reads the
    # symmetry tolerance, and there only _symmetric reads it
    ricci_calls, tol_reads = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            where = (path.stem, getattr(stmt, "name", type(stmt).__name__))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    if "ricci" in (getattr(func, "attr", None), getattr(func, "id", None)):
                        ricci_calls.add(where)
                name = getattr(node, "attr", None) or getattr(node, "id", None)
                if isinstance(node, ast.alias):
                    name = node.name
                if name == "SYMMETRY_TOL" and not isinstance(
                    getattr(node, "ctx", None), ast.Store
                ):
                    tol_reads.add(where)
    assert {module for module, _ in ricci_calls} <= {"curvature_core"}, ricci_calls
    assert tol_reads == {("curvature_core", "_symmetric")}


def test_package_modules_use_what_they_import():
    # the package, its tests and its demos
    found = {}
    for folder in (PACKAGE, ROOT / "tests", ROOT / "demos"):
        for path in sorted(folder.glob("*.py")):
            unused = _unused_imports(_parse(path))
            if unused:
                found[str(path.relative_to(ROOT))] = unused
    assert not found, f"imported but never used: {found}"


def test_registry_rows_hold_their_dims_as_data():
    # each suite row carries a container of dimensions, read by `n in dims`;
    # a predicate would hide the range from run_suite's accepted set
    tree = _parse(PACKAGE / "suite.py")
    registry = next(
        stmt.value for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(getattr(t, "id", None) == "_REGISTRY" for t in stmt.targets)
    )
    lambdas = [
        node.lineno for node in ast.walk(registry) if isinstance(node, ast.Lambda)
    ]
    assert not lambdas, f"lambda in _REGISTRY at suite.py lines {lambdas}"


def _exception_names(node):
    """The dotted names an except clause or a raise statement names."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _exception_names(elt)]
    if isinstance(node, ast.Call):
        node = node.func
    return [ast.unparse(node)] if node is not None else ["<re-raise>"]


def test_one_error_class_with_one_handler():
    # every bad argument raises ArgumentError and every internal fault
    # RuntimeError; the command alone turns ArgumentError into a usage error,
    # in one place
    errors = _parse(PACKAGE / "errors.py")
    classes = [node.name for node in ast.walk(errors) if isinstance(node, ast.ClassDef)]
    assert classes == ["ArgumentError"]
    raised, handlers = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Raise):
                raised.update(_exception_names(node.exc))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "ArgumentError" in _exception_names(node.type):
                    handlers.append(f"{path.name}:{node.lineno}")
    assert raised <= {"ArgumentError", "RuntimeError", "click.UsageError"}, raised
    assert len(handlers) == 1 and handlers[0].startswith("cli.py:"), handlers
