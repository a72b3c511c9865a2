"""Dead-symbol guard for the package, written on the standard library's ast:
every top-level import of a module is used in it, every private name
the package defines is referenced somewhere in the package, every public
function, class and method is referenced by the program (the package,
the scripts or the benchmark), `__all__` is exactly what `__init__`
imports, only the scalar module constructs a Scalar directly, only the
group module numbers group elements, grading groups have one (finite)
case, no product is built only to be
accumulated, only the commutation module takes powers of
commutation-factor values, the law checks enumerate no group, the
order up to which they run on the whole group is written only in the
group module, the algebra side does not import the Hopf module, only
scalars and group elements define arithmetic operators, and the Galois
and linear-algebra modules hold no module-level mutable state."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qgraded"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}
# the program outside the package that may call it
CALLERS = {path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
           for folder in ("scripts", "perfbench") for path in sorted((ROOT / folder).glob("*.py"))}
# public functions, classes and methods kept with no caller in the program
UNREFERENCED_PUBLIC_API: set[str] = set()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _references(tree):
    """(name, node) for every name a node reads: names, attributes, names
    imported from elsewhere and strings (getattr and friends)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node


def _definitions(tree):
    """(name, node) for every function and class, and every name assigned
    at module or class level."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for stmt in node.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign) else
                           [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield target.id, stmt


def test_every_top_level_import_is_used():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_name_is_referenced_outside_its_definition():
    refs = [ref for tree in TREES.values() for ref in _references(tree)]
    dead = []
    for name, tree in TREES.items():
        for symbol, node in _definitions(tree):
            if not _private(symbol):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(r == symbol and id(n) not in inside for r, n in refs):
                dead.append(f"{name}: {symbol}")
    assert dead == []


def test_every_public_definition_is_referenced_by_the_program():
    # a reference from tests or from __init__'s re-export does not count; a
    # string counts part by part, so "LinearMap.rank" references both names
    trees = {name: tree for name, tree in TREES.items() if name != "__init__.py"}
    refs = [(name, part, node) for name, tree in {**trees, **CALLERS}.items()
            for ref, node in _references(tree) for part in ref.split(".")]
    dead = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(r == node.name and (where != name or id(n) not in inside)
                       for where, r, n in refs):
                dead.append(f"{name}: {node.name}")
    assert sorted(set(dead) - UNREFERENCED_PUBLIC_API) == []


def test_all_is_exactly_the_names_init_imports():
    import qgraded
    imported = [alias.asname or alias.name for stmt in TREES["__init__.py"].body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names]
    assert len(qgraded.__all__) == len(set(qgraded.__all__))
    assert set(qgraded.__all__) == set(imported)
    namespace: dict = {}
    exec("from qgraded import *", namespace)  # raises on a name that does not resolve
    assert set(qgraded.__all__) <= set(namespace)


def test_scalars_are_constructed_only_in_the_scalar_module():
    # new values come from its one normaliser or its shared constants; the
    # rest of the package combines existing scalars through their operators
    outside = [f"{name}:{node.lineno}" for name, tree in TREES.items()
               if name != "scalars.py" for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "Scalar"]
    assert outside == []


def test_only_the_group_module_numbers_group_elements():
    # {g.coords: t for t, g in enumerate(...)} rebuilds the inverse of
    # `elements()`, which is GradingGroup.index
    numberings = [f"{name}:{node.lineno}" for name, tree in TREES.items()
                  if name != "groups.py" for node in ast.walk(tree)
                  if isinstance(node, ast.DictComp)
                  and isinstance(node.key, ast.Attribute) and node.key.attr == "coords"
                  and any(isinstance(gen.iter, ast.Call)
                          and isinstance(gen.iter.func, ast.Name)
                          and gen.iter.func.id == "enumerate"
                          for gen in node.generators)]
    assert numberings == []


def test_grading_groups_have_one_case():
    # every grading group is finite: only the group module and the
    # descriptor format read free_rank (always 0), and no module asks
    # is_finite, so no second group case creeps back in
    reads = [f"{name}:{node.lineno}: {ref}" for name, tree in TREES.items()
             for ref, node in _references(tree)
             if ref == "is_finite"
             or ref == "free_rank" and name not in ("groups.py", "descriptors.py")]
    assert reads == []


def _called(node, names) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names)


def test_no_product_is_built_only_to_be_accumulated():
    # vec_add_at(dst, key, a, b) adds a*b with one normalisation; passing it
    # a finished product (c * x, -(c * x), or mul(c, x) for a mul made by
    # product_memo()) normalises every entry twice
    def product(node, memos):
        while isinstance(node, ast.UnaryOp):
            node = node.operand
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                or _called(node, memos))

    built = []
    for name, tree in TREES.items():
        memos = {target.id for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and _called(node.value, {"product_memo"})
                 for target in node.targets if isinstance(target, ast.Name)}
        built += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if _called(node, {"vec_add_at"})
                  and any(product(arg, memos) for arg in
                          node.args[2:] + [kw.value for kw in node.keywords])]
    assert built == []


def test_only_the_commutation_module_takes_powers_of_factor_values():
    # b(g, h) = (-1)^(g sigma h) * q^(g omega h) is written once, in
    # commutation.py; a power of a value elsewhere is a second copy of it
    def factor_value(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("generator_value", "evaluate"))

    powers = [f"{name}:{node.lineno}" for name, tree in TREES.items()
              if name != "commutation.py" for node in ast.walk(tree)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and factor_value(node.left)]
    assert powers == []


def test_the_law_checks_take_their_elements_from_the_group_sample():
    # the Hopf and cqt checks run on GradingGroup.sample, the one rule
    # that picks law-check elements
    calls = [f"{name}:{node.lineno}" for name in ("group_hopf.py", "commutation.py")
             for node in ast.walk(TREES[name])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "elements"]
    assert calls == []


def test_the_algebra_side_does_not_import_the_hopf_module():
    # algebra elements are coordinate vectors; kG and its tensor powers
    # live in group_hopf.py, which the algebra and Galois code never need
    imports = [f"{name}:{node.lineno}" for name in ("algebras.py", "galois.py")
               for node in ast.walk(TREES[name])
               if isinstance(node, ast.ImportFrom) and (
                   (node.module or "").split(".")[-1] == "group_hopf"
                   or any(alias.name == "group_hopf" for alias in node.names))
               or isinstance(node, ast.Import)
               and any(alias.name.split(".")[-1] == "group_hopf" for alias in node.names)]
    assert imports == []


def test_the_whole_sample_bound_is_written_only_in_the_group_module():
    # GradingGroup.sample holds the one order (64) up to which the law
    # checks run on the whole group; a check reads the sample it got
    mentions = [f"{path.name}:{n}" for path in sorted(PACKAGE.glob("*.py"))
                if path.name != "groups.py"
                for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                if re.search(r"\border\b\D{0,12}\b64\b", line)]
    assert mentions == []


def test_only_scalars_and_group_elements_define_arithmetic_operators():
    # vectors and tensors are coordinate dicts combined by vec_add_at; an
    # operator on a container type is a second copy of that accumulation
    dunders = {"__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
               "__truediv__", "__pow__"}
    defined = [f"{name}:{node.lineno}: {node.name}" for name, tree in TREES.items()
               if name not in ("scalars.py", "groups.py") for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in dunders]
    assert defined == []


def test_the_galois_and_linear_algebra_modules_keep_no_state_between_calls():
    # an elimination or product cache lives on a chain or in one call, so
    # nothing outlives a beta_n or is_galois call: no dict, list or set bound
    # at module scope, no global statement and no functools cache
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    builders = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}

    def mutable(node):
        return isinstance(node, containers) or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in builders)

    state = []
    for name in ("galois.py", "linalg.py"):
        tree = TREES[name]
        state += [f"{name}:{stmt.lineno}" for stmt in tree.body
                  if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                  and stmt.value is not None and mutable(stmt.value)]
        state += [f"{name}:{node.lineno}: global" for node in ast.walk(tree)
                  if isinstance(node, ast.Global)]
        state += [f"{name}:{node.lineno}: {ref}" for ref, node in _references(tree)
                  if ref in ("functools", "lru_cache", "cache")]
    assert state == []
