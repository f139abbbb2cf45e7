"""Rules on the package source, and on the test oracle, that no other test can see."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import wittkit
from wittkit import forms, matrices

SRC = Path(wittkit.__file__).resolve().parent


def _is_type_narrowing(node: ast.Assert) -> bool:
    """``assert x is not None`` (or an ``and`` of such tests), without a
    message: all it does is tell a type checker what the code knows."""

    def not_none(test: ast.expr) -> bool:
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return all(not_none(v) for v in test.values)
        return (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        )

    return node.msg is None and not_none(node.test)


def test_no_check_is_stripped_by_python_O():
    # python -O compiles asserts away; a check that must run raises instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert) and not _is_type_narrowing(node)
    ]
    assert found == []



def _functions_and_references() -> tuple[set[str], set[str], set[str], set[str]]:
    """Module-level function names, the method names of package classes
    whose bases all come from the package, the names the package refers to
    (a reference from inside a function's or a method's own body does not
    count for it), and the names listed in some ``__all__``."""
    functions: set[str] = set()
    methods: set[str] = set()
    referenced: set[str] = set()
    exported: set[str] = set()
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    classes = {top.name for tree in trees for top in tree.body if isinstance(top, ast.ClassDef)}
    for tree in trees:
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                # a method of a class with an outside base may be a hook
                # that base calls, such as an argparse formatter
                if all(isinstance(b, ast.Name) and b.id in classes for b in top.bases):
                    methods.update(n.name for n in top.body if isinstance(n, ast.FunctionDef))
                parts = [(None, n) for n in (*top.bases, *top.keywords, *top.decorator_list)]
                parts += [(n.name if isinstance(n, ast.FunctionDef) else None, n) for n in top.body]
            else:
                parts = [(top.name if isinstance(top, ast.FunctionDef) else None, top)]
            if isinstance(top, ast.FunctionDef):
                functions.add(top.name)
            if isinstance(top, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets
            ):
                exported.update(node.value for node in ast.walk(top.value) if isinstance(node, ast.Constant))
            for own, part in parts:
                for node in ast.walk(part):
                    if isinstance(node, ast.Name):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                    elif isinstance(node, ast.alias):
                        name = node.name
                    else:
                        continue
                    if name != own:
                        referenced.add(name)
    return functions, methods, referenced, exported


def _private(names: set[str]) -> set[str]:
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_helper_is_referenced():
    # a private module-level function, or a private method of a package
    # class, that nothing else in the package names is dead code
    functions, methods, referenced, _ = _functions_and_references()
    assert sorted(_private(functions) - referenced) == []
    assert sorted(_private(methods) - referenced) == []


def test_every_public_function_is_exported_or_referenced():
    # a public module-level function is either part of the API, listed in
    # some __all__, or used elsewhere in the package; else it is an orphan
    functions, _, referenced, exported = _functions_and_references()
    public = {f for f in functions if not f.startswith("_")}
    assert sorted(public - referenced - exported) == []


def _compares_kind(fn: ast.FunctionDef) -> bool:
    return any(
        isinstance(node, ast.Compare)
        and any(
            isinstance(side, ast.Attribute) and side.attr == "kind"
            for side in (node.left, *node.comparators)
        )
        for node in ast.walk(fn)
    )


def test_entrywise_arithmetic_binds_the_ring_ops():
    # the ring kind is dispatched once, when RingSpec builds its ops; the
    # per-entry paths call the bound ops and never compare spec.kind
    checked = {
        ("rings.py", "RingElem"): {"__add__", "__neg__", "__mul__", "is_zero"},
        ("matrices.py", "InvMatrix"): {
            "__add__", "__sub__", "_combine", "__neg__", "scale", "is_zero", "trace", "conj_transpose",
        },
        ("forms.py", "GramForm"): {"is_diagonal", "bilinear"},
    }
    found: dict[str, bool] = {}
    for (module, cls), names in checked.items():
        body = ast.parse((SRC / module).read_text()).body
        if cls is not None:
            body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == cls).body
        for fn in body:
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                found[f"{module}:{fn.name}"] = _compares_kind(fn)
    assert len(found) == 14
    assert [name for name, bad in found.items() if bad] == []


def _functions(module: str, names: tuple[str, ...]) -> list[ast.FunctionDef]:
    body = ast.parse((SRC / module).read_text()).body
    return [n for n in body if isinstance(n, ast.FunctionDef) and n.name in names]


def test_congruence_steps_build_no_fraction():
    # the congruence grids are integers over one denominator; a Fraction
    # built or a denominator read in these steps, or in the kernel that
    # checks their certificates, would bring back the per-coefficient
    # arithmetic they replaced
    body = ast.parse((SRC / "forms.py").read_text()).body
    congruence = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == "_Congruence")
    steps = [n for n in congruence.body if isinstance(n, ast.FunctionDef)]
    steps += _functions("forms.py", ("_diagonal",)) + _functions("matrices.py", ("_congruent_to",))
    assert {"pivot", "scale", "apply", "_diagonal", "_congruent_to"} <= {fn.name for fn in steps}
    found = [
        f"{fn.name}:{node.lineno}"
        for fn in steps
        for node in ast.walk(fn)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "denominator")
    ]
    assert found == []


def test_slice_checks_of_the_lifting_identities_take_no_product():
    # every certificate of forms and of the lifting layer is decided on the
    # integer slices by one kernel; beyond taking X G once
    # (_slice_products), a Fraction built, a denominator read, or an
    # InvMatrix reached (and with it a product, a transpose object or a gcd
    # pass) would bring back the cost it replaced
    checks = _functions("matrices.py", ("_congruent_to", "_is_symmetric"))
    assert len(checks) == 2
    names = ("Fraction", "InvMatrix", "matmul_int", "_canonical", "_reduced", "gcd")
    found = [
        f"{fn.name}:{node.lineno}"
        for fn in checks
        for node in ast.walk(fn)
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in ("denominator", "_slice_form", "cells"))
        or (isinstance(node, ast.arg) and node.annotation and "InvMatrix" in ast.unparse(node.annotation))
    ]
    assert found == []
    products = [fn.name for fn in checks for node in ast.walk(fn)
                if isinstance(node, ast.Name) and node.id == "_slice_products"]
    assert products == ["_congruent_to"]


def test_forms_and_lifting_define_no_congruence_test_of_their_own():
    # the symmetry and congruence tests live in matrices once
    # (_is_symmetric, _congruent_to); a second copy in forms or lifting,
    # or a grid compared with its own transpose there, could drift from it
    found = []
    for module in ("forms.py", "lifting.py"):
        for node in ast.walk(ast.parse((SRC / module).read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                word in node.name for word in ("symmetr", "congruen", "intertwin", "gram", "adjoint")
            ):
                found.append(f"{module}:{node.name}")
            elif isinstance(node, ast.Name) and node.id == "eq":  # map(eq, zip(*g), rows)
                found.append(f"{module}:{node.lineno}")
            elif isinstance(node, ast.Compare) and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "zip"
                and any(isinstance(arg, ast.Starred) for arg in n.args)
                for side in (node.left, *node.comparators)
                for n in ast.walk(side)
            ):
                found.append(f"{module}:{node.lineno}")
    assert found == []
    assert forms._congruent_to is matrices._congruent_to


def test_the_witt_oracle_imports_only_the_standard_library():
    # witt_oracle checks the answers of forms on plain lists; an import
    # from wittkit (forms, matrices and intlinalg above all), or from a test
    # module that imports it, would let one bug reach both sides unseen
    path = Path(__file__).with_name("witt_oracle.py")
    modules = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert "math" in modules
    assert [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names] == []


def test_every_unbounded_search_names_the_budget():
    # a vector search whose bound is not a literal counts its vectors
    # against _SEARCH_BUDGET, so no input runs it without bound
    searches = ("_signed_vectors", "_height_shell")
    found, exempt = [], []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in searches:
                    where = f"{path.name}:{fn.name}:{node.lineno}"
                    if isinstance(node.args[1], ast.Constant):
                        exempt.append(where)
                    elif "_SEARCH_BUDGET" not in names:
                        found.append(where)
    assert [w.rsplit(":", 1)[0] for w in exempt] == ["forms.py:_dyadic_block_pivot"]
    assert found == []


def test_only_from_presentation_takes_a_smith_form():
    # hermite_form is the echelon algorithm; a Smith form is taken only
    # where its invariant factors are read, and no code reads its
    # transforms.  Any use of the name in code counts, a call or the
    # function passed on.
    found = []

    def visit(node: ast.AST, path: str, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path, f"{owner}.{child.name}" if owner else child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == "smith_normal_form") or (
                isinstance(child, ast.Attribute) and child.attr == "smith_normal_form"
            ):
                found.append(f"{path}:{owner}")
            visit(child, path, owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, "")
    assert sorted(set(found)) == ["stabilization:FgAbGroup.from_presentation"]
