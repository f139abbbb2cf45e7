"""Rules on the package source that no other test can see."""

from __future__ import annotations

import ast
from pathlib import Path

import wittkit

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



def _functions_and_references() -> tuple[set[str], set[str], set[str]]:
    """Module-level function names, the names the package refers to (a
    reference from inside a function's own body does not count for it),
    and the names listed in some ``__all__``."""
    functions: set[str] = set()
    referenced: set[str] = set()
    exported: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            if own is not None:
                functions.add(own)
            if isinstance(top, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets
            ):
                exported.update(node.value for node in ast.walk(top.value) if isinstance(node, ast.Constant))
            for node in ast.walk(top):
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
    return functions, referenced, exported


def test_every_private_helper_is_referenced():
    # a private module-level function that nothing else in the package names
    # is dead code
    functions, referenced, _ = _functions_and_references()
    helpers = {f for f in functions if f.startswith("_") and not f.startswith("__")}
    assert sorted(helpers - referenced) == []


def test_every_public_function_is_exported_or_referenced():
    # a public module-level function is either part of the API, listed in
    # some __all__, or used elsewhere in the package; else it is an orphan
    functions, referenced, exported = _functions_and_references()
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
        ("rings.py", None): {"_add", "_neg", "_mul", "_is_zero"},
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


def test_congruence_steps_build_no_fraction():
    # the congruence grids are integers over one denominator; a Fraction
    # built or a denominator read in these steps would bring back the
    # per-coefficient arithmetic they replaced
    body = ast.parse((SRC / "forms.py").read_text()).body
    congruence = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == "_Congruence")
    steps = [n for n in congruence.body if isinstance(n, ast.FunctionDef)]
    steps += [n for n in body if isinstance(n, ast.FunctionDef) and n.name in ("_diag_field", "_diag_dyadic")]
    assert {"pivot", "scale", "apply", "_diag_field", "_diag_dyadic"} <= {fn.name for fn in steps}
    found = [
        f"{fn.name}:{node.lineno}"
        for fn in steps
        for node in ast.walk(fn)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "denominator")
    ]
    assert found == []


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
