"""The oracles stay independent of the code they check.

Read from the source with `ast`, so no test run has to reach a forbidden
path for the check to see it: the class-group oracle and the GF(2) layer
import no package module but `arith`, and the 2-descent oracle reaches only
`arith`, `Gf2Matrix` and the local-coordinate helpers of `selmer`, never the
condition matrices it is compared with.  The Hilbert-symbol condition kernel
reaches no condition matrix, residue table or GF(2) matrix either.
"""

import ast
from pathlib import Path

import pytest

import amoments

SRC = Path(amoments.__file__).resolve().parent

# the module-level names of selmer.py that the descent oracle may reach
ORACLE_HELPERS = {
    "CurveData",
    "ORACLE_BOUND",
    "_CurveFields",
    "_PADIC_IMAGES",
    "_coords_dim",
    "_gf2_insert",
    "_local_image",
    "_pack",
    "_pair_coords",
    "_torsion_pairs",
    "descent_selmer_oracle",
}
ORACLE_ROOTS = ("_local_image", "descent_selmer_oracle")
# what the condition-kernel oracle is compared with: the condition matrices
KERNEL_FORBIDDEN = {
    "_selmer_bits", "_kernel_size", "residue_bits", "twist_diagonal", "twist_kernel_sizes", "Gf2Matrix",
}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _package_imports(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Local name -> (package module, imported attribute or None for the
    module itself), for every import of an `amoments` module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.level == 0 and (node.module or "").startswith("amoments"):
                module = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                names[local] = (alias.name, None) if module is None else (module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("amoments."):
                    names[alias.asname or alias.name] = (alias.name.partition(".")[2], None)
    return names


def _reached(tree: ast.Module, roots) -> set[str]:
    """Module-level names (definitions, assignments, imports) used by the
    roots, following the module's own functions and classes transitively."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    known = defs.keys() | _package_imports(tree).keys()
    used: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in used:
            continue
        used.add(name)
        if name in defs:
            todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name) and n.id in known]
    return used


@pytest.mark.parametrize("module", ["quadforms", "gf2"])
def test_module_imports_only_arith(module):
    imported = {mod for mod, _ in _package_imports(_tree(module)).values()}
    assert imported <= {"arith"}, (module, imported)


def test_descent_oracle_reaches_only_arith_gf2matrix_and_local_helpers():
    tree = _tree("selmer")
    imports = _package_imports(tree)
    outside = set()
    for name in _reached(tree, ORACLE_ROOTS):
        if name in imports:
            module, attr = imports[name]
            if module != "arith" and (module, attr) != ("gf2", "Gf2Matrix"):
                outside.add(f"{module}.{attr}" if attr else module)
        elif name not in ORACLE_HELPERS:
            outside.add(f"selmer.{name}")
    assert not outside, sorted(outside)


def test_condition_kernel_reaches_no_condition_matrix():
    reached = _reached(_tree("selmer"), ("selmer_condition_kernel",))
    assert "hilbert_symbol" in reached
    assert not reached & KERNEL_FORBIDDEN, sorted(reached & KERNEL_FORBIDDEN)
