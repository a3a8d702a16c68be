"""The package's public names: one table, each name listed once and used."""

import ast
from collections import Counter
from pathlib import Path
from types import ModuleType

import rctrs


def test_all_lists_every_public_name_that_is_not_a_module():
    # The names resolve on first access, so resolve them all first.
    assert all(hasattr(rctrs, name) for name in rctrs.__all__)
    public = {
        name for name, value in vars(rctrs).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(rctrs.__all__) == sorted(public)
    star = {}
    exec("from rctrs import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(rctrs.__all__)
    assert len(star) == 73
    assert {"gf", "mds", "golden", *rctrs.__all__} <= set(dir(rctrs))


# Definitions that nothing else in src/rctrs names, and why each stays.
KEPT = {
    "num_columns": "public API: the length of the code a spec describes; read by perfbench",
    "encode": "public API: a message times the generator matrix",
    "corollary_witness_codes": "public API: one witness code per corollary length",
    "element": "public API: the FieldElement view of an index or coefficient vector",
    "elements": "public API: every element of a field, as FieldElements",
    "det": "public API; read by perfbench",
    "rref": "public API; read by perfbench",
    "null_space": "public API: the right kernel of a matrix",
    "colex_subsets": "public API: the order of the minor scan; read by perfbench",
    "schur_vec": "public API: the componentwise product of two vectors",
    "matrix": "read by perfbench/probes.py as generator_matrix(spec).matrix; deleted with the benchmark PR",
    "twist_space_basis": "public API: the basis of V(k, t, h, eta); generator_matrix's test oracle",
}


def _names(node: ast.AST, attributes_only: bool = False) -> Counter:
    """How often each identifier is named under node: attribute names, and
    unless attributes_only, loaded or stored names and imported names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def test_every_definition_in_src_is_used_in_src_or_kept():
    """src/rctrs holds what the library runs: each non-dunder function,
    class and method is named in src/rctrs outside its own definition, or is
    on KEPT.  A method or property counts as named only as an attribute
    (x.name), so a local variable of the same name does not keep it alive.
    __init__.py's re-exports do not count."""
    src = Path(__file__).resolve().parent.parent / "src" / "rctrs"
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    named = sum((_names(tree) for tree in trees), Counter())
    attributes = sum((_names(tree, attributes_only=True) for tree in trees), Counter())
    unused = set()
    for tree in trees:
        for node in tree.body:
            defs = [(node, False)]
            if isinstance(node, ast.ClassDef):
                defs += [(d, True) for d in node.body]
            for d, method in defs:
                if not isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    continue
                if d.name.startswith("__") and d.name.endswith("__"):
                    continue
                counts = attributes if method else named
                if counts[d.name] == _names(d, method)[d.name]:
                    unused.add(d.name)
    assert unused == set(KEPT)
