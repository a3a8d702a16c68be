"""The package has no runtime dependencies beyond the standard library,
neither imports dataclasses nor runs exec or eval, its settings come in
as arguments, never from the environment, only the modules that own a
field's log tables read them, only linalg reduces a matrix to RREF, only
linalg and mds name the MDS verdict a matrix keeps, and a field binds
neg, sub and inv in one place."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_package_imports_only_stdlib_or_itself():
    sources = sorted((ROOT / "src" / "rctrs").glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_package_neither_imports_dataclasses_nor_generates_code():
    """Records are plain slotted classes (rctrs.codes._Record), so a cold
    run loads no dataclasses and compiles no generated source."""
    found = []
    for path in sorted((ROOT / "src" / "rctrs").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [node.func.id]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name in ("dataclasses", "exec", "eval")]
    assert found == []


def test_package_reads_no_environment_variable():
    sources = sorted((ROOT / "src" / "rctrs").glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
                if name in ("environ", "getenv"):
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_only_gf_and_mds_reach_into_the_log_domain_and_colex_table():
    """A field's log tables (_zech, _log, _exp) are read only in gf, which
    builds them, and in mds, whose scans set up their log domain in one
    place; the colex subset table is named only in mds, whose walks rely
    on its order."""
    owners = {"_zech": {"gf.py", "mds.py"}, "_log": {"gf.py", "mds.py"},
              "_exp": {"gf.py", "mds.py"}, "_colex_subsets": {"mds.py"}}
    sources = sorted((ROOT / "src" / "rctrs").glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # a name, an attribute, an import or definition, or a getattr string
            for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None),
                         node.value if isinstance(node, ast.Constant) else None):
                if name in owners and path.name not in owners[name]:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_only_linalg_reduces_a_matrix_fully_and_keeps_the_result():
    """A full reduction, _eliminate with full=True (or a third argument),
    is asked for only in linalg, whose _reduced keeps the RREF on the
    Matrix; the kept-RREF slot _rref is named only there too, so every
    other module reads the one reduction through _reduced."""
    sources = sorted((ROOT / "src" / "rctrs").glob("*.py"))
    found = []
    for path in sources:
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee == "_eliminate" and (len(node.args) > 2 or any(kw.arg == "full" for kw in node.keywords)):
                    found.append(f"{path.name}:{node.lineno}: full reduction")
            for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None),
                         node.value if isinstance(node, ast.Constant) else None):
                if name == "_rref":
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_only_linalg_and_mds_name_the_kept_mds_verdict():
    """The minor verdict kept on a Matrix, the slot _mds, is named only in
    linalg, which declares the slot, and in mds, whose mds_by_minors sets
    it and whose _verdict reads it; every other module reads it through
    _verdict, so no analysis takes a verdict from elsewhere."""
    naming = set()
    for path in sorted((ROOT / "src" / "rctrs").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None),
                         node.value if isinstance(node, ast.Constant) else None):
                if name == "_mds":
                    naming.add(path.name)
    assert naming == {"linalg.py", "mds.py"}


def test_neg_sub_and_inv_are_bound_once_for_every_field_shape():
    """Each field shape binds only add and mul; neg, sub and inv are each
    assigned once in the package, in Field._bind_ops, by one rule for all."""
    found = []
    for path in sorted((ROOT / "src" / "rctrs").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            for node in ast.walk(func):
                targets = node.targets if isinstance(node, ast.Assign) else []
                found += [f"{path.name}: {func.name}: {t.attr}" for t in targets
                          if isinstance(t, ast.Attribute) and t.attr in ("neg", "sub", "inv")]
    assert sorted(found) == [f"gf.py: _bind_ops: {name}" for name in ("inv", "neg", "sub")]


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines
