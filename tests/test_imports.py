"""The package runs on the standard library alone: every module imports
only `cmsweep` and stdlib names, and the distribution declares no
runtime dependency.  Importing it generates no code and loads no
dataclasses, typing or traceback.  The storage of field elements is
known to `fields` alone, `quatrep` builds its matrices from their
nonzeros and its End(V) dimension from the commutant rows, every case
matrix of `torus` is a SignedPerm, the case-record keys are spelled in
`cmsweep.record` alone, `periods` computes on plain exponent pairs, and
each module declares its `assert` statements."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "cmsweep").rglob("*.py"))


def _top_level_imports(path):
    """Top-level names of every import in the module, function-level
    imports included; relative imports count as `cmsweep`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("cmsweep" if node.level else node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_and_cmsweep(path):
    stray = {n for n in _top_level_imports(path)
             if n != "cmsweep" and n not in sys.stdlib_module_names}
    assert not stray


def _module_level_imports(path):
    """Top-level names of the imports that run when the module is
    imported: those in function bodies do not count."""
    names, todo = set(), list(ast.parse(path.read_text(), str(path)).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
        todo.extend(ast.iter_child_nodes(node))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_records_are_plain_classes(path):
    """No module imports dataclasses or typing, and traceback only inside
    a function: the error path alone pays for it."""
    assert not _top_level_imports(path) & {"dataclasses", "typing"}
    assert "traceback" not in _module_level_imports(path)


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_import_loads_no_code_generation_modules(flags):
    """Importing cli and the nine layers adds none of dataclasses, inspect,
    typing and traceback to sys.modules.  The snapshot is taken after
    start-up, so a module that a site hook loaded does not count."""
    layers = [p.stem for p in MODULES if p.stem != "__init__"]
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            f"for name in {layers!r}:\n"
            "    __import__('cmsweep.' + name)\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    added = set(json.loads(run.stdout))
    assert "cmsweep.cli" in added and "cmsweep.torus" in added
    assert not added & {"dataclasses", "inspect", "typing", "traceback"}


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert meta["project"]["dependencies"] == []


@pytest.mark.parametrize("name", ["intlat", "liereps"])
def test_integer_modules_use_no_field_elements(name):
    """Lattices and weight modules stay on ints and Fractions: the two
    modules name none of the field-element types."""
    tree = ast.parse((ROOT / "src" / "cmsweep" / f"{name}.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert not used & {"QQ", "ExactMatrix", "FieldElement", "MultiQuadField"}


def test_liereps_computes_in_ints():
    """The modules, bases and Weyl dimensions of liereps are built from
    ints: it imports no fractions and names no Fraction."""
    path = ROOT / "src" / "cmsweep" / "liereps.py"
    names = {node.id for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Name)}
    assert "fractions" not in _top_level_imports(path)
    assert "Fraction" not in names


def test_every_package_data_glob_matches_a_file():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    package = ROOT / "src" / "cmsweep"
    for pattern in meta["tool"]["setuptools"]["package-data"]["cmsweep"]:
        assert any(package.glob(pattern)), pattern


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fields.py"],
                         ids=lambda p: p.name)
def test_only_fields_reads_the_element_storage(path):
    """The numerators and denominator of a field element are read in
    `fields` alone; the other modules use `coords`, `as_fraction` and
    `as_rational`."""
    read = {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    assert not read & {"nums", "den"}


def test_quatrep_builds_no_matrix_from_dense_rows():
    """Every anti-Weil and positivity matrix is built from its nonzeros:
    quatrep and positivity call ExactMatrix(...) nowhere, only
    ExactMatrix.from_rows and the products and views of matrices they
    already have, and read no dense .entries view."""
    for name in ("quatrep", "positivity"):
        path = ROOT / "src" / "cmsweep" / f"{name}.py"
        tree = ast.parse(path.read_text())
        calls = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id == "ExactMatrix"]
        dense = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and node.attr == "entries"]
        assert (name, calls, dense) == (name, [], [])


def test_matrix_product_is_one_combination():
    """ExactMatrix.__mul__ is a combination term, for a vector too (as a
    one-column matrix): it calls ExactMatrix.combination and runs no
    sum_of_products of its own."""
    tree = ast.parse((ROOT / "src" / "cmsweep" / "fields.py").read_text())
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
              and node.name == "ExactMatrix"]
    (mul,) = [node for node in cls.body if isinstance(node, ast.FunctionDef)
              and node.name == "__mul__"]
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(mul) if isinstance(node, ast.Call)}
    assert "combination" in called
    assert "sum_of_products" not in called


def test_antiweil_invariants_use_the_commutant_rows():
    """The End(V) dimension is a rank of liereps.commutant_rows: quatrep
    imports no module construction it would need a kernel of V ⊗ V* for,
    and liereps keeps no dual module."""
    tree = ast.parse((ROOT / "src" / "cmsweep" / "quatrep.py").read_text())
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "commutant_rows" in imported
    assert not imported & {"dual_module", "tensor_module", "invariant_space",
                           "rational_kernel"}
    liereps = ast.parse((ROOT / "src" / "cmsweep" / "liereps.py").read_text())
    assert "dual_module" not in {node.name for node in ast.walk(liereps)
                                 if isinstance(node, ast.FunctionDef)}


def test_torus_keeps_each_case_matrix_as_a_signed_perm():
    """torus has no dense matrix form: no mat_apply, no SignedPerm.rows, no
    ExactMatrix.from_int, and SignedPerm.from_rows only where the case
    table parses its literals, at module level, and where
    _rational_restriction reads its int restriction as a signed
    permutation."""
    tree = ast.parse((ROOT / "src" / "cmsweep" / "torus.py").read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    (signed_perm,) = [node for node in tree.body
                      if isinstance(node, ast.ClassDef)
                      and node.name == "SignedPerm"]
    members = {node.name for node in signed_perm.body
               if isinstance(node, ast.FunctionDef)}

    def calls(nodes, owner, attr):
        return [node.lineno for root in nodes for node in ast.walk(root)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == owner]

    nested = [node for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert "mat_apply" not in defined
    assert "rows" not in members and "nonzero" in members
    assert calls([tree], "ExactMatrix", "from_int") == []
    assert [node.name for node in nested
            if calls([node], "SignedPerm", "from_rows")] \
        == ["_rational_restriction"]
    assert calls([tree], "SignedPerm", "from_rows")


def test_torus_eliminates_only_in_rational_intersection():
    """Every eigenvector of a signed permutation is walked off its cycles
    by torus._eigenvectors: torus imports no cleared_rows, defines no
    _shifted or _eigenplane, and calls rational_kernel and .kernel() only
    in rational_intersection, the descent of a span over a field to Q."""
    tree = ast.parse((ROOT / "src" / "cmsweep" / "torus.py").read_text())
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert "cleared_rows" not in imported
    assert not defined & {"_shifted", "_eigenplane"}
    assert "_eigenvectors" in defined
    callers = {}
    for func in tree.body:
        if not isinstance(func, (ast.FunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                if name in ("rational_kernel", "kernel"):
                    callers.setdefault(name, set()).add(func.name)
    assert callers == {"rational_kernel": {"rational_intersection"},
                       "kernel": {"rational_intersection"}}


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_only_record_spells_the_record_keys(path):
    """Every case record is built by cmsweep.record: no other module has a
    dict literal keyed "case_id" or "certificate"."""
    keys = {key.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Dict) for key in node.keys
            if isinstance(key, ast.Constant)}
    assert not keys & {"case_id", "certificate"}


def test_periods_computes_on_exponent_pairs():
    """A period monomial is its exponent pair: periods imports no
    fractions and defines no class."""
    path = ROOT / "src" / "cmsweep" / "periods.py"
    tree = ast.parse(path.read_text())
    assert "fractions" not in _top_level_imports(path)
    assert not any(isinstance(node, ast.ClassDef) for node in ast.walk(tree))


# assert statements each module may hold; the rest raise ValueError
ASSERTS = {"cmfields.py": 1, "intlat.py": 1, "liereps.py": 0,
           "periods.py": 0, "positivity.py": 0, "torus.py": 5}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_asserts_are_declared(path):
    """A new assert must be added to ASSERTS, and one removed taken off."""
    tree = ast.parse(path.read_text())
    found = sum(isinstance(node, ast.Assert) for node in ast.walk(tree))
    assert found == ASSERTS.get(path.name, 0)


# what the cached table facts of quatrep read: a patch of one of these, or
# of a fact itself, must go through the weight_table fixture of conftest
TABLE_NAMES = {"WEIGHT_MATRICES", "GRAM_PATTERN", "SPLIT_PATTERN",
               "UNIT_TABLE"}


def _patches_table(node, guarded) -> bool:
    """Whether node clears a cache, names a guarded attribute in a
    setattr/delattr/patch call (as a string, dotted or not), or assigns
    to a target that reaches a guarded name."""
    if isinstance(node, ast.Call):
        called = getattr(node.func, "attr", getattr(node.func, "id", None))
        return called == "cache_clear" or (
            called in ("setattr", "delattr", "patch") and any(
                isinstance(a, ast.Constant) and isinstance(a.value, str)
                and a.value.rsplit(".", 1)[-1] in guarded
                for a in node.args))
    targets = (node.targets if isinstance(node, ast.Assign) else
               [node.target] if isinstance(node, (ast.AugAssign,
                                                  ast.AnnAssign)) else [])
    return any(getattr(sub, "attr", getattr(sub, "id", None)) in guarded
               for t in targets for sub in ast.walk(t))


def test_table_patches_go_through_the_fixture():
    """No test code sets a table that quatrep's cached facts read, patches
    or clears a cached fact, except in a test that requests the
    weight_table fixture, which clears every fact around the test, and in
    that fixture itself.  Module-level code never may.  Code run in a
    process of its own, as the source string of
    test_flipped_weight_sign_fails_under_optimize_flag that flips
    WEIGHT_MATRICES in place, is not parsed here: its caches die with it."""
    from cmsweep import quatrep
    facts = {name for name, f in vars(quatrep).items()
             if hasattr(f, "cache_clear")}
    assert {"weight_table_relations", "weight_table_counts",
            "_keeps_gram_pattern"} <= facts
    fixture = {("conftest.py", "weight_table"),
               ("conftest.py", "_clear_table_facts")}
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            if isinstance(top, ast.FunctionDef) and (
                    (path.name, top.name) in fixture
                    or "weight_table" in {a.arg for a in top.args.args}):
                continue
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                      if _patches_table(node, TABLE_NAMES | facts)]
    assert not found


def test_quatrep_keeps_no_module_cache_dict():
    """quatrep caches its table facts with functools.cache: no module
    name is bound to a dict literal that a function would fill."""
    tree = ast.parse((ROOT / "src" / "cmsweep" / "quatrep.py").read_text())
    assert not [node.lineno for node in tree.body
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Dict) and not node.value.keys]
