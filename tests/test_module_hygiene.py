"""Static checks over the package source with the stdlib ``ast`` module.

The package's public surface is the one ``__all__`` in ``kmarkets/__init__.py``;
a second export list in a submodule drifts from it.  A module imports only
what it uses, so an import never stands in for a re-export; ``__init__.py``
imports names precisely to re-export them and is exempt.  Every spec is a
``DistributionSpec``, whose class holds the only defaults of the family
facts, so no module reads a fact through ``getattr`` with a fallback, and
no module outside ``families.py`` asks ``isinstance`` which family a spec is.
"""

import ast
from pathlib import Path

import pytest

from kmarkets import families

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kmarkets"
MODULES = sorted(PACKAGE.glob("*.py"))
SUBMODULES = [path for path in MODULES if path.name != "__init__.py"]
FAMILY_FACTS = {"x_independent", "y_knots", "uniform_given", "law_key"}
FAMILY_CLASSES = {
    name
    for name, obj in vars(families).items()
    if isinstance(obj, type) and issubclass(obj, families.DistributionSpec) and obj is not families.DistributionSpec
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _assigns_all(tree):
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return True
    return False


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_the_package_is_found():
    assert (PACKAGE / "__init__.py") in MODULES and SUBMODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_package_init_assigns_all(path):
    assert _assigns_all(_tree(path)) == (path.name == "__init__.py")


@pytest.mark.parametrize("path", SUBMODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports but never uses {unused}"


def _getattr_facts(path):
    for node in ast.walk(_tree(path)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in FAMILY_FACTS
        ):
            yield f"{path.name}:{node.lineno} {node.args[1].value}"


def test_no_family_fact_is_read_through_getattr():
    found = [hit for path in MODULES for hit in _getattr_facts(path)]
    assert not found, f"family facts read through getattr: {found}"


def _family_isinstance(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            classes = node.args[1:2]
            if classes and isinstance(classes[0], ast.Tuple):
                classes = classes[0].elts
            for cls in classes:
                name = cls.attr if isinstance(cls, ast.Attribute) else getattr(cls, "id", None)
                if name in FAMILY_CLASSES:
                    yield f"{path.name}:{node.lineno} {name}"


def test_no_module_outside_families_branches_on_a_family_class():
    assert {"UniformJoint", "Packing", "PerturbedConditional"} <= FAMILY_CLASSES
    found = [hit for path in MODULES if path.name != "families.py" for hit in _family_isinstance(path)]
    assert not found, f"isinstance against a family class: {found}"
