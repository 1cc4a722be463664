"""The split between the solver and the paper's dense references in ``ionjc.reference``."""

import ast
from pathlib import Path

import ionjc

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ionjc"
MOVED = {
    "ladder", "spin_op", "displacement", "dagger_factors", "expm_unitary", "guarded_norm",
    "standard_rwa_generator", "_require_single_drive", "linearized_hamiltonian", "mixed_hamiltonian",
    "jc_interaction",
    "linearizing_transform", "mixing_rotation", "conditional_displacement", "_UNITS", "_ion_product",
    "balanced_transform_closed",
}
EXPORTED = {"ladder", "spin_op", "displacement", "expm_unitary", "standard_rwa_generator", "jc_interaction",
            "linearizing_transform", "mixing_rotation", "conditional_displacement", "balanced_transform_closed"}


def _module_names(tree, imports=True):
    """Names bound at module level: functions, classes, assignments and, with imports=True, imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _imports_reference(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "ionjc.reference" or a.name.startswith("ionjc.reference.") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in (".reference", "ionjc.reference"):
                return True
            if module in (".", "ionjc") and any(a.name == "reference" for a in node.names):
                return True
    return False


def test_no_solver_module_imports_the_references():
    solver = sorted(p for p in PACKAGE.glob("*.py") if p.name not in ("__init__.py", "reference.py"))
    assert {p.stem for p in solver} >= {"fock", "hamiltonians", "transforms", "propagators", "experiments", "cli"}
    reference = ast.parse((PACKAGE / "reference.py").read_text(encoding="utf-8"))
    assert MOVED <= _module_names(reference, imports=False)
    for path in solver:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not _imports_reference(tree), f"{path.name} imports ionjc.reference"
        assert not MOVED & _module_names(tree), f"{path.name} binds {sorted(MOVED & _module_names(tree))}"


def test_package_still_exports_the_moved_builders():
    from ionjc import reference

    for name in EXPORTED:
        assert getattr(ionjc, name) is getattr(reference, name)
