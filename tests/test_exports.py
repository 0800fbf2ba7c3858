import ast
import importlib
import pkgutil
from pathlib import Path

import rcalab


def test_every_export_resolves():
    for info in pkgutil.iter_modules(rcalab.__path__):
        module = importlib.import_module(f"rcalab.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_no_package_attribute_shadows_a_submodule():
    import rcalab.entropy as module  # the import binds the package attribute

    assert hasattr(module, "MEMORY_CAP")
    for info in pkgutil.iter_modules(rcalab.__path__):
        assert getattr(rcalab, info.name) is importlib.import_module(f"rcalab.{info.name}"), info.name


# Exports that nothing in src/rcalab or perfbench/ uses, each kept for a
# reason; every other export must have a caller or go.
UNCALLED_EXPORTS = {
    "montecarlo.sample_trajectory": "test oracle: whole-torus trajectories by apply_table and apply_noise, apart from the Monte Carlo block-step",
    "circuits.evolve_chain_exact": "the one-initial chain path that circuit-mix will use for affine networks",
    "bounds.proof_rate_constants": "the proof's rate constants, for the sup-over-initials gate and the sharp contraction",
    "circuits.alternating_cnot_network": "the acceptance suite's reference brick-wall network",
}


def _referenced(path: Path, strings: bool) -> set:
    """Names a file uses (Name ids and attribute names; string constants too
    if strings, as perfbench/tracer.py patches by attribute name).  Import
    statements bind names without using them, and a function or class
    naming itself in its own body (a recursive call) does not use itself,
    so neither counts."""
    found = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        used = None
        if isinstance(node, ast.Name):
            used = node.id
        elif isinstance(node, ast.Attribute):
            used = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used = node.value
        if used is not None and used not in own:
            found.add(used)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_every_export_has_a_caller_or_a_reason():
    src = Path(rcalab.__file__).resolve().parent
    used = set()
    for path in src.glob("*.py"):
        if path.name != "__init__.py":
            used |= _referenced(path, strings=False)
    for path in (Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"):
        used |= _referenced(path, strings=True)
    uncalled = {
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(rcalab.__path__)
        for name in getattr(importlib.import_module(f"rcalab.{info.name}"), "__all__", ())
        if name not in used
    }
    # a new export without a caller, or an allowlisted one that now has one
    assert uncalled == set(UNCALLED_EXPORTS)


def _cap_raisers(path: Path) -> list:
    """The innermost function (module.name) around each raise of
    CapExceededError in a file, the module for one outside any function."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{path.stem}.{node.name}"
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "CapExceededError":
                found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_only_check_bytes_raises_cap_exceeded():
    # one limit: every engine refuses through the byte budget, none through a
    # count of its own
    src = Path(rcalab.__file__).resolve().parent
    assert [owner for path in sorted(src.glob("*.py")) for owner in _cap_raisers(path)] == ["entropy.check_bytes"]
