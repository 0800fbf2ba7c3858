import importlib
import pkgutil

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
