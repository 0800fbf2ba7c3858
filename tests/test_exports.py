import importlib
import pkgutil

import rcalab


def test_every_export_resolves():
    for info in pkgutil.iter_modules(rcalab.__path__):
        module = importlib.import_module(f"rcalab.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
