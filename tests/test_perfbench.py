"""perfbench's tracer names the program's functions from outside the
package; a name that no longer resolves would make its metric read 0."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # as perfbench/run.py imports it
    tracer = importlib.import_module("tracer")
    tr = tracer.Tracer()
    tracer.per_layer_metrics(tr, 1)
    assert tr.stats
    for name in tr.stats:
        modname, attr = ("vidtldr." + name).rsplit(".", 1)
        assert modname in tracer.TRACED_MODULES, name
        # Tracer.install wraps exactly the public functions a module defines.
        fn = getattr(importlib.import_module(modname), attr, None)
        assert not attr.startswith("_") and callable(fn) and not isinstance(fn, type), name
        assert fn.__module__ == modname, name
