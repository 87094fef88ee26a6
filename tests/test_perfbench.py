"""perfbench reads the program from outside the package: its tracer names
functions, and its checks read the fields of a RunResult. A name or a
field that no longer resolves would make a metric read 0 or a check fail."""

import importlib
from pathlib import Path

from vidtldr.harness import clips, config, runner
from vidtldr.merging import TokenState

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


def test_checks_accept_every_desk_mode(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # as perfbench/run.py imports them
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    groups = [
        g for g in workloads.desk_sweep(1, tmp_path / "runs")
        if g.runs[0].pattern == "moving-blob"
    ]
    (paths,) = workloads.write_configs(groups, tmp_path / "configs")
    assert [spec.mode for spec in groups[0].runs] == list(workloads.MODES)
    results = []
    for spec, path in zip(groups[0].runs, paths):
        res = runner.run(config.load_config(path))
        assert checks.check_run(res) == [], spec.name
        for fwd in (res.result, res.clean):
            assert isinstance(fwd.traces[-1].state_after, TokenState), spec.name
        results.append(res)
    header, rows = runner.compare([res.out_dir for res in results])
    assert checks.check_compare(header, rows, results) == []


def test_selftests_pass(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # as perfbench/run.py imports it
    selftest = importlib.import_module("selftest")
    assert selftest.run_selftests(tmp_path / "selftest") == []


def test_tables_match_the_program(monkeypatch):
    """perfbench keeps its own copies of the mode and pattern tables."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # as perfbench/run.py imports them
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    assert workloads.MODES == config.MODES
    assert workloads.PATTERNS == clips.PATTERNS
    reducers = config.RunConfig.reducers(None)
    unpruned = {m for m, r in reducers.items() if r is None or getattr(r, "merging", False)}
    assert set(checks.UNPRUNED_MODES) == unpruned
