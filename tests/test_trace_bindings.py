"""perfbench/tracer.py still finds, and sees calls to, every function it traces.

A traced benchmark run wraps each listed function at every place it is
bound, and refuses to run when a binding has gone or when a layer that
perfbench/workloads.json lists for a workload records no calls there.
These tests install and remove the same wrappers in-process and run one
traced cycle of each workload, so renaming, deleting or bypassing a traced
name in src/ fails here too, not only in perfbench/test_smoke.py.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

import hyperconn.cli  # noqa: F401  (imports every module the tracer binds)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    tracer = _load("tracer")
    modules, classes = tracer._hyperconn_namespaces()
    before = {namespace: dict(vars(namespace)) for namespace in modules + classes}
    installed = tracer.Tracer()
    try:
        installed.install()  # raises RuntimeError naming a binding that has gone
        for _, _, bindings, _, _ in tracer.LAYERS:
            for binding in set(bindings) - {tracer._CLI_JSON_DUMPS}:
                owner, attr, wrapper = tracer._resolve(binding)
                assert wrapper is not before[owner][attr], binding
    finally:
        installed.uninstall()
    for namespace, snapshot in before.items():
        now = vars(namespace)
        assert now.keys() == snapshot.keys()
        assert all(now[name] is value for name, value in snapshot.items()), namespace


@pytest.mark.parametrize("name", list(WORKLOADS["workloads"]))
def test_every_listed_layer_records_calls_in_one_traced_cycle(name):
    # the rule perfbench/worker.py's trace() enforces on a traced run
    tracer = _load("tracer")
    workload = _load("workloads").WORKLOADS[name](1)
    installed = tracer.Tracer()
    try:
        installed.install()
        for op in workload.ops[:workload.CYCLE]:
            assert workload.check(op, workload.run(op)) is None, op
    finally:
        installed.uninstall()
    silent = [layer for layer, *_ in tracer.LAYERS
              if name in WORKLOADS["layers"][layer]["runs_on"] and not installed.stats[layer].calls]
    assert not silent, f"traced layers recorded no calls on {name}: {silent}"
