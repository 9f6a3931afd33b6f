"""perfbench/tracer.py still finds, and sees calls to, every function it traces.

A traced benchmark run wraps each listed function at every place it is
bound, and refuses to run when a binding has gone or when a layer that
perfbench/workloads.json lists for a workload records no calls there.
These tests install and remove the same wrappers in-process and run one
traced cycle of each workload, so renaming, deleting or bypassing a traced
name in src/ fails here too, not only in perfbench/test_smoke.py.
"""

from __future__ import annotations

import json

import pytest

import hyperconn.cli  # noqa: F401  (imports every module the tracer binds)
from helpers import ROOT, load_module

WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json").read_text())


def test_tracer_installs_and_restores_every_binding():
    tracer = load_module("perfbench/tracer.py")
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
    tracer = load_module("perfbench/tracer.py")
    workload = load_module("perfbench/workloads.py").WORKLOADS[name](1)
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
