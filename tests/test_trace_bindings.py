"""perfbench/tracer.py still finds every function it traces.

A traced benchmark run wraps each listed function at every place it is
bound, and refuses to run when a binding has gone. This test installs and
removes the same wrappers in-process, so renaming or deleting a traced
name in src/ fails here too, not only in perfbench/test_smoke.py.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import hyperconn.cli  # noqa: F401  (imports every module the tracer binds)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    tracer = _load_tracer()
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
