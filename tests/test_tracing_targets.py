"""The benchmark's traced run wraps ramanecho callables by name.

Every "module:attribute" target in perfbench/tracing.py must resolve, so
that a rename fails in this suite and not only in the benchmark's smoke
run.  The targets are looked up the way Tracer.install looks them up, but
nothing is wrapped: installing would patch the package for the rest of
the session.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_target_resolves():
    layers = load_tracing().LAYERS
    assert layers
    for layer, targets in layers.items():
        for target in targets:
            module_name, attr = target.split(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                found = vars(getattr(module, cls_name, object)).get(meth)
            else:
                found = getattr(module, attr, None)
            assert callable(found), f"{layer}: {target} does not resolve"
