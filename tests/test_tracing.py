"""The benchmark's tracer (perfbench/tracing.py) can wrap and restore the program.

The tracer looks each traced method up in its own class body, so a traced
method that moves into a base class breaks ``--trace 1``. The tracer's source
is executed here, read-only, and installed on the package once.
"""

import importlib
import os
import sys
import types

import losscast.cli  # noqa: F401  (imports every module the tracer patches)

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    mod = types.ModuleType("perfbench_tracing")
    with open(TRACING, "r", encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACING, "exec"), mod.__dict__)
    return mod


def test_tracer_wraps_every_target_and_restores_the_package():
    tracing = load_tracing()
    owners = [m for k, m in sorted(sys.modules.items()) if k.startswith("losscast")]
    for mod_name, attr, _, _ in tracing.TARGETS:
        if "." in attr:
            owners.append(getattr(importlib.import_module(mod_name), attr.split(".")[0]))

    def snapshot():
        return {(i, k): v for i, owner in enumerate(owners) for k, v in vars(owner).items()}

    def target(mod_name, attr):
        owner = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = vars(owner)[cls_name]
        return vars(owner)[attr]

    before = snapshot()
    originals = [target(m, a) for m, a, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [target(m, a) for m, a, _, _ in tracing.TARGETS]
    finally:
        tracer.uninstall()
    after = snapshot()

    unwrapped = [t[:2] for t, o, w in zip(tracing.TARGETS, originals, wrapped) if w is o]
    assert unwrapped == []
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
