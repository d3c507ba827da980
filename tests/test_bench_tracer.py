"""perfbench/tracer.py against cnslab as it is: a traced benchmark run
(--trace 1) installs the tracer this way, so a cnslab change that removes
or moves a function the tracer wraps or requires fails here.  The tracer
is loaded by path; perfbench's own tests are not collected with these."""

import importlib.util
import sys
from pathlib import Path

import cnslab.cli  # noqa: F401  (loads every cnslab module, as a traced run does)

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def _cnslab_names():
    """(module, name) -> value of every global of every loaded cnslab module."""
    return {(name, key): value
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "cnslab" or name.startswith("cnslab."))
            for key, value in vars(mod).items()}


def test_tracer_installs_on_cnslab_and_puts_every_name_back():
    before = _cnslab_names()
    with tracer.Patcher() as patcher:
        tracer.Tracer().install(patcher)
        for module, names in tracer.TRACED_FUNCTIONS.items():
            for attr in names:
                fn = getattr(sys.modules[f"cnslab.{module}"], attr)
                assert fn.__wrapped__ is before[f"cnslab.{module}", attr]
        for module, attr in tracer.REQUIRED_LOOKUPS:
            assert hasattr(getattr(sys.modules[f"cnslab.{module}"], attr),
                           "__wrapped__"), (module, attr)
    after = _cnslab_names()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
