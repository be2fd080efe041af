"""The benchmark in perfbench/ traces canoc by patching names from outside
the package, in the module that looks each name up at call time. These
tests keep those names in place."""

import importlib
import importlib.util
from pathlib import Path

from canoc.models import api

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    wraps = load_tracer().WRAPS
    missing = [f"{module}.{attr}" for module, attr, _, _ in wraps
               if not hasattr(importlib.import_module(module), attr)]
    assert wraps and not missing


def test_fit_model_calls_the_patched_fitter(monkeypatch, rng):
    calls = []
    original = api.ssvdd_fit

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(api, "ssvdd_fit", spy)
    model = api.fit_model("ssvdd", rng.standard_normal((20, 3)), d=2, iterations=1)
    assert len(calls) == 1 and calls[0]["d"] == 2
    assert model.family == "ssvdd"
