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


# names the workloads (perfbench/wl_*.py, common.py) call directly, untraced
CALLED = (
    ("canoc.simulate", ("LabeledLog", "AttackScenario", "default_bus",
                        "generate_normal", "inject", "label_windows")),
    ("canoc.features", ("LABEL_NORMAL", "build_vocabulary", "segment_windows",
                        "extract_matrix", "fit_scaler", "apply_scaler")),
    ("canoc.evaluate", ("split", "SplitSpec", "evaluate")),
    ("canoc.models", ("KernelSpec", "PSI_VARIANTS", "load_model")),
    ("canoc.models.api", ("fit_model",)),
    ("canoc.cli", ("main",)),
)


def test_every_called_name_resolves():
    missing = [f"{module}.{attr}" for module, attrs in CALLED for attr in attrs
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


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
