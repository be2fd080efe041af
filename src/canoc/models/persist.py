"""Model persistence: one self-describing JSON file per trained detector.

The file is a walk over the Detector's fields: arrays as nested lists,
dataclasses as objects, and each transform as an object tagged with its
``kind``. Floats are serialized through ``repr`` (Python's shortest
round-trip form), so a loaded model reproduces scores bit-for-bit on the
same platform. The loader checks every key, type, shape and number, and
names the field at fault in its ``ValueError``.
"""

from __future__ import annotations

import hashlib
import json
import math
import types
from dataclasses import fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np

from ..features import (FeatureSpec, _is_number, naming, read_json,
                        spec_from_dict, spec_to_dict)
from .api import MODEL_FAMILIES
from .detector import Detector, Projection
from .kernels import KernelSpec
from .ssvdd import NptEmbedding

MODEL_FORMAT = "canoc-model"
MODEL_VERSION = 2

TRANSFORMS = {cls.kind: cls for cls in (NptEmbedding, Projection)}
# dimension of every array field, by field name
ARRAY_NDIM = {"alphas": 1, "support_samples": 2, "mean": 1, "stdev": 1,
              "q": 2, "train_samples": 2, "eigvecs": 2, "eigvals": 1,
              "row_means": 1}


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [{"kind": step.kind, **_encode(step)} for step in value]
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    return value


def model_to_dict(model: Detector) -> dict:
    return {"format": MODEL_FORMAT, "version": MODEL_VERSION, **_encode(model)}


def _array(value, ndim: int, path: str) -> np.ndarray:
    def nested(v, depth: int) -> bool:
        if depth == 0:
            return _is_number(v)
        return isinstance(v, list) and all(nested(x, depth - 1) for x in v)

    if nested(value, ndim):
        try:
            array = np.array(value, dtype=float)
        except ValueError:
            array = None
        if array is not None and array.ndim == ndim:
            return array
    raise ValueError(f"model field '{path}' must be a {ndim}-d array of numbers")


def _decode(cls, doc, path: str):
    """Build dataclass ``cls`` from ``doc``, checking each field against
    its annotation."""
    where = f"model field '{path}'" if path else "model file"
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(doc) - set(names))
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}")
    hints = get_type_hints(cls)
    values = {}
    for name in names:
        sub = f"{path}.{name}" if path else name
        if name not in doc:
            raise ValueError(f"model file is missing '{sub}'")
        values[name] = _field(hints[name], doc[name], name, sub)
    try:
        return cls(**values)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None


def _field(hint, value, name: str, path: str):
    args = get_args(hint)
    if isinstance(hint, types.UnionType) and type(None) in args:
        if value is None:
            return None
        hint = next(a for a in args if a is not type(None))
    if hint is np.ndarray:
        return _array(value, ARRAY_NDIM[name], path)
    if hint is tuple:
        if not isinstance(value, list):
            raise ValueError(f"model field '{path}' must be a list")
        steps = []
        for i, item in enumerate(value):
            kind = item.get("kind") if isinstance(item, dict) else None
            if kind not in TRANSFORMS:
                raise ValueError(f"model field '{path}[{i}].kind' must be one of "
                                 f"{sorted(TRANSFORMS)}")
            body = {k: v for k, v in item.items() if k != "kind"}
            steps.append(_decode(TRANSFORMS[kind], body, f"{path}[{i}]"))
        return tuple(steps)
    if hint is dict:
        return _params(value, path)
    if is_dataclass(hint):
        return _decode(hint, value, path)
    if hint is float and _is_number(value):
        return float(value)
    if hint is str and isinstance(value, str):
        return value
    raise ValueError(f"model field '{path}' must be a {hint.__name__}")


def _params(value, path: str) -> dict:
    """The hyperparameter block: a kernel plus flat scalar values."""
    if not isinstance(value, dict) or "kernel" not in value:
        raise ValueError(f"model field '{path}' must be an object with a kernel")
    _decode(KernelSpec, value["kernel"], f"{path}.kernel")
    for key, item in value.items():
        if key != "kernel" and not (item is None or isinstance(item, str) or _is_number(item)):
            raise ValueError(f"model field '{path}.{key}' must be a number or a string")
    return value


def _check_finite(doc) -> None:
    """Raise naming the first non-finite number in a parsed JSON document.
    The walk keeps its own stack, so it takes any nesting the parser took."""
    stack = [(doc, "")]
    while stack:
        value, path = stack.pop()
        if isinstance(value, dict):
            stack.extend((item, f"{path}.{key}" if path else key)
                         for key, item in reversed(value.items()))
        elif isinstance(value, list):
            stack.extend((value[i], f"{path}[{i}]") for i in reversed(range(len(value))))
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"model field '{path}' is not finite")


def model_from_dict(doc: dict) -> Detector:
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a canoc model file")
    _check_finite(doc)
    version = doc.get("version")
    if version == 1:
        raise ValueError("model file version 1 is no longer read; re-train the model")
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model file version {version!r}")
    body = {k: v for k, v in doc.items() if k not in ("format", "version", "extraction")}
    model = _decode(Detector, body, "")
    if model.family not in MODEL_FAMILIES:
        raise ValueError(f"model field 'family' must be one of {MODEL_FAMILIES}")
    return model


def save_model(model: Detector, path: str, spec: FeatureSpec | None = None) -> None:
    """Write the model (plus the spec its features were extracted with) as JSON."""
    doc = model_to_dict(model)
    if spec is not None:
        doc["extraction"] = spec_to_dict(spec)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def load_model(path: str) -> tuple[Detector, FeatureSpec | None]:
    """Load a model file; returns (model, feature spec or None). The spec's
    vocabulary must give the model's input dimension."""
    where = f"model file {path}"
    doc = read_json(path, where)
    with naming(where):
        model = model_from_dict(doc)
        if "extraction" not in doc:
            return model, None
        spec = spec_from_dict(doc["extraction"], "model field 'extraction'")
        if model.scaler is not None and spec.vocab.dimension != model.scaler.mean.shape[0]:
            raise ValueError(f"model field 'extraction': vocabulary dimension "
                             f"{spec.vocab.dimension} does not match model dimension "
                             f"{model.scaler.mean.shape[0]}")
    return model, spec


def model_tag(model: Detector) -> str:
    """Short human identifier, e.g. ``ssvdd-psi1-linear``."""
    parts = (model.family, model.params.get("psi"), model.params["kernel"]["kind"])
    return "-".join(str(p) for p in parts if p is not None)


def config_digest(model: Detector) -> str:
    """Stable hash of the model's hyperparameter block."""
    payload = json.dumps({"family": model.family, "params": model.params},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]
