"""Family-agnostic train/score/predict surface over the one-class models."""

from __future__ import annotations

import numpy as np

from ..features import LABEL_NORMAL, Scaler, apply_scaler
from .detector import Detector
from .kernels import KernelSpec, LINEAR, _as_matrix
# fit_model finds each family's fitter among these names
from .ocsvm import ocsvm_fit
from .ssvdd import ssvdd_fit
from .svdd import svdd_fit
from .whiten import esvdd_fit, geocsvm_fit, gesvdd_fit

LABEL_ANOMALY = "anomaly"

# the hyperparameters each family takes: fit_model rejects any other key,
# and the CLI passes each key whose flag of the same name is set (C from
# --c); q_init and seed have none, so the CLI's ssvdd starts from PCA
FAMILY_PARAMS = {
    "svdd": ("C",),
    "ssvdd": ("C", "d", "beta", "psi", "eta", "iterations", "q_init", "seed"),
    "esvdd": ("C", "epsilon"),
    "gesvdd": ("C", "k_neighbors", "epsilon"),
    "ocsvm": ("nu",),
    "geocsvm": ("nu", "k_neighbors", "epsilon"),
}
MODEL_FAMILIES = tuple(FAMILY_PARAMS)


class ScoreRangeError(ValueError):
    """A row whose score is beyond the float range; ``row`` is its index."""

    def __init__(self, row: int) -> None:
        super().__init__(f"row {row} scores beyond the float range")
        self.row = row


def score_samples(model: Detector, X) -> np.ndarray:
    """Anomaly scores, <= 0 normal and > 0 anomalous: the bundled scaler,
    then each transform, then the kernel expansion
    ``u k(x,x) - v sum_i a_i k(x, x_i) + offset - r_squared``. Every product
    is computed row by row (:func:`~canoc.models.kernels.products`), so a
    row's score depends only on that row. A row whose score is not finite
    raises :class:`ScoreRangeError`."""
    X = np.ascontiguousarray(_as_matrix(X, "X"))  # each stage keeps rows contiguous
    with np.errstate(over="ignore", invalid="ignore"):
        if model.scaler is not None:
            X = apply_scaler(model.scaler, X)
        for step in model.transforms:
            X = step.transform(X)
        if X.shape[1] != model.support_samples.shape[1]:
            raise ValueError(f"expected {model.support_samples.shape[1]} features, "
                             f"got {X.shape[1]}")
        scores = model.expansion(X)
    beyond = ~np.isfinite(scores)
    if beyond.any():
        raise ScoreRangeError(int(np.argmax(beyond)))
    return scores


def predict(model: Detector, X) -> np.ndarray:
    """Label each row: score <= 0 -> "normal", > 0 -> "anomaly"."""
    scores = score_samples(model, X)
    return np.where(scores > 0, LABEL_ANOMALY, LABEL_NORMAL)


def fit_model(family: str, X, *, kernel: KernelSpec = LINEAR,
              scaler: Scaler | None = None, **params) -> Detector:
    """Train any family from a flat hyperparameter dict (the CLI's entry);
    FAMILY_PARAMS lists the keys each family takes, and a key left out keeps
    the default of the family's ``*_fit`` signature."""
    if family not in FAMILY_PARAMS:
        raise ValueError(f"unknown model family '{family}'; expected one of {MODEL_FAMILIES}")
    unknown = set(params) - set(FAMILY_PARAMS[family])
    if unknown:
        raise ValueError(f"unknown hyperparameters for {family}: {sorted(unknown)}")
    if "k_neighbors" in params:
        params["k"] = params.pop("k_neighbors")
    # looked up at call time, so that a replaced fitter is the one called
    fit = globals()[f"{family}_fit"]
    return fit(X, kernel=kernel, scaler=scaler, **params)
