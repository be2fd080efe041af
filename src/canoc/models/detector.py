"""The trained-detector artifact that every model family produces.

Every family is one pipeline: the bundled scaler, zero or more fitted
transforms (the E-SVDD/GE whitening, the projection-trick embedding, the
S-SVDD projection), then one kernel expansion scored as

    s(x) = u k(x,x) - v sum_i a_i k(x, x_i) + offset - r_squared

SVDD-type models use u=1, v=2 and offset = a'Ka (the squared center norm);
OC-SVM-type models use u=0, v=1, offset = rho and r_squared = 0. Positive
scores are anomalous; boundary points score 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..features import Scaler
from .kernels import KernelSpec, gram_matrix, products


@dataclass(frozen=True, eq=False)
class Projection:
    """A d x D linear map ``Q x``."""

    kind: ClassVar[str] = "projection"
    q: np.ndarray

    def dims(self) -> tuple[int, int]:
        return self.q.shape[1], self.q.shape[0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        return products(X, self.q)


@dataclass(frozen=True, eq=False)
class Detector:
    """A trained one-class model of any family; score it with
    :func:`canoc.models.score_samples`. ``params`` is the hyperparameter
    block that ``config_digest`` hashes."""

    family: str
    params: dict
    scaler: Scaler | None
    transforms: tuple
    kernel: KernelSpec
    alphas: np.ndarray
    support_samples: np.ndarray
    u: float
    v: float
    offset: float
    r_squared: float

    def __post_init__(self) -> None:
        """Each field's shape must fit the fields it meets when scoring."""
        dim = None
        if self.scaler is not None:
            dim = self.scaler.mean.shape[0]
            if self.scaler.stdev.shape != (dim,) or not (self.scaler.stdev > 0).all():
                raise ValueError(f"scaler.stdev must hold {dim} values > 0")
        for i, step in enumerate(self.transforms):
            d_in, d_out = step.dims()
            if dim is not None and d_in != dim:
                raise ValueError(f"transforms[{i}] takes {d_in} features, not {dim}")
            dim = d_out
        rows, cols = self.support_samples.shape
        if dim is not None and cols != dim:
            raise ValueError(f"support_samples have {cols} columns, not {dim}")
        if self.alphas.shape != (rows,):
            raise ValueError(f"alphas must hold one value per support sample ({rows})")

    def expansion(self, X: np.ndarray) -> np.ndarray:
        """The kernel expansion ``s(x)`` of rows that have been through the
        scaler and the transforms; each row's value depends only on that row."""
        Kx = gram_matrix(X, self.support_samples, self.kernel)
        self_kernel = (np.einsum("ij,ij->i", X, X) if self.kernel.kind == "linear"
                       else np.ones(X.shape[0]))
        return (self.u * self_kernel
                - self.v * products(Kx, self.alphas[None, :])[:, 0]
                + self.offset - self.r_squared)
