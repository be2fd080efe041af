"""Kernel specification and gram-matrix computation."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

KERNEL_KINDS = ("linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice; ``sigma=None`` on an rbf kernel means "resolve via the
    median heuristic at fit time"."""

    kind: str = "linear"
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}")
        if self.sigma is not None and not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        # the rbf kernel divides by -2 sigma**2, whose inverse must be a finite
        # nonzero double: a subnormal 2 sigma**2 is nonzero, but its inverse overflows
        if self.sigma is not None:
            with np.errstate(over="ignore", divide="ignore"):
                inverse = 1.0 / (2.0 * np.float64(self.sigma) ** 2)
            if not 0 < inverse < np.inf:
                raise ValueError(f"sigma {self.sigma} is out of range: 1 / (2 * sigma**2) "
                                 "overflows or underflows to 0")


LINEAR = KernelSpec("linear")


def _as_matrix(X, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2:
        raise ValueError(f"{name} must be a vector or 2-d matrix")
    return X


def products(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``X Y^T``, each entry np.einsum's dot product of two contiguous rows.
    It never calls BLAS, so a row of the result depends only on its row of X,
    not on how many rows X has, how it is laid out in memory or the thread
    count: a training gram's rows are the rows the scorer computes, and a
    window's score does not depend on the windows scored with it."""
    return np.einsum("ij,kj->ik", np.ascontiguousarray(X), np.ascontiguousarray(Y), order="C")


def squared_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at 0."""
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = np.einsum("ij,ij->i", Y, Y)
    d2 = x2[:, None] + y2[None, :] - 2.0 * products(X, Y)
    return np.maximum(d2, 0.0)


def gram_matrix(X, Y, kernel: KernelSpec) -> np.ndarray:
    """Kernel gram: linear ``X Y^T`` or rbf ``exp(-|x-y|^2 / (2 sigma^2))``,
    through :func:`products`."""
    X = _as_matrix(X, "X")
    Y = _as_matrix(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"column counts differ: {X.shape[1]} vs {Y.shape[1]}")
    if kernel.kind == "linear":
        return products(X, Y)
    if kernel.sigma is None:
        raise ValueError("rbf sigma unresolved; call resolve_kernel first")
    # a squared distance past 2 sigma**2 * 1.8e308 overflows the exponent to
    # -inf, its limit, whose exp is 0
    with np.errstate(over="ignore"):
        exponent = squared_distances(X, Y) / (-2.0 * kernel.sigma**2)
    return np.exp(exponent)


def median_heuristic(X) -> float:
    """Median pairwise Euclidean distance; 1.0 on degenerate inputs."""
    X = _as_matrix(X, "X")
    n = X.shape[0]
    if n < 2:
        return 1.0
    d2 = squared_distances(X, X)
    upper = d2[np.triu_indices(n, k=1)]
    med = float(np.median(np.sqrt(upper)))
    return med if med > 0 else 1.0


def resolve_kernel(kernel: KernelSpec, X) -> KernelSpec:
    """Fill in an unset rbf bandwidth from the data about to be fitted."""
    if kernel.kind == "rbf" and kernel.sigma is None:
        return replace(kernel, sigma=median_heuristic(X))
    return kernel
