"""Whitened one-class models: ellipsoidal and graph-embedded variants.

Both are realized as a linear map ``Projection(W')`` applied before an
inner SVDD or OC-SVM. E-SVDD whitens by the regularized covariance, so the
spherical boundary in the whitened space is an ellipsoid in input space; the
graph-embedded variants whiten by a kNN-Laplacian scatter instead, warping
the geometry toward locally connected structure.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..features import Scaler
from .detector import Detector, Projection
from .kernels import KernelSpec, LINEAR, _as_matrix, squared_distances
from .ocsvm import ocsvm_fit
from .svdd import svdd_fit


def _whitened(family: str, inner: Detector, step: Projection, epsilon: float,
              k: int | None, scaler: Scaler | None) -> Detector:
    params = {**inner.params, "epsilon": float(epsilon), "k_neighbors": k}
    return replace(inner, family=family, params=params, scaler=scaler, transforms=(step,))


def inv_sqrt_psd(S: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a positive definite matrix."""
    S = 0.5 * (S + S.T)
    vals, vecs = np.linalg.eigh(S)
    if vals.min() <= 0:
        raise ValueError(f"matrix not positive definite (min eigenvalue {vals.min():.3e}); "
                         "increase epsilon")
    return (vecs / np.sqrt(vals)) @ vecs.T


def esvdd_fit(X, C: float = 1.0, epsilon: float = 1e-3, kernel: KernelSpec = LINEAR, *,
              scaler: Scaler | None = None) -> Detector:
    """Ellipsoidal description: whiten by (cov + eps I)^(-1/2), then SVDD."""
    X = _as_matrix(X, "X")
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    cov = np.atleast_2d(np.cov(X, rowvar=False))
    if not np.all(np.isfinite(cov)):
        raise ValueError("training covariance is not finite")
    step = Projection(inv_sqrt_psd(cov + epsilon * np.eye(X.shape[1])).T)
    inner = svdd_fit(step.transform(X), C, kernel)
    return _whitened("esvdd", inner, step, epsilon, None, scaler)


# distances held at once by the kNN search: a block of rows of the n x n matrix
KNN_BLOCK = 1 << 16


def _knn_edges(X: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges ``(i, j)``, ``i < j``, as two sorted index arrays, of the mutualized binary kNN
    graph of the rows of ``X``: ``j`` among the k nearest of ``i``, or ``i``
    among those of ``j``. Rows are searched in blocks of about ``KNN_BLOCK``
    distances; a block's distances are its rows of the whole matrix, bit for bit."""
    n = X.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k={k} must satisfy 1 <= k < n={n}")
    step = max(1, KNN_BLOCK // n)
    near = []
    for lo in range(0, n, step):
        d2 = squared_distances(X[lo:lo + step], X)
        rows = np.arange(d2.shape[0])
        d2[rows, lo + rows] = np.inf
        # the k nearest of each row, ties broken towards the lower index (a
        # stable sort's first k): every entry below the k-th distance, then the
        # first ties at it until there are k
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        below = d2 < kth
        ties = d2 == kth
        room = k - below.sum(axis=1, keepdims=True)
        i, j = np.nonzero(below | (ties & (np.cumsum(ties, axis=1) <= room)))
        near.append(np.minimum(lo + i, j) * n + np.maximum(lo + i, j))
    return np.divmod(np.unique(np.concatenate(near)), n)


def graph_laplacian(X, k: int) -> np.ndarray:
    """Unnormalized Laplacian of the mutualized (max-symmetrized) binary kNN
    graph; PSD with zero row sums."""
    X = _as_matrix(X, "X")
    i, j = _knn_edges(X, k)
    A = np.zeros((X.shape[0], X.shape[0]))
    A[i, j] = A[j, i] = 1.0
    return np.diag(A.sum(axis=1)) - A


def _laplacian_whitener(X: np.ndarray, k: int, epsilon: float) -> np.ndarray:
    """``(X'LX + eps I)^(-1/2)``, with ``X'LX = D'D`` for ``D`` the rows
    ``x_i - x_j`` of the graph's edges: no n x n array is formed."""
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    i, j = _knn_edges(X, k)
    D = X[i] - X[j]
    return inv_sqrt_psd(D.T @ D + epsilon * np.eye(X.shape[1]))


def gesvdd_fit(X, C: float = 1.0, k: int = 5, epsilon: float = 1e-3,
               kernel: KernelSpec = LINEAR, *, scaler: Scaler | None = None) -> Detector:
    """Graph-embedded SVDD: whiten by (X'LX + eps I)^(-1/2), then SVDD."""
    X = _as_matrix(X, "X")
    step = Projection(_laplacian_whitener(X, k, epsilon).T)
    inner = svdd_fit(step.transform(X), C, kernel)
    return _whitened("gesvdd", inner, step, epsilon, int(k), scaler)


def geocsvm_fit(X, nu: float = 0.1, k: int = 5, epsilon: float = 1e-3,
                kernel: KernelSpec = LINEAR, *, scaler: Scaler | None = None) -> Detector:
    """Graph-embedded one-class SVM (same whitening, OC-SVM inner)."""
    X = _as_matrix(X, "X")
    step = Projection(_laplacian_whitener(X, k, epsilon).T)
    inner = ocsvm_fit(step.transform(X), nu, kernel)
    return _whitened("geocsvm", inner, step, epsilon, int(k), scaler)
