"""Subspace SVDD: jointly learns a row-orthonormal projection Q (d x D) and
a data description in the projected space.

Training alternates (1) project y_i = Q x_i, (2) solve the SVDD dual on the
projections, warm-started from the previous iteration's alphas (Q moves only
a little per step, so they are close to the new optimum and always feasible:
n and C do not change) and reading only the rows of Y Y' it needs from the
projections, (3) a gradient step on Q from the joint Lagrangian

    grad = 2 Q X' (diag(a) - a a' + beta * lam lam') X

where the ``lam`` selector implements the regularizer variants:

    psi0  no regularization term
    psi1  lam_i = 1 for every sample
    psi2  lam_i = 1 for support vectors only
    psi3  lam_i = a_i

followed by (4) re-orthonormalizing the rows of Q. The nonlinear variant
first embeds the data explicitly by factoring the centered kernel matrix
(the projection trick), then runs the same linear machinery.

A property of the projection trick worth knowing: a test point far from all
training data has a near-zero kernel vector, so its embedding saturates at
one fixed point (the image of the feature-space origin) no matter how far
away it is. Whether that saturation point scores anomalous depends on the
fitted boundary; the direct kernel duals (svdd_fit, ocsvm_fit with rbf) do
not truncate and always flag the far limit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable, ClassVar

import numpy as np

from ..features import Scaler
from .detector import Detector, Projection
from .kernels import KernelSpec, LINEAR, _as_matrix, gram_matrix, products, resolve_kernel
from .smo import FactorGram, ball_start, solve_svdd_dual
from .svdd import svdd_fit

PSI_VARIANTS = ("psi0", "psi1", "psi2", "psi3")
Q_INITS = ("pca", "identity", "random")

# per-iteration decay of the Q step size
ETA_DECAY = 0.95

# the outer loop stops once an iteration moves the objective by at most this
# fraction of its value
STOP_TOL = 1e-4

EIGENVALUE_FLOOR = 1e-10
PSD_TOL = 1e-8


def _decompose_centered(K: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Double-center a PSD gram and eigendecompose it (descending)."""
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if K.shape != (n, n):
        raise ValueError("gram matrix must be square")
    K = 0.5 * (K + K.T)
    row_means = K.mean(axis=1)
    total_mean = float(K.mean())
    Kc = K - row_means[None, :] - row_means[:, None] + total_mean
    vals, vecs = np.linalg.eigh(Kc)
    if vals.min() < -PSD_TOL * max(1.0, float(vals.max())):
        raise ValueError(f"gram matrix is not PSD: min eigenvalue {vals.min():.3e}")
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    keep = vals > EIGENVALUE_FLOOR
    return vecs[:, keep], vals[keep], row_means, total_mean


def npt_embed(K: np.ndarray) -> np.ndarray:
    """Explicit coordinates Z (rows = samples) factored from a PSD gram,
    such that Z Z' reproduces the double-centered gram within 1e-8."""
    vecs, vals, _, _ = _decompose_centered(K)
    return vecs * np.sqrt(vals)


@dataclass(frozen=True, eq=False)
class NptEmbedding:
    """Kernel-matrix factorization with out-of-sample extension."""

    kind: ClassVar[str] = "npt"
    train_samples: np.ndarray
    kernel: KernelSpec
    eigvecs: np.ndarray   # n x r
    eigvals: np.ndarray   # r, all > 0
    row_means: np.ndarray
    total_mean: float

    @classmethod
    def fit(cls, X, kernel: KernelSpec) -> "NptEmbedding":
        X = _as_matrix(X, "X")
        kernel = resolve_kernel(kernel, X)
        vecs, vals, row_means, total_mean = _decompose_centered(gram_matrix(X, X, kernel))
        return cls(train_samples=X.copy(), kernel=kernel, eigvecs=vecs,
                   eigvals=vals, row_means=row_means, total_mean=total_mean)

    def dims(self) -> tuple[int, int]:
        n, D = self.train_samples.shape
        r = self.eigvals.shape[0]
        if self.eigvecs.shape != (n, r) or self.row_means.shape != (n,):
            raise ValueError(f"npt eigvecs and row_means must match {n} train samples "
                             f"and {r} eigenvalues")
        if not (self.eigvals > 0).all():
            raise ValueError("npt eigvals must be > 0")
        return D, r

    def transform(self, X) -> np.ndarray:
        X = _as_matrix(X, "X")
        Kx = gram_matrix(X, self.train_samples, self.kernel)
        Kc = (Kx - Kx.mean(axis=1, keepdims=True)
              - self.row_means[None, :] + self.total_mean)
        return products(Kc, self.eigvecs.T) / np.sqrt(self.eigvals)


def orthonormalize_rows(Q: np.ndarray) -> np.ndarray:
    """Closest row-orthonormal matrix via QR, with signs pinned for
    iteration-to-iteration continuity."""
    u, r = np.linalg.qr(Q.T)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (u * signs).T


def psi_selector(psi: str, alphas: np.ndarray) -> np.ndarray | None:
    if psi == "psi0":
        return None
    if psi == "psi1":
        return np.ones_like(alphas)
    if psi == "psi2":
        return (alphas > 0).astype(float)
    if psi == "psi3":
        return alphas.copy()
    raise ValueError(f"psi must be one of {PSI_VARIANTS}")


def ssvdd_objective(X: np.ndarray, Q: np.ndarray, alphas: np.ndarray,
                    beta: float, psi: str) -> float:
    """Q-dependent part of the joint Lagrangian for fixed dual coefficients:
    sum_i a_i |Qx_i|^2 - |Q X'a|^2 + beta * |Q X'lam|^2."""
    Y = X @ Q.T
    return _projected_objective(Y, np.einsum("ij,ij->i", Y, Y), alphas, beta, psi)


def _projected_objective(Y: np.ndarray, sq_norms: np.ndarray, alphas: np.ndarray,
                         beta: float, psi: str) -> float:
    """:func:`ssvdd_objective` from the projections ``Y`` and their squared
    row norms."""
    center = Y.T @ alphas
    value = float(alphas @ sq_norms - center @ center)
    lam = psi_selector(psi, alphas)
    if lam is not None and beta != 0.0:
        v = Y.T @ lam
        value += beta * float(v @ v)
    return value


def ssvdd_gradient(X: np.ndarray, Q: np.ndarray, alphas: np.ndarray,
                   beta: float, psi: str) -> np.ndarray:
    """Analytic d/dQ of :func:`ssvdd_objective`. A row whose alpha is 0 adds
    nothing to ``X'diag(a)X`` or ``X'a``, so those sums run over the support
    rows only."""
    support = alphas != 0
    Xs, a_s = X[support], alphas[support]
    Xa = Xs.T @ a_s
    M = Xs.T @ (a_s[:, None] * Xs) - np.outer(Xa, Xa)
    lam = psi_selector(psi, alphas)
    if lam is not None and beta != 0.0:
        v = X.T @ lam
        M = M + beta * np.outer(v, v)
    return 2.0 * Q @ M


def _initial_q(Z: np.ndarray, d: int, how: str, seed: int | None) -> np.ndarray:
    D = Z.shape[1]
    if how == "identity":
        return np.eye(d, D)
    if how == "random":
        rng = np.random.default_rng(seed)
        return orthonormalize_rows(rng.standard_normal((d, D)))
    if how == "pca":
        # the principal directions miss the columns that are constant in
        # training, where a flood shows up, so their unit vectors take the
        # place of the last principal directions
        _, _, vt = np.linalg.svd(Z, full_matrices=False)
        constant = np.flatnonzero(np.ptp(Z, axis=0) == 0)[:d]
        if not constant.size:
            return vt[:d].copy()
        return orthonormalize_rows(np.vstack((vt[:d - constant.size],
                                              np.eye(D)[constant])))
    raise ValueError(f"q_init must be one of {Q_INITS}")


def ssvdd_fit(X, *, d: int | None = None, C: float = 1.0, beta: float = 0.01,
              psi: str = "psi1", eta: float = 0.1, iterations: int = 50,
              kernel: KernelSpec = LINEAR, q_init: str = "pca",
              seed: int | None = None, scaler: Scaler | None = None,
              iteration_callback: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
              ) -> Detector:
    """Train the subspace description on (already standardized) rows.

    With an rbf kernel the data is first embedded via the projection trick;
    Q then acts on the embedded coordinates. ``iterations`` is a cap: the
    loop stops after the first iteration whose objective moved by at most
    ``STOP_TOL`` of its value. ``iteration_callback(it, Q, alphas)`` fires
    after each Q update (testing hook).
    """
    X = _as_matrix(X, "X")
    if psi not in PSI_VARIANTS:
        raise ValueError(f"psi must be one of {PSI_VARIANTS}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    kernel = resolve_kernel(kernel, X)
    if kernel.kind == "linear":
        npt, Z = None, X
    else:
        npt = NptEmbedding.fit(X, kernel)
        Z = npt.transform(X)  # the scorer's embedding of the training rows
    D = Z.shape[1]
    if d is None:
        d = min(10, D)
    if not 1 <= d <= D:
        raise ValueError(f"subspace dimension d={d} must be within 1..{D}")

    Q = _initial_q(Z, d, q_init, seed)
    lr = eta
    alphas, previous = None, None
    for it in range(iterations):
        gram = FactorGram(Projection(Q).transform(Z))
        alphas = solve_svdd_dual(gram, C, a0=ball_start(gram, C) if alphas is None else alphas)
        objective = _projected_objective(gram.factor, gram.diagonal(), alphas, beta, psi)
        grad = ssvdd_gradient(Z, Q, alphas, beta, psi)
        if not np.all(np.isfinite(grad)):
            raise ValueError(f"non-finite Q gradient at iteration {it}")
        Q = orthonormalize_rows(Q - lr * grad)
        lr *= ETA_DECAY
        if iteration_callback is not None:
            iteration_callback(it, Q, alphas)
        if previous is not None and abs(objective - previous) <= STOP_TOL * abs(objective):
            break
        previous = objective

    # the rows the scorer's own projection gives, so that no training row
    # of a no-slack fit scores above 0 by rounding
    inner = svdd_fit(Projection(Q).transform(Z), C, LINEAR)
    params = {"d": d, "C": float(C), "beta": beta, "psi": psi, "eta": eta,
              "iterations": iterations, "q_init": q_init,
              "seed": seed if q_init == "random" else None,  # only that start reads it
              "kernel": asdict(kernel)}
    steps = (Projection(Q),) if npt is None else (npt, Projection(Q))
    return replace(inner, family="ssvdd", params=params, scaler=scaler,
                   transforms=steps)
