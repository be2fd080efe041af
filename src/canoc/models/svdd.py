"""Support vector data description: minimal soft hypersphere around the
target class. Positive scores are anomalous; boundary points score 0."""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np

from ..features import Scaler
from .detector import Detector
from .kernels import KernelSpec, LINEAR, _as_matrix, gram_matrix, resolve_kernel
from .smo import FactorGram, ball_start, solve_svdd_dual

# support rows kept for scoring; small enough that sum(alpha) stays ~1
SUPPORT_KEEP_EPS = 1e-12
# relative margin for "strictly between the bounds" when recovering R^2
BOUNDARY_EPS = 1e-8


def boundary_support(alphas: np.ndarray, box: float) -> np.ndarray:
    """Mask of the support vectors that lie on the boundary: the unbounded
    ones, or every support vector when all alphas sit on a bound."""
    support = alphas > BOUNDARY_EPS * box
    unbounded = support & (alphas < box * (1.0 - BOUNDARY_EPS))
    return unbounded if unbounded.any() else support


def svdd_fit(X, C: float = 1.0, kernel: KernelSpec = LINEAR, *,
             scaler: Scaler | None = None) -> Detector:
    """Fit the description on (already standardized) target-class rows.

    R^2 is the largest boundary distance to the center: those distances
    agree within the solver tolerance. They are computed by the fitted
    expansion itself, so every boundary sample scores <= 0 exactly and a
    no-slack fit classifies its whole training set as target. A linear
    kernel hands the solver ``X`` itself, whose gram rows are computed as
    the solver reads them; the solve starts at the farthest rows, so it
    reads few."""
    X = _as_matrix(X, "X")
    if X.shape[0] < 2:
        raise ValueError("svdd_fit needs at least 2 training rows")
    kernel = resolve_kernel(kernel, X)
    K = FactorGram(X) if kernel.kind == "linear" else gram_matrix(X, X, kernel)
    alphas = solve_svdd_dual(K, C, a0=ball_start(K, C))
    keep = alphas > SUPPORT_KEEP_EPS
    ball = Detector(family="svdd", params={"C": float(C), "kernel": asdict(kernel)},
                    scaler=scaler, transforms=(), kernel=kernel,
                    alphas=alphas[keep], support_samples=X[keep].copy(),
                    u=1.0, v=2.0, offset=float(alphas @ (K @ alphas)), r_squared=0.0)
    d2 = ball.expansion(X[boundary_support(alphas, float(C))])
    return replace(ball, r_squared=max(float(d2.max()), 0.0))
