"""One-class SVM: hyperplane separating the target class from the origin.

Scores follow the package-wide sign convention (positive = anomalous), so
``score(x) = rho - sum_i a_i K(x, x_i)``.
"""

from __future__ import annotations

from dataclasses import asdict

from ..features import Scaler
from .detector import Detector
from .kernels import KernelSpec, LINEAR, _as_matrix, gram_matrix, resolve_kernel
from .smo import FactorGram, solve_ocsvm_dual
from .svdd import SUPPORT_KEEP_EPS, boundary_support


def ocsvm_fit(X, nu: float = 0.1, kernel: KernelSpec = LINEAR, *,
              scaler: Scaler | None = None) -> Detector:
    """Fit on (already standardized) target-class rows; ``nu`` bounds the
    training outlier fraction."""
    X = _as_matrix(X, "X")
    if X.shape[0] < 1:
        raise ValueError("ocsvm_fit needs at least 1 training row")
    kernel = resolve_kernel(kernel, X)
    K = FactorGram(X) if kernel.kind == "linear" else gram_matrix(X, X, kernel)
    alphas = solve_ocsvm_dual(K, nu)
    Ka = K @ alphas
    rho = float(Ka[boundary_support(alphas, 1.0 / (nu * X.shape[0]))].mean())
    keep = alphas > SUPPORT_KEEP_EPS
    return Detector(family="ocsvm", params={"nu": float(nu), "kernel": asdict(kernel)},
                    scaler=scaler, transforms=(), kernel=kernel,
                    alphas=alphas[keep], support_samples=X[keep].copy(),
                    u=0.0, v=1.0, offset=rho, r_squared=0.0)
