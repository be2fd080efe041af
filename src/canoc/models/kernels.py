"""Kernel specification and gram-matrix computation."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

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


# pairwise distances held at once by median_heuristic: a block of rows of the
# upper triangle, and a block of its sample's pairs
MEDIAN_BLOCK = 1 << 16
# pairs drawn to bracket the median, when there are more than 16 pairs per
# pair drawn (fewer are kept whole), and the bracket's half-width in sample
# ranks per square root of their count: about 4 standard deviations of the
# median's rank in the sample
MEDIAN_SAMPLE = 1 << 14
MEDIAN_MARGIN = 2.0


def _upper_distances(X: np.ndarray) -> Iterator[np.ndarray]:
    """The squared distances ``d2[i, j]``, ``i < j``, of ``squared_distances(X, X)``,
    bit for bit, as flat blocks of about ``MEDIAN_BLOCK`` values."""
    n = X.shape[0]
    lo = 0
    while lo < n - 1:
        hi = min(n - 1, lo + max(1, MEDIAN_BLOCK // (n - lo - 1)))
        d2 = squared_distances(X[lo:hi], X[lo + 1:])
        yield d2[np.arange(n - lo - 1) >= np.arange(hi - lo)[:, None]]
        lo = hi


def _pair_sample(X: np.ndarray) -> np.ndarray:
    """``MEDIAN_SAMPLE`` squared distances of seeded uniform pairs ``i != j``, sorted."""
    n = X.shape[0]
    rng = np.random.default_rng(0)
    i = rng.integers(0, n, MEDIAN_SAMPLE)
    j = (i + rng.integers(1, n, MEDIAN_SAMPLE)) % n
    step = max(1, MEDIAN_BLOCK // X.shape[1])
    diffs = (X[i[a:a + step]] - X[j[a:a + step]] for a in range(0, MEDIAN_SAMPLE, step))
    return np.sort(np.concatenate([np.einsum("ij,ij->i", D, D) for D in diffs]))


def median_heuristic(X) -> float:
    """Median pairwise Euclidean distance; 1.0 on degenerate inputs.

    The middle one or two of the n(n-1)/2 squared distances are selected
    exactly, without the n x n matrix: a sample of pairs brackets them, and
    one pass over the distances in row blocks counts those below the bracket
    and keeps those inside it. A bracket that misses them is widened and the
    pass repeated, the last time to everything. ``np.mean`` of their square
    roots is then ``np.median`` of all the distances, byte for byte."""
    X = _as_matrix(X, "X")
    n = X.shape[0]
    if n < 2:
        return 1.0
    pairs = n * (n - 1) // 2
    ranks = sorted({(pairs - 1) // 2, pairs // 2})
    sample = _pair_sample(X) if pairs > 16 * MEDIAN_SAMPLE else np.zeros(0)
    # the sample ranks of the middle distances, and the bracket's half-width
    at = [rank * len(sample) // pairs for rank in ranks]
    width = int(MEDIAN_MARGIN * np.sqrt(len(sample)))
    while True:
        lo = sample[at[0] - width] if 0 <= at[0] - width < len(sample) else -np.inf
        hi = sample[at[-1] + width] if at[-1] + width < len(sample) else np.inf
        below = at_lo = at_hi = 0
        inside = []
        for d2 in _upper_distances(X):
            if np.isnan(d2).any():
                return 1.0  # np.median's NaN, which is not > 0
            below += np.count_nonzero(d2 < lo)
            at_lo += np.count_nonzero(d2 == lo)
            at_hi += np.count_nonzero(d2 == hi) if hi > lo else 0
            inside.append(d2[(d2 > lo) & (d2 < hi)])
        # sorted, the distances are: below, at_lo at lo, inside, at_hi at hi
        inside = np.concatenate(inside)
        inside.sort()
        picked = []
        for rank in ranks:
            rank -= below
            if 0 <= rank < at_lo:
                picked.append(lo)
            elif 0 <= rank - at_lo < len(inside):
                picked.append(inside[rank - at_lo])
            elif 0 <= rank - at_lo - len(inside) < at_hi:
                picked.append(hi)
        if len(picked) == len(ranks):
            break
        width = 4 * width + 1
    med = float(np.mean(np.sqrt(np.array(picked))))
    return med if med > 0 else 1.0


def resolve_kernel(kernel: KernelSpec, X) -> KernelSpec:
    """Fill in an unset rbf bandwidth from the data about to be fitted."""
    if kernel.kind == "rbf" and kernel.sigma is None:
        return replace(kernel, sigma=median_heuristic(X))
    return kernel
