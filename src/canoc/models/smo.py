"""Pairwise-coordinate (SMO-style) solver for simplex-box quadratic programs.

Solves  min_a  0.5 a'Qa + p'a   s.t.  sum(a) = 1,  0 <= a_i <= box.

Both one-class duals are instances of this program:

* SVDD:   max  sum_i a_i K_ii - a'Ka   ->  Q = 2K, p = -diag(K), box = C
          (K read at scale 2, never copied)
* OC-SVM: min  0.5 a'Ka               ->  Q = K,  p = 0,        box = 1/(nu n)

Each step picks the maximal-violating pair (steepest feasible descent
coordinate up, steepest ascent coordinate down) and moves mass between the
two, which preserves the simplex constraint exactly. Termination when the
worst KKT violation drops below ``KKT_TOL``. The search starts from the uniform
point, or from a caller's feasible ``a0``: a warm start, or for a cold SVDD
dual :func:`ball_start`'s farthest rows.

The loop reads ``Q`` through two rows per step, its diagonal and one product
for the start gradient. A dense gram gives those from an array; a
:class:`FactorGram` computes a row of ``Y Y'`` from ``Y`` on its first read,
so a linear-kernel dual never forms the n x n gram.
"""

from __future__ import annotations

import math

import numpy as np


class DualSolverError(RuntimeError):
    """Solver failed to reach the KKT tolerance; carries the best residual."""

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(f"{message} (best KKT residual {residual:.3e})")
        self.residual = residual


# the stopping threshold on the worst KKT violation (tightened on
# tiny-scale problems, see solve_simplex_box_qp)
KKT_TOL = 1e-6

# how far sum(a0) may stray from 1 before a start counts as infeasible
START_SUM_TOL = 1e-9


class FactorGram:
    """The gram ``Y Y'`` of a factor ``Y`` (n x d), read one row at a time.

    Row ``i`` is computed on its first read and kept in ``rows``. Each entry
    is np.einsum's dot product of two rows of ``Y``, which never calls BLAS
    and sums in an order set by d alone: entry j of row i is exactly entry i
    of row j, whatever the BLAS thread count, and the diagonal (the squared
    row norms) is exactly each row's own entry.
    """

    def __init__(self, Y) -> None:
        self.factor = np.ascontiguousarray(Y, dtype=float)
        if self.factor.ndim != 2:
            raise ValueError("the factor of a gram must be a 2-d matrix")
        n = self.factor.shape[0]
        self.shape = (n, n)
        self.rows: dict[int, np.ndarray] = {}
        self._diag = np.einsum("ij,ij->i", self.factor, self.factor)

    def diagonal(self) -> np.ndarray:
        return self._diag

    def __getitem__(self, i: int) -> np.ndarray:
        row = self.rows.get(i)
        if row is None:
            row = self.rows[i] = np.einsum("ij,j->i", self.factor, self.factor[i])
        return row

    def __matmul__(self, a: np.ndarray) -> np.ndarray:
        return self.factor @ (self.factor.T @ a)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array([self[i] for i in range(self.shape[0])], dtype=dtype)


def _as_gram(Q):
    """``Q`` as the loop reads it: a FactorGram as it is, anything else as a
    square float array."""
    if isinstance(Q, FactorGram):
        return Q
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be square and p match its size")
    return Q


def _feasible_start(a0, n: int, box: float) -> np.ndarray:
    """A copy of ``a0``; raises when it is not a feasible point."""
    a = np.array(a0, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"a0 must have shape ({n},), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("a0 must be finite")
    if a.min() < 0.0 or a.max() > box:
        raise ValueError(f"a0 entries must lie in [0, {box}]")
    if abs(float(a.sum()) - 1.0) > START_SUM_TOL:
        raise ValueError(f"a0 must sum to 1, got {float(a.sum())!r}")
    return a


def solve_simplex_box_qp(Q, p: np.ndarray, box: float, max_iter: int = 100_000,
                         a0: np.ndarray | None = None, *, scale: float = 1.0) -> np.ndarray:
    """Minimize ``0.5 a'(scale Q)a + p'a`` over ``sum(a) = 1, 0 <= a <= box``.

    ``Q`` is a symmetric array or a :class:`FactorGram`: the gradient
    ``scale Q a + p`` is updated from rows of ``Q``, which are its columns
    only then. ``Q`` and ``p`` must be finite; a factor's finite diagonal
    bounds every entry (Cauchy-Schwarz). ``scale`` must be a power of two, so
    the loop returns the bytes it returns for the array ``scale Q``. Raises
    :class:`DualSolverError` when ``max_iter`` steps leave the worst KKT
    violation above the tolerance.
    """
    Q = _as_gram(Q)
    p = np.asarray(p, dtype=float)
    n = Q.shape[0]
    if p.shape != (n,):
        raise ValueError("Q must be square and p match its size")
    if not (scale > 0 and math.frexp(scale)[0] == 0.5):
        raise ValueError(f"scale must be a power of two, got {scale}")
    diag = Q.diagonal()
    entries = Q.factor if isinstance(Q, FactorGram) else Q
    if not (np.isfinite(entries).all() and np.isfinite(diag).all() and np.isfinite(p).all()):
        raise ValueError("Q and p must be finite")
    if box <= 0 or n * box < 1.0 - 1e-12:
        raise ValueError(f"box constraint 0 <= a <= {box} with sum(a)=1 is "
                         f"infeasible for n={n}")

    a = np.full(n, 1.0 / n) if a0 is None else _feasible_start(a0, n, box)
    if n * box <= 1.0 + 1e-12:
        # box exactly 1/n: the uniform point is the only feasible one
        return a
    # scaling by a power of two is exact, so every product below is the one
    # the array scale * Q would give
    g = Q @ a
    g *= scale
    g += p
    eps = 1e-12 * max(1.0, box)
    # the KKT violation scales with the gram magnitude; tighten the stopping
    # threshold on tiny-scale problems (e.g. strongly whitened data) so the
    # solution stays scale-equivariant, but never loosen it
    magnitude = max(scale * float(np.abs(diag).max()), float(np.abs(p).max()), 1e-12)
    tol = KKT_TOL * min(1.0, magnitude)
    best = np.inf

    # mass can move into entry k while a_k < high and out of it while
    # a_k > eps; the penalties keep every other entry out of the argmin
    # (argmax), which stays exact while g is finite. Only entries i and j
    # change per step, so only theirs are rewritten.
    high = box - eps
    up_pen = np.where(a < high, 0.0, np.inf)
    dn_pen = np.where(a > eps, 0.0, -np.inf)
    diag = (scale * diag).tolist()
    twice = 2.0 * scale
    buf_i = np.empty(n)
    buf_j = np.empty(n)
    for _ in range(max_iter):
        i = int(np.add(g, up_pen, out=buf_i).argmin())
        j = int(np.add(g, dn_pen, out=buf_j).argmax())
        if buf_i.item(i) == np.inf or buf_j.item(j) == -np.inf:
            return a
        viol = g.item(j) - g.item(i)
        best = min(best, viol)
        if viol < tol:
            return a

        row_i = Q[i]
        row_j = Q[j]
        denom = diag[i] + diag[j] - twice * row_i.item(j)
        a_i = a.item(i)
        a_j = a.item(j)
        t_max = min(box - a_i, a_j)
        t = min(viol / denom, t_max) if denom > 0 else t_max
        pair_sum = a_i + a_j
        ai_new = min(a_i + t, box, pair_sum)
        aj_new = pair_sum - ai_new
        # g += scale * (di Q_i + dj Q_j), summed in that order, without temporaries
        np.multiply(row_i, scale * (ai_new - a_i), out=buf_i)
        np.multiply(row_j, scale * (aj_new - a_j), out=buf_j)
        np.add(buf_i, buf_j, out=buf_i)
        np.add(g, buf_i, out=g)
        a[i] = ai_new
        a[j] = aj_new
        up_pen[i] = 0.0 if ai_new < high else np.inf
        up_pen[j] = 0.0 if aj_new < high else np.inf
        dn_pen[i] = 0.0 if ai_new > eps else -np.inf
        dn_pen[j] = 0.0 if aj_new > eps else -np.inf

    raise DualSolverError(f"no convergence after {max_iter} iterations", residual=float(best))


def solve_svdd_dual(K, C: float, max_iter: int = 100_000,
                    a0: np.ndarray | None = None) -> np.ndarray:
    """Dual coefficients of the soft hypersphere description.

    Maximizes ``sum_i a_i K_ii - a'Ka`` over the simplex with box ``C``; the
    returned alphas satisfy the distance-form KKT conditions within ``KKT_TOL``.
    ``K`` is a gram array or a :class:`FactorGram`; the dual's ``Q = 2K`` is
    read as ``K`` at scale 2, never copied. A feasible ``a0`` (e.g. the alphas
    of a nearby problem) starts the search there instead of at the uniform
    point.
    """
    K = _checked_svdd_gram(K, C)
    return solve_simplex_box_qp(K, -K.diagonal(), box=float(C), max_iter=max_iter,
                                a0=a0, scale=2.0)


def _checked_svdd_gram(K, C: float):
    """``K`` as the loop reads it; raises when the SVDD dual with box ``C``
    has no feasible point."""
    K = _as_gram(K)
    n = K.shape[0]
    if n == 0:
        raise ValueError("empty gram matrix")
    if not np.isfinite(C):
        raise ValueError(f"C must be finite, got {C}")
    if C < 1.0 / n - 1e-12:
        raise ValueError(f"C={C} is infeasible: the simplex needs C >= 1/n = {1.0 / n:.6g}")
    return K


def ball_start(K, C: float) -> np.ndarray:
    """A feasible start for the SVDD dual with box ``C``: mass 1/m on the
    m = ceil(1/C) rows farthest from the mean row by ``K_ii - 2 mean_j K_ij``,
    the lower index first on a tie. The optimum sits on few rows, so a solve
    from here reads few rows of ``K`` (the farthest-point start of Core Vector
    Machines, Tsang, Kwok and Cheung, JMLR 6, 2005). A :class:`FactorGram`
    ranks its rows by a row-wise einsum, never BLAS, so the start does not
    depend on the BLAS thread count.
    """
    K = _checked_svdd_gram(K, C)
    n = K.shape[0]
    # a non-finite K is the solver's to refuse; the ranking of its rows is moot
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(K, FactorGram):
            Y = K.factor
            mean_row = np.einsum("ij,j->i", Y, Y.mean(axis=0))
        else:
            mean_row = K.mean(axis=1)
        far = K.diagonal() - 2.0 * mean_row
    m = min(n, math.ceil(1.0 / C))
    a = np.zeros(n)
    # 1/m can exceed C by rounding when 1/C is within an ulp of an integer
    a[np.argsort(-far, kind="stable")[:m]] = min(1.0 / m, C)
    return a


def solve_ocsvm_dual(K, nu: float, max_iter: int = 100_000) -> np.ndarray:
    """Dual coefficients of the one-class SVM: min 0.5 a'Ka, box 1/(nu n);
    ``K`` is a gram array or a :class:`FactorGram`."""
    K = _as_gram(K)
    n = K.shape[0]
    if n == 0:
        raise ValueError("empty gram matrix")
    if not 0 < nu <= 1:
        raise ValueError(f"nu must be in (0, 1], got {nu}")
    return solve_simplex_box_qp(K, np.zeros(n), box=1.0 / (nu * n),
                                max_iter=max_iter)


def center_distances_sq(K, alphas: np.ndarray) -> np.ndarray:
    """Squared kernel distance of each training sample to the alpha-center."""
    K = _as_gram(K)
    Ka = K @ alphas
    return K.diagonal() - 2.0 * Ka + float(alphas @ Ka)
