"""Pairwise-coordinate (SMO-style) solver for simplex-box quadratic programs.

Solves  min_a  0.5 a'Qa + p'a   s.t.  sum(a) = 1,  0 <= a_i <= box.

Both one-class duals are instances of this program:

* SVDD:   max  sum_i a_i K_ii - a'Ka   ->  Q = 2K, p = -diag(K), box = C
* OC-SVM: min  0.5 a'Ka               ->  Q = K,  p = 0,        box = 1/(nu n)

Each step picks the maximal-violating pair (steepest feasible descent
coordinate up, steepest ascent coordinate down) and moves mass between the
two, which preserves the simplex constraint exactly. Termination when the
worst KKT violation drops below ``KKT_TOL``. The search starts from the uniform
point, or from a caller's feasible ``a0`` (a warm start).
"""

from __future__ import annotations

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


def solve_simplex_box_qp(Q: np.ndarray, p: np.ndarray, box: float,
                         max_iter: int = 100_000, a0: np.ndarray | None = None) -> np.ndarray:
    """Minimize ``0.5 a'Qa + p'a`` over ``sum(a) = 1, 0 <= a <= box``.

    ``Q`` must be symmetric, as every gram is: the gradient ``Q a + p`` is
    updated from rows of ``Q``, which are its columns only then. ``Q`` and
    ``p`` must be finite. Raises :class:`DualSolverError` when ``max_iter``
    steps leave the worst KKT violation above the tolerance.
    """
    Q = np.asarray(Q, dtype=float)
    p = np.asarray(p, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n) or p.shape != (n,):
        raise ValueError("Q must be square and p match its size")
    if not (np.isfinite(Q).all() and np.isfinite(p).all()):
        raise ValueError("Q and p must be finite")
    if box <= 0 or n * box < 1.0 - 1e-12:
        raise ValueError(f"box constraint 0 <= a <= {box} with sum(a)=1 is "
                         f"infeasible for n={n}")

    a = np.full(n, 1.0 / n) if a0 is None else _feasible_start(a0, n, box)
    if n * box <= 1.0 + 1e-12:
        # box exactly 1/n: the uniform point is the only feasible one
        return a
    g = Q @ a + p
    eps = 1e-12 * max(1.0, box)
    # the KKT violation scales with the gram magnitude; tighten the stopping
    # threshold on tiny-scale problems (e.g. strongly whitened data) so the
    # solution stays scale-equivariant, but never loosen it
    scale = max(float(np.abs(np.diag(Q)).max()), float(np.abs(p).max()), 1e-12)
    tol = KKT_TOL * min(1.0, scale)
    best = np.inf

    # mass can move into entry k while a_k < high and out of it while
    # a_k > eps; the penalties keep every other entry out of the argmin
    # (argmax), which stays exact while g is finite. Only entries i and j
    # change per step, so only theirs are rewritten.
    high = box - eps
    up_pen = np.where(a < high, 0.0, np.inf)
    dn_pen = np.where(a > eps, 0.0, -np.inf)
    diag = Q.diagonal().tolist()
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

        denom = diag[i] + diag[j] - 2.0 * Q.item(i, j)
        a_i = a.item(i)
        a_j = a.item(j)
        t_max = min(box - a_i, a_j)
        t = min(viol / denom, t_max) if denom > 0 else t_max
        pair_sum = a_i + a_j
        ai_new = min(a_i + t, box, pair_sum)
        aj_new = pair_sum - ai_new
        # g += (di Q_i + dj Q_j), summed in that order, without temporaries
        np.multiply(Q[i], ai_new - a_i, out=buf_i)
        np.multiply(Q[j], aj_new - a_j, out=buf_j)
        np.add(buf_i, buf_j, out=buf_i)
        np.add(g, buf_i, out=g)
        a[i] = ai_new
        a[j] = aj_new
        up_pen[i] = 0.0 if ai_new < high else np.inf
        up_pen[j] = 0.0 if aj_new < high else np.inf
        dn_pen[i] = 0.0 if ai_new > eps else -np.inf
        dn_pen[j] = 0.0 if aj_new > eps else -np.inf

    raise DualSolverError(f"no convergence after {max_iter} iterations", residual=float(best))


def solve_svdd_dual(K: np.ndarray, C: float, max_iter: int = 100_000,
                    a0: np.ndarray | None = None) -> np.ndarray:
    """Dual coefficients of the soft hypersphere description.

    Maximizes ``sum_i a_i K_ii - a'Ka`` over the simplex with box ``C``; the
    returned alphas satisfy the distance-form KKT conditions within ``KKT_TOL``.
    A feasible ``a0`` (e.g. the alphas of a nearby problem) starts the search
    there instead of at the uniform point.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if n == 0:
        raise ValueError("empty gram matrix")
    if not np.isfinite(C):
        raise ValueError(f"C must be finite, got {C}")
    if C < 1.0 / n - 1e-12:
        raise ValueError(f"C={C} is infeasible: the simplex needs C >= 1/n = {1.0 / n:.6g}")
    return solve_simplex_box_qp(2.0 * K, -np.diag(K).copy(), box=float(C),
                                max_iter=max_iter, a0=a0)


def solve_ocsvm_dual(K: np.ndarray, nu: float, max_iter: int = 100_000) -> np.ndarray:
    """Dual coefficients of the one-class SVM: min 0.5 a'Ka, box 1/(nu n)."""
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if n == 0:
        raise ValueError("empty gram matrix")
    if not 0 < nu <= 1:
        raise ValueError(f"nu must be in (0, 1], got {nu}")
    return solve_simplex_box_qp(K, np.zeros(n), box=1.0 / (nu * n),
                                max_iter=max_iter)


def center_distances_sq(K: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Squared kernel distance of each training sample to the alpha-center."""
    Ka = K @ alphas
    return np.diag(K) - 2.0 * Ka + float(alphas @ Ka)
