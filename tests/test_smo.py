import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canoc.models import (DualSolverError, FactorGram, KernelSpec, LINEAR, center_distances_sq,
                          fit_model, gram_matrix, solve_ocsvm_dual, solve_simplex_box_qp,
                          solve_svdd_dual, svdd_fit)
from canoc.models import smo
from canoc.models import svdd as svdd_module


def kkt_check(K, alphas, box, tol=1e-5):
    """Distance-form KKT oracle, computed from scratch."""
    assert abs(alphas.sum() - 1.0) <= 1e-6
    assert alphas.min() >= -1e-12 and alphas.max() <= box + 1e-12
    d2 = center_distances_sq(K, alphas)
    unbounded = (alphas > 1e-8 * box) & (alphas < box * (1 - 1e-8))
    if unbounded.any():
        r2 = d2[unbounded].mean()
        assert np.abs(d2[unbounded] - r2).max() <= tol
    else:
        r2 = d2[alphas > 1e-8 * box].mean()
    interior = alphas <= 1e-8 * box
    if interior.any():
        assert d2[interior].max() <= r2 + tol
    bound = alphas >= box * (1 - 1e-8)
    if bound.any():
        assert d2[bound].min() >= r2 - tol
    return r2


def test_two_symmetric_points():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    K = X @ X.T
    alphas = solve_svdd_dual(K, 1.0)
    assert alphas == pytest.approx([0.5, 0.5], abs=1e-9)
    r2 = kkt_check(K, alphas, 1.0)
    assert np.sqrt(r2) == pytest.approx(1.0, abs=1e-9)  # half the distance


def test_identical_points_give_uniform_alphas():
    X = np.ones((5, 3))
    K = X @ X.T
    alphas = solve_svdd_dual(K, 1.0)
    assert alphas == pytest.approx([0.2] * 5, abs=1e-12)
    assert center_distances_sq(K, alphas).max() <= 1e-12


def test_equilateral_triangle_circumradius():
    side = 2.0
    X = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * np.sqrt(3) / 2]])
    K = X @ X.T
    alphas = solve_svdd_dual(K, 1.0)
    assert alphas == pytest.approx([1 / 3] * 3, abs=1e-7)
    r2 = kkt_check(K, alphas, 1.0, tol=1e-6)
    # hand-computed circumcenter: the centroid; R = side / sqrt(3)
    assert np.sqrt(r2) == pytest.approx(side / np.sqrt(3), abs=1e-6)


def test_infeasible_c_raises():
    K = np.eye(4)
    with pytest.raises(ValueError, match="infeasible"):
        solve_svdd_dual(K, 0.2)  # needs C >= 1/4


@pytest.mark.parametrize("C", [float("nan"), float("inf")])
def test_non_finite_c_raises_naming_c(C):
    with pytest.raises(ValueError, match="C must be finite"):
        solve_svdd_dual(np.eye(4), C)


def test_nonconvergence_carries_residual():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 2))
    with pytest.raises(DualSolverError) as err:
        solve_svdd_dual(X @ X.T, 0.2, max_iter=2)
    assert err.value.residual > 0


def random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    X = rng.standard_normal((n, int(rng.integers(2, 6))))
    kernel = KernelSpec("linear") if seed % 2 else KernelSpec("rbf", 1.5)
    K = gram_matrix(X, X, kernel)
    C = float(rng.uniform(1.5 / n, 1.0))
    return K, C, rng


@pytest.mark.parametrize("seed", range(8))
def test_random_instances_satisfy_kkt(seed):
    K, C, _ = random_instance(seed)
    kkt_check(K, solve_svdd_dual(K, C), C)


def random_feasible_point(rng, n, box):
    """A point of {sum(a) = 1, 0 <= a <= box} away from the uniform one."""
    a = rng.dirichlet(np.ones(n))
    while a.max() > box:  # pull towards the uniform point, which is inside
        a = 0.5 * (a + 1.0 / n)
    return a


@pytest.mark.parametrize("seed", range(8))
def test_warm_start_from_random_feasible_point_satisfies_kkt(seed):
    K, C, rng = random_instance(seed)
    a0 = random_feasible_point(rng, K.shape[0], C)
    assert abs(a0.sum() - 1.0) <= 1e-12 and not np.allclose(a0, 1.0 / K.shape[0])
    given = a0.copy()
    kkt_check(K, solve_svdd_dual(K, C, a0=a0), C)
    assert np.array_equal(a0, given)  # the caller's start is not written to


def test_warm_start_from_solution_returns_it_unchanged():
    K, C, _ = random_instance(2)
    solution = solve_svdd_dual(K, C)
    again = solve_svdd_dual(K, C, max_iter=1, a0=solution)
    assert again.tobytes() == solution.tobytes()


@pytest.mark.parametrize("a0", [
    np.full(3, 1 / 3),
    np.array([[0.25, 0.25, 0.25, 0.25]]),
    np.array([-0.1, 0.4, 0.35, 0.35]),
    np.array([0.55, 0.15, 0.15, 0.15]),
    np.array([0.25, 0.25, 0.25, 0.3]),
    np.array([0.25, 0.25, 0.25, 0.25 + 1e-8]),
    np.array([np.nan, 0.25, 0.25, 0.25]),
], ids=["short", "2-d", "negative", "above box", "sum 1.05", "sum 1+1e-8", "nan"])
def test_infeasible_warm_start_raises(a0):
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # box C = 0.5
    with pytest.raises(ValueError, match="a0"):
        solve_svdd_dual(X @ X.T, 0.5, a0=a0)


def test_gram_psd_after_symmetrization(rng):
    X = rng.standard_normal((40, 3))
    for kernel in (KernelSpec("linear"), KernelSpec("rbf", 0.7)):
        K = gram_matrix(X, X, kernel)
        K = 0.5 * (K + K.T)
        assert np.linalg.eigvalsh(K).min() >= -1e-8


# --- OC-SVM dual ------------------------------------------------------------

def test_ocsvm_nu_one_forces_uniform():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 3))
    alphas = solve_ocsvm_dual(X @ X.T, 1.0)
    assert alphas == pytest.approx([1 / 12] * 12, abs=1e-12)


def test_ocsvm_nu_out_of_range():
    K = np.eye(3)
    with pytest.raises(ValueError, match="nu"):
        solve_ocsvm_dual(K, 0.0)
    with pytest.raises(ValueError, match="nu"):
        solve_ocsvm_dual(K, 1.5)


def test_ocsvm_dual_feasibility(rng):
    X = rng.standard_normal((50, 4))
    K = gram_matrix(X, X, KernelSpec("rbf", 2.0))
    for nu in (0.05, 0.3, 0.9):
        alphas = solve_ocsvm_dual(K, nu)
        assert abs(alphas.sum() - 1.0) <= 1e-6
        assert alphas.max() <= 1.0 / (nu * 50) + 1e-12
        assert alphas.min() >= 0.0


# --- the iteration loop against its first form ----------------------------------

def reference_solve(Q, p, box, max_iter=100_000, a0=None):
    """The solver's first loop, kept verbatim: fresh masks, np.where and
    column reads on every step. The solver must return its bytes."""
    Q = np.asarray(Q, dtype=float)
    p = np.asarray(p, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n) or p.shape != (n,):
        raise ValueError("Q must be square and p match its size")
    if box <= 0 or n * box < 1.0 - 1e-12:
        raise ValueError(f"box constraint 0 <= a <= {box} with sum(a)=1 is "
                         f"infeasible for n={n}")

    a = np.full(n, 1.0 / n) if a0 is None else smo._feasible_start(a0, n, box)
    if n * box <= 1.0 + 1e-12:
        # box exactly 1/n: the uniform point is the only feasible one
        return a
    g = Q @ a + p
    eps = 1e-12 * max(1.0, box)
    # the KKT violation scales with the gram magnitude; tighten the stopping
    # threshold on tiny-scale problems (e.g. strongly whitened data) so the
    # solution stays scale-equivariant, but never loosen it
    scale = max(float(np.abs(np.diag(Q)).max()), float(np.abs(p).max()), 1e-12)
    tol = smo.KKT_TOL * min(1.0, scale)
    best = np.inf

    for _ in range(max_iter):
        up = a < box - eps  # mass can move in
        dn = a > eps        # mass can move out
        if not up.any() or not dn.any():
            return a
        i = int(np.argmin(np.where(up, g, np.inf)))
        j = int(np.argmax(np.where(dn, g, -np.inf)))
        viol = g[j] - g[i]
        best = min(best, viol)
        if viol < tol:
            return a

        denom = Q[i, i] + Q[j, j] - 2.0 * Q[i, j]
        t_max = min(box - a[i], a[j])
        t = min(viol / denom, t_max) if denom > 0 else t_max
        pair_sum = a[i] + a[j]
        ai_new = min(a[i] + t, box, pair_sum)
        aj_new = pair_sum - ai_new
        g += (ai_new - a[i]) * Q[:, i] + (aj_new - a[j]) * Q[:, j]
        a[i] = ai_new
        a[j] = aj_new

    raise DualSolverError(f"no convergence after {max_iter} iterations", residual=float(best))


def _outcome(solve, *args, **kwargs):
    """The bytes a solve returns, or the message and residual it raises."""
    try:
        return solve(*args, **kwargs).tobytes()
    except DualSolverError as err:
        return str(err), err.residual


def _dual(K, svdd):
    """(Q, p) of the SVDD dual (Q = 2K, p = -diag K) or the OC-SVM dual."""
    return (2.0 * K, -np.diag(K).copy()) if svdd else (K, np.zeros(K.shape[0]))


@st.composite
def qp_instances(draw):
    """(Q, p, box, a0) of an SVDD or OC-SVM dual on a linear or rbf gram."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 5))
    if draw(st.booleans()):  # small integers: exact products, many tied gradients
        X = rng.integers(-2, 3, size=(n, dim)).astype(float)
    else:
        X = rng.standard_normal((n, dim))
    for _ in range(draw(st.integers(0, n // 2))):  # duplicate rows tie exactly
        X[rng.integers(n)] = X[rng.integers(n)]
    kernel = draw(st.sampled_from([KernelSpec("linear"), KernelSpec("rbf", 1.0),
                                   KernelSpec("rbf", 0.3)]))
    if kernel.kind == "linear":  # a tiny-scale (strongly whitened) gram takes the tightened tol
        X *= 10.0 ** -draw(st.sampled_from([0, 0, 2, 4]))
    svdd = draw(st.booleans())
    if svdd:  # box C from exactly 1/n up to 1; one near 1/n keeps many alphas at the box
        box = draw(st.sampled_from([1.0, 1.5, 3.0])) / n
        box = draw(st.sampled_from([box, 1.0, float(rng.uniform(1.0 / n, 1.0))]))
    else:     # box 1/(nu n)
        box = 1.0 / (draw(st.sampled_from([0.05, 0.3, 1.0, float(rng.uniform(0.01, 1.0))])) * n)
    a0 = None
    if draw(st.booleans()):  # warm start: the alphas of a neighbouring problem
        step = draw(st.sampled_from([0.05, 0.5])) * np.abs(X).max()
        near = X + step * rng.standard_normal(X.shape)
        try:  # a few rbf instances stall just above the tolerance; they start cold
            a0 = reference_solve(*_dual(gram_matrix(near, near, kernel), svdd), box,
                                 max_iter=5_000)
        except DualSolverError:
            pass
    return (*_dual(gram_matrix(X, X, kernel), svdd), box, a0)


@given(qp_instances(), st.sampled_from([1, 2, 3, 7, 100_000]))
@settings(max_examples=300, deadline=None)
def test_solver_returns_the_bytes_of_the_reference_loop(instance, max_iter):
    Q, p, box, a0 = instance
    expected = _outcome(reference_solve, Q, p, box, max_iter=max_iter, a0=a0)
    assert _outcome(solve_simplex_box_qp, Q, p, box, max_iter=max_iter, a0=a0) == expected


@pytest.mark.parametrize("where, value", [("Q", np.nan), ("Q", np.inf), ("p", -np.inf)])
def test_non_finite_q_or_p_raises(where, value):
    Q, p = 2.0 * np.eye(3), -np.ones(3)
    (Q[0] if where == "Q" else p)[1] = value
    with pytest.raises(ValueError, match="Q and p must be finite"):
        solve_simplex_box_qp(Q, p, 1.0)


@pytest.mark.parametrize("family, params", [
    ("svdd", {}), ("ssvdd", {"iterations": 3}), ("esvdd", {}),
    ("gesvdd", {}), ("ocsvm", {}), ("geocsvm", {})])
@pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf")], ids=["linear", "rbf"])
def test_every_family_passes_the_solver_an_exactly_symmetric_q(monkeypatch, rng, family,
                                                                params, kernel):
    # the solver reads rows of Q where the gradient needs its columns
    seen = []

    def record(Q, *args, **kwargs):
        seen.append(np.array(Q))
        return solve_simplex_box_qp(Q, *args, **kwargs)

    monkeypatch.setattr(smo, "solve_simplex_box_qp", record)
    fit_model(family, rng.standard_normal((50, 6)) * [1.0, 2.0, 0.5, 3.0, 1.0, 0.1],
              kernel=kernel, **params)
    assert seen
    for Q in seen:
        assert np.array_equal(Q, Q.T)


# --- the dual's quadratic term read a row at a time ------------------------------

@given(qp_instances(), st.sampled_from([1, 2, 3, 7, 100_000]))
@settings(max_examples=200, deadline=None)
def test_svdd_dual_reads_2k_as_k_at_scale_two_with_the_same_bytes(instance, max_iter):
    # every instance's Q is a symmetric gram: take it as the K of an SVDD dual
    K, _, C, a0 = instance
    expected = _outcome(solve_simplex_box_qp, 2.0 * K, -np.diag(K).copy(), C,
                        max_iter=max_iter, a0=a0)
    assert _outcome(solve_svdd_dual, K, C, max_iter=max_iter, a0=a0) == expected


@st.composite
def factors(draw, exponents=(0, 0, 2, 4, 8)):
    """A data factor Y: n <= 60 rows of 1-10 columns, with duplicate rows and
    tiny (strongly whitened) scales 10^-exponent."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = rng.standard_normal((n, draw(st.integers(1, 10))))
    for _ in range(draw(st.integers(0, n // 2))):
        Y[rng.integers(n)] = Y[rng.integers(n)]
    return Y * 10.0 ** -draw(st.sampled_from(exponents))


@given(factors())
@settings(max_examples=200, deadline=None)
def test_factor_rows_are_exactly_symmetric_and_match_the_gram(Y):
    F = FactorGram(Y)
    rows = np.array([F[i] for i in range(Y.shape[0])])
    assert np.array_equal(rows, rows.T)
    assert np.array_equal(np.diagonal(rows), F.diagonal())
    assert np.array_equal(np.array(F), rows)
    assert np.array_equal(rows, gram_matrix(Y, Y, LINEAR))
    K = Y @ Y.T
    assert np.abs(rows - K).max() <= 1e-12 * max(np.abs(K).max(), np.finfo(float).tiny)
    a = np.random.default_rng(0).dirichlet(np.ones(Y.shape[0]))
    assert np.abs(F @ a - K @ a).max() <= 1e-12 * max(np.abs(K).max(), np.finfo(float).tiny)


def svdd_objective(K, alphas):
    return float(alphas @ np.diag(K) - alphas @ K @ alphas)


def distance_kkt(K, alphas, box, tol=1e-5):
    """Criterion 2's distance-form KKT on every row. When every support
    vector is bounded, R^2 may be any value from the interior rows' largest
    distance to the bounded rows' smallest."""
    assert abs(alphas.sum() - 1.0) <= 1e-6
    assert alphas.min() >= 0.0 and alphas.max() <= box + 1e-12
    d2 = center_distances_sq(K, alphas)
    unbounded = (alphas > 1e-8 * box) & (alphas < box * (1 - 1e-8))
    inside = d2[alphas <= 1e-8 * box].max(initial=-np.inf)
    outside = d2[alphas >= box * (1 - 1e-8)].min(initial=np.inf)
    if unbounded.any():
        r2 = d2[unbounded].mean()
        assert np.abs(d2[unbounded] - r2).max() <= tol
        assert inside <= r2 + tol and outside >= r2 - tol
    else:
        assert inside <= outside + tol


# the solver's tolerance stops shrinking with grams below 1e-12, so the
# scales stop at qp_instances' 1e-4
@given(factors(exponents=(0, 0, 2, 4)), st.sampled_from([1.5, 3.0, 10.0, None]))
@settings(max_examples=200, deadline=None)
def test_solves_on_the_factor_and_on_the_gram_meet_the_same_kkt(Y, box_times_n):
    n = Y.shape[0]
    C = 1.0 if box_times_n is None else min(box_times_n / n, 1.0)
    K = Y @ Y.T
    on_factor = solve_svdd_dual(FactorGram(Y), C)
    on_gram = solve_svdd_dual(K, C)
    # criterion 2's distance-form KKT on distances from the gram, relative to
    # its scale where the solver's tolerance is (below 1)
    scale = max(float(np.diag(K).max()), 1e-300)
    distance_kkt(K / min(1.0, scale), on_factor, C)
    distance_kkt(K / min(1.0, scale), on_gram, C)
    # each is within the stopping threshold of the optimum: the Frank-Wolfe
    # gap is at most the worst pair violation
    tol = smo.KKT_TOL * min(1.0, 2.0 * scale)
    gap = abs(svdd_objective(K, on_factor) - svdd_objective(K, on_gram))
    assert gap <= tol + 1e-9 * scale


def test_a_factor_with_a_non_finite_entry_raises():
    Y = np.ones((4, 2))
    Y[2, 1] = np.inf
    with pytest.raises(ValueError, match="Q and p must be finite"):
        solve_svdd_dual(FactorGram(Y), 1.0)


# --- a cold SVDD dual starts at the farthest rows --------------------------------

@st.composite
def cold_svdd_duals(draw):
    """(K, C) of an SVDD dual: a FactorGram or a dense linear or rbf gram of
    rows with duplicates and, on small integers, exactly tied distances,
    and C from exactly 1/n up to 1."""
    Y = draw(factors(exponents=(0, 0, 2, 4)))
    if draw(st.booleans()):
        Y = np.rint(2.0 * Y / np.abs(Y).max())
    n = Y.shape[0]
    kind = draw(st.sampled_from(["factor", "linear", "rbf"]))
    K = FactorGram(Y) if kind == "factor" else gram_matrix(
        Y, Y, KernelSpec("rbf", 1.0) if kind == "rbf" else LINEAR)
    C = draw(st.one_of(st.sampled_from([1.0, 1.5, 3.0]).map(lambda m: min(m / n, 1.0)),
                       st.floats(0.0, 1.0).map(lambda u: 1.0 / n + u * (1.0 - 1.0 / n)),
                       st.just(1.0)))
    return K, C


@given(cold_svdd_duals())
@settings(max_examples=200, deadline=None)
def test_the_ball_start_is_feasible_and_solves_to_the_uniform_starts_optimum(instance):
    K, C = instance
    a0 = smo.ball_start(K, C)
    assert abs(float(a0.sum()) - 1.0) <= smo.START_SUM_TOL
    assert a0.min() >= 0.0 and a0.max() <= C
    dense = np.array(K)
    scale = max(float(np.diag(dense).max()), 1e-300)
    from_ball = solve_svdd_dual(K, C, a0=a0)
    distance_kkt(dense / min(1.0, scale), from_ball, C)
    # both are within the stopping threshold of the optimum
    gap = abs(svdd_objective(dense, from_ball) - svdd_objective(dense, solve_svdd_dual(K, C)))
    assert gap <= smo.KKT_TOL * min(1.0, 2.0 * scale) + 1e-9 * scale


@pytest.mark.parametrize("as_factor", [True, False], ids=["factor", "gram"])
@pytest.mark.parametrize("Y, C, expected", [
    ([[0.0], [2.0], [-2.0], [-2.0]], 1.0, [0, 1, 0, 0]),         # mean -0.5: row 1 is farthest
    ([[1.0], [-1.0], [1.0], [-1.0]], 1.0, [1, 0, 0, 0]),         # all tied: the lowest index
    ([[1.0], [-1.0], [1.0], [-1.0]], 0.5, [0.5, 0.5, 0, 0]),     # m = 2 of the tied rows
    ([[1.0], [-1.0], [1.0], [-1.0]], 0.3, [0.25] * 4),           # m = 4: the uniform point
    ([[0.0], [3.0], [1.0], [-3.0], [0.0]], 0.5, [0, 0.5, 0, 0.5, 0])])
def test_the_ball_start_puts_equal_mass_on_the_farthest_rows(Y, C, expected, as_factor):
    Y = np.array(Y)
    K = FactorGram(Y) if as_factor else Y @ Y.T
    assert np.array_equal(smo.ball_start(K, C), expected)


@pytest.mark.parametrize("C, message", [(np.inf, "C must be finite"), (-np.inf, "C must be finite"),
                                         (np.nan, "C must be finite"), (0.2, "infeasible")])
def test_the_ball_start_refuses_a_c_the_solver_refuses_with_its_message(C, message):
    with pytest.raises(ValueError, match=message):
        smo.ball_start(FactorGram(np.ones((4, 2))), C)


@pytest.mark.parametrize("value", [np.inf, np.nan, 1e200])
def test_a_cold_fit_on_rows_beyond_the_float_range_raises_the_solvers_error(value):
    # the start ranks the rows first; that must neither warn nor pre-empt the message
    X = np.array([[1.0, value], [0.0, 1.0], [-value, 2.0]])
    with pytest.raises(ValueError, match="Q and p must be finite"):
        svdd_fit(X)


def test_a_cold_linear_fit_reads_few_factor_rows_and_forms_no_n_by_n_product(monkeypatch):
    n = 4_000
    X = np.random.default_rng(3).standard_normal((n, 12))
    rows_read = []

    def spy(K, C, **kwargs):
        assert isinstance(K, FactorGram)
        alphas = solve_svdd_dual(K, C, **kwargs)
        rows_read.append(len(K.rows))
        return alphas

    monkeypatch.setattr(svdd_module, "solve_svdd_dual", spy)
    tracemalloc.start()
    try:
        svdd_fit(X, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows_read) == 1 and rows_read[0] < n / 20
    assert peak < n * n * 8 / 20
