import numpy as np
import pytest

from canoc import KernelSpec, ocsvm_fit, score_samples


def test_unbounded_support_vector_scores_zero(rng):
    X = rng.standard_normal((60, 3))
    nu = 0.2
    model = ocsvm_fit(X, nu, KernelSpec("rbf", 1.5))
    box = 1.0 / (nu * 60)
    unbounded = (model.alphas > 1e-6 * box) & (model.alphas < box * (1 - 1e-6))
    assert unbounded.any()
    scores = score_samples(model, model.support_samples[unbounded])
    assert np.abs(scores).max() <= 1e-6


def test_nu_one_uniform_alphas(rng):
    X = rng.standard_normal((15, 2))
    model = ocsvm_fit(X, 1.0)
    assert model.alphas == pytest.approx([1 / 15] * 15, abs=1e-12)


def test_alpha_invariants(rng):
    X = rng.standard_normal((40, 4))
    for nu in (0.05, 0.25, 0.8):
        model = ocsvm_fit(X, nu, KernelSpec("rbf", 2.0))
        assert abs(model.alphas.sum() - 1.0) <= 1e-6
        assert model.alphas.max() <= 1.0 / (nu * 40) + 1e-12


def test_nu_property_over_seeds():
    # structural nu-property: outliers are bound SVs, so the training outlier
    # fraction cannot exceed nu (plus solver slack)
    nu = 0.1
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((200, 4))
        model = ocsvm_fit(X, nu, KernelSpec("rbf"))
        fraction = float((score_samples(model, X) > 0).mean())
        assert fraction <= nu + 0.05, f"seed {seed}: {fraction}"


def test_nu_validation(rng):
    X = rng.standard_normal((10, 2))
    with pytest.raises(ValueError, match="nu"):
        ocsvm_fit(X, 0.0)
    with pytest.raises(ValueError, match="nu"):
        ocsvm_fit(X, 1.2)


def test_score_single_vector(rng):
    X = rng.standard_normal((30, 3))
    model = ocsvm_fit(X, 0.1, KernelSpec("rbf", 1.0))
    far = score_samples(model, [100.0, 100.0, 100.0])[0]
    assert far == pytest.approx(model.offset, abs=1e-9)  # kernel terms vanish
    assert far > 0
