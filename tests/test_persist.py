import inspect
import json

import numpy as np
import pytest

from canoc import (KernelSpec, esvdd_fit, fit_model, geocsvm_fit, gesvdd_fit,
                   load_model, ocsvm_fit, save_model, score_samples,
                   ssvdd_fit, svdd_fit)
from canoc.features import FeatureSpec, IdVocabulary, fit_scaler
from canoc.models import api
from canoc.models.persist import config_digest, model_tag


def fitted_models(rng):
    X = rng.standard_normal((50, 4))
    scaler = fit_scaler(X)
    rbf = KernelSpec("rbf")
    return {
        "svdd-linear": svdd_fit(X, 0.3, scaler=scaler),
        "svdd-rbf": svdd_fit(X, 0.3, rbf),
        "ssvdd-linear": ssvdd_fit(X, d=2, C=0.3, iterations=4, scaler=scaler),
        "ssvdd-rbf": ssvdd_fit(X, d=3, C=0.3, iterations=4, kernel=rbf),
        "esvdd": esvdd_fit(X, 0.3, 1e-2),
        "gesvdd": gesvdd_fit(X, 0.3, k=5),
        "ocsvm-linear": ocsvm_fit(X, 0.2, scaler=scaler),
        "ocsvm-rbf": ocsvm_fit(X, 0.2, rbf),
        "geocsvm": geocsvm_fit(X, 0.2, k=5),
    }


def test_every_family_roundtrips_bit_identically(tmp_path, rng):
    models = fitted_models(rng)
    probe = rng.standard_normal((100, 4)) * 2
    for name, model in models.items():
        path = tmp_path / f"{name}.json"
        save_model(model, str(path))
        loaded, spec = load_model(str(path))
        assert spec is None
        before = score_samples(model, probe)
        after = score_samples(loaded, probe)
        assert np.array_equal(before, after), name
        assert model_tag(loaded) == model_tag(model)
        assert config_digest(loaded) == config_digest(model)


def test_extraction_metadata_roundtrips(tmp_path, rng):
    model = svdd_fit(rng.standard_normal((10, 2)), 1.0)
    spec = FeatureSpec(IdVocabulary((0x100,)), window=2.0, stride=0.5,
                       stdev_mode="timestamps")
    path = tmp_path / "model.json"
    save_model(model, str(path), spec)
    _, loaded_spec = load_model(str(path))
    assert loaded_spec == spec


def test_rejects_foreign_or_future_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="not a canoc model"):
        load_model(str(path))
    path.write_text(json.dumps({"format": "canoc-model", "version": 99}))
    with pytest.raises(ValueError, match="version"):
        load_model(str(path))


def test_fit_model_factory_covers_families(rng):
    X = rng.standard_normal((40, 3))
    for family, params in [("svdd", {"C": 0.5}),
                           ("ssvdd", {"C": 0.5, "d": 2, "iterations": 3}),
                           ("esvdd", {"C": 0.5, "epsilon": 1e-2}),
                           ("gesvdd", {"C": 0.5, "k_neighbors": 4}),
                           ("ocsvm", {"nu": 0.1}),
                           ("geocsvm", {"nu": 0.1, "k_neighbors": 4})]:
        model = fit_model(family, X, **params)
        assert np.isfinite(score_samples(model, X)).all()
    with pytest.raises(ValueError, match="unknown model family"):
        fit_model("forest", X)
    with pytest.raises(ValueError, match="unknown hyperparameters"):
        fit_model("svdd", X, bogus=1)


def test_every_family_records_each_of_its_hyperparameters(rng):
    X = rng.standard_normal((40, 6))
    for family, keys in api.FAMILY_PARAMS.items():
        model = fit_model(family, X, **({"d": 2, "iterations": 3} if family == "ssvdd" else {}))
        assert set(keys) <= set(model.params), family
    # the subspace start changes the scores, so it changes the config hash
    starts = [{}, {"q_init": "random", "seed": 1}, {"q_init": "random", "seed": 2}]
    models = [fit_model("ssvdd", X, d=2, iterations=3, C=0.1, **start) for start in starts]
    assert len({config_digest(model) for model in models}) == 3
    assert len({score_samples(model, X).tobytes() for model in models}) == 3


def test_ssvdd_seed_enters_the_config_hash_only_for_the_random_start(rng):
    X = rng.standard_normal((40, 6))
    for q_init, distinct in (("pca", 1), ("random", 2)):
        models = [fit_model("ssvdd", X, d=2, iterations=3, C=0.1, q_init=q_init, seed=seed)
                  for seed in (1, 2)]
        assert len({config_digest(model) for model in models}) == distinct, q_init
        assert len({score_samples(model, X).tobytes() for model in models}) == distinct


def test_family_params_are_exactly_the_fitter_keywords():
    # every setting a fitter takes is reachable through fit_model; the CLI
    # has a flag for each but ssvdd's q_init and seed
    for family, keys in api.FAMILY_PARAMS.items():
        signature = inspect.signature(getattr(api, f"{family}_fit"))
        taken = set(signature.parameters) - {"X", "kernel", "scaler", "iteration_callback"}
        assert {"k" if key == "k_neighbors" else key for key in keys} == taken, family
