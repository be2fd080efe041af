import contextlib
import inspect
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from canoc import (KernelSpec, esvdd_fit, fit_model, geocsvm_fit, gesvdd_fit,
                   load_model, ocsvm_fit, save_model, score_samples,
                   ssvdd_fit, svdd_fit)
from canoc.cli import main
from canoc.features import FeatureSpec, IdVocabulary, fit_scaler, spec_to_dict
from canoc.models import api
from canoc.models.persist import config_digest, model_tag, model_to_dict
from test_features import JSON_VALUES


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


def test_every_family_scores_zero_rows_as_an_empty_array(rng):
    for name, model in fitted_models(rng).items():
        scores = score_samples(model, np.empty((0, 4)))
        assert scores.shape == (0,) and scores.dtype == np.float64, name
        with pytest.raises(ValueError):
            score_samples(model, np.empty((0, 3)))


def test_extraction_metadata_roundtrips(tmp_path, rng):
    model = svdd_fit(rng.standard_normal((10, 2)), 1.0)
    spec = FeatureSpec(IdVocabulary((0x100,)), window=2.0, stride=0.5,
                       stdev_mode="timestamps")
    path = tmp_path / "model.json"
    save_model(model, str(path), spec)
    _, loaded_spec = load_model(str(path))
    assert loaded_spec == spec


def test_load_model_rejects_extraction_of_another_dimension(tmp_path, rng):
    X = rng.standard_normal((10, 6))
    model = svdd_fit(X, 1.0, scaler=fit_scaler(X))
    path = tmp_path / "model.json"
    spec = FeatureSpec(IdVocabulary((0x100, 0x200), include_other_bucket=False))
    save_model(model, str(path), spec)
    assert load_model(str(path))[1] == spec
    save_model(model, str(path), FeatureSpec(IdVocabulary((0x100, 0x200))))  # 9 columns
    with pytest.raises(ValueError, match="'extraction': vocabulary dimension 9 "
                                         "does not match model dimension 6"):
        load_model(str(path))


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


# --- any model file either loads or is a ValueError ------------------------------

def _model_doc():
    """A small valid model file document, with an extraction block."""
    X = np.arange(18, dtype=float).reshape(6, 3) % 5
    scaler = fit_scaler(X)
    model = svdd_fit((X - scaler.mean) / scaler.stdev, 0.5, scaler=scaler)
    doc = model_to_dict(model)
    doc["extraction"] = spec_to_dict(FeatureSpec(IdVocabulary((0x100,), False)))
    return doc


MODEL_DOC = _model_doc()


def _paths(value, path=()):
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


def nested(depth: int, leaf: str = "1.0") -> str:
    return "[" * depth + leaf + "]" * depth


def with_value(key: str, text: str) -> str:
    """The valid model file's text with ``key``'s value spelled ``text``."""
    return json.dumps({**MODEL_DOC, key: "@@"}).replace('"@@"', text, 1)


@st.composite
def model_texts(draw):
    """The valid model file's text with one value, at any depth, replaced by
    any JSON value or by deeply nested lists, or dropped; or any text."""
    if draw(st.booleans()):
        return draw(st.text(max_size=40))
    doc = json.loads(json.dumps(MODEL_DOC))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    edit = draw(st.sampled_from(["replace", "nest", "drop"]))
    if edit == "drop":
        del parent[path[-1]]
        return json.dumps(doc)
    parent[path[-1]] = "@@"
    text = (json.dumps(draw(JSON_VALUES)) if edit == "replace"
            else nested(draw(st.integers(800, 1200))))
    return json.dumps(doc).replace('"@@"', text, 1)


@pytest.fixture(scope="module")
def clean_log(tmp_path_factory):
    log = tmp_path_factory.mktemp("log") / "log.csv"
    assert main(["simulate", "--out", str(log), "--duration", "3"]) == 0
    return str(log)


@given(model_texts())
@example(nested(100_000, ""))
@example(with_value("r_squared", nested(990)))
@example(with_value("alphas", nested(990)))
@settings(max_examples=200, deadline=None)
def test_any_model_file_loads_or_is_an_input_error(clean_log, text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        try:
            load_model(path)
            loaded = True
        except ValueError:
            loaded = False
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["detect", "--model", path, "--in", clean_log])
    assert code in (0, 2, 4) if loaded else code == 2
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
