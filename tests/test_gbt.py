"""Boosted trees: split search against exhaustive enumeration, prediction
against an independent traversal, and the textual dump format."""

import json

import numpy as np
import pytest

from losscast.gbt import (
    BoostedForest,
    GBTParams,
    GBTPredictor,
    fit_gbt,
    fit_gbt_arrays,
)
from losscast.ingest import record_from_obj
from losscast.lawfit import ChinchillaFit, ChinchillaPredictor, Scope
from losscast.schema import Schema, SchemaError
from conftest import make_config


def walk_tree(forest, t, x):
    """Independent per-tree traversal straight off the flat arrays."""
    i = forest.offsets[t]
    while forest.feature[i] >= 0:
        if x[forest.feature[i]] <= forest.threshold[i]:
            i = forest.left[i]
        else:
            i = forest.right[i]
    return forest.value[i]


def reference_predict(forest, x):
    out = np.full(x.shape[0], forest.base_score, dtype=np.float64)
    for r in range(x.shape[0]):
        for t in range(len(forest.offsets)):
            out[r] += forest.learning_rate * walk_tree(forest, t, x[r])
    return out


def test_predictions_match_independent_traversal(rng):
    x = rng.normal(size=(300, 6))
    y = 2.0 * x[:, 0] + np.sin(3 * x[:, 1]) + 0.5 * (x[:, 2] > 0)
    forest = fit_gbt_arrays(x, y, GBTParams(rounds=40, max_depth=4))
    q = rng.normal(size=(100, 6))
    got = forest.predict(q)
    want = reference_predict(forest, q)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_single_stump_learns_a_step():
    x = np.array([[0.0], [0.0], [0.0], [0.0], [1.0], [1.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    forest = fit_gbt_arrays(x, y, GBTParams(rounds=1, max_depth=1,
                                            learning_rate=1.0, min_leaf=1))
    np.testing.assert_allclose(forest.predict(x), y, atol=1e-12)


def test_piecewise_constant_function_is_fit_exactly():
    x = np.repeat(np.arange(4.0), 10)[:, None]
    y = np.repeat([3.0, -1.0, 2.0, 0.5], 10)
    forest = fit_gbt_arrays(x, y, GBTParams(rounds=60, max_depth=3,
                                            learning_rate=0.5, min_leaf=2))
    np.testing.assert_allclose(forest.predict(x), y, atol=1e-9)


def test_training_error_decreases_with_rounds(rng):
    x = rng.normal(size=(400, 4))
    y = x[:, 0] ** 2 + x[:, 1] - 0.3 * x[:, 2] * x[:, 3]
    errs = []
    for rounds in (5, 25, 100):
        forest = fit_gbt_arrays(x, y, GBTParams(rounds=rounds, max_depth=4))
        errs.append(float(np.mean((forest.predict(x) - y) ** 2)))
    assert errs[0] > errs[1] > errs[2]


def test_min_leaf_is_respected():
    params = GBTParams(rounds=10, max_depth=6, min_leaf=7)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    forest = fit_gbt_arrays(x, y, params)
    # replay every leaf's population with an independent routing pass
    counts = {}
    for r in range(x.shape[0]):
        for t in range(len(forest.offsets)):
            i = forest.offsets[t]
            while forest.feature[i] >= 0:
                if x[r, forest.feature[i]] <= forest.threshold[i]:
                    i = forest.left[i]
                else:
                    i = forest.right[i]
            counts[i] = counts.get(i, 0) + 1
    assert min(counts.values()) >= params.min_leaf


def test_fit_is_deterministic(rng):
    x = np.round(rng.normal(size=(150, 5)), 2)  # duplicates force tie-breaks
    y = rng.normal(size=150)
    a = fit_gbt_arrays(x, y, GBTParams(rounds=30, max_depth=4))
    b = fit_gbt_arrays(x, y, GBTParams(rounds=30, max_depth=4))
    np.testing.assert_array_equal(a.threshold, b.threshold)
    np.testing.assert_array_equal(a.feature, b.feature)
    np.testing.assert_array_equal(a.value, b.value)


def test_dump_text_round_trip(rng):
    x = rng.normal(size=(120, 4))
    y = x[:, 0] - x[:, 3] ** 2
    forest = fit_gbt_arrays(x, y, GBTParams(rounds=15, max_depth=3))
    text = forest.dump_text()
    back = BoostedForest.from_text(text)
    q = rng.normal(size=(50, 4))
    np.testing.assert_array_equal(forest.predict(q), back.predict(q))
    assert back.dump_text() == text


def residual_fixture():
    fit = ChinchillaFit(e=1.7, a=6.2, b=1.8, alpha=0.32, beta=0.28,
                        scope=Scope("synthetic"), objective=0.0, n_points=0)
    baselines = {Scope("synthetic"): fit}
    rng = np.random.default_rng(4)
    recs = []
    for i in range(80):
        lr = float(10 ** rng.uniform(-3.5, -2.5))
        cfg = make_config(peak_lr=lr,
                          model_size_n=float(rng.choice([130.0, 215.0])),
                          weight_decay=float(rng.choice([0.1, 0.3])))
        base = ChinchillaPredictor(baselines).predict_final_loss(cfg)
        recs.append(record_from_obj({
            "source": cfg.source, "model_size_n": cfg.model_size_n,
            "data_size_d": cfg.data_size_d, "total_steps": cfg.total_steps,
            "optimizer": cfg.optimizer, "peak_lr": cfg.peak_lr,
            "batch_size": cfg.batch_size, "weight_decay": cfg.weight_decay,
            "final_loss": base + 0.05 * (np.log(lr / 1e-3)) ** 2,
            "run_id": f"g{i}",
        }))
    return recs, baselines


def test_fit_gbt_learns_residual_structure():
    recs, baselines = residual_fixture()
    predictor = fit_gbt(recs, baselines, GBTParams(rounds=150, max_depth=4))
    errs = [abs(predictor.predict_final_loss(r.config) - r.final_loss)
            for r in recs]
    assert float(np.mean(errs)) < 0.01


def test_gbt_predictor_save_load(tmp_path):
    recs, baselines = residual_fixture()
    predictor = fit_gbt(recs, baselines, GBTParams(rounds=40, max_depth=3))
    path = str(tmp_path / "model.gbt")
    predictor.save(path)
    loaded = GBTPredictor.load(path)
    for r in recs[:10]:
        assert loaded.predict_final_loss(r.config) == \
            predictor.predict_final_loss(r.config)
    # saving again is byte-identical
    path2 = str(tmp_path / "model2.gbt")
    loaded.save(path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_gbt_load_checks_the_field_table(tmp_path):
    recs, baselines = residual_fixture()
    predictor = fit_gbt(recs, baselines, GBTParams(rounds=3, max_depth=2))
    path = tmp_path / "model.gbt"
    predictor.save(str(path))
    head, body = path.read_text().split("\n", 1)
    header = json.loads(head.split(" ", 1)[1])
    # a field table this build does not know, with a hash that matches it
    field = next(f for f in header["schema"]["fields"] if f["name"] == "peak_lr")
    field["scale_factor"] = field["scale_factor"] * 2.0
    header["schema_hash"] = Schema.from_dump(header["schema"]).schema_hash()
    bad = tmp_path / "bad.gbt"
    bad.write_text("#losscast-gbt-1 " + json.dumps(header) + "\n" + body)
    with pytest.raises(SchemaError):
        GBTPredictor.load(str(bad))
