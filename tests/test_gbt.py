"""Boosted trees: whole forests against a per-node reference builder,
prediction against an independent traversal, and the textual dump format."""

import json
import re

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


def per_node_split(x, y, min_leaf):
    """Split search with a fresh stable argsort of every column of the node."""
    n = len(y)
    total = float(np.cumsum(y)[-1])
    base = total * total / n
    best = (-1, 0.0, 0.0, 0)
    if n < 2 * min_leaf:
        return best
    ks = np.arange(min_leaf, n - min_leaf + 1)
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        prefix = np.cumsum(y[order])
        ls = prefix[ks - 1]
        rs = total - ls
        gains = ls * ls / ks + rs * rs / (n - ks) - base
        gains[xs[ks - 1] == xs[ks]] = -np.inf
        j = int(np.argmax(gains))
        if gains[j] > best[2]:
            k = int(ks[j])
            best = (f, 0.5 * (xs[k - 1] + xs[k]), float(gains[j]), k)
    return best


def per_node_fit(x, y, params):
    """Reference boosting over the full design that copies and re-sorts every
    node's rows; returns the forest's dump."""
    base = float(np.mean(y))
    residual = y - base
    feature, threshold, left, right, value, offsets = [], [], [], [], [], []

    def grow(rows, depth_left, target, leaf_of_row):
        idx = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        sub_x, sub_y = x[rows], target[rows]
        f, thr, gain, _ = (per_node_split(sub_x, sub_y, params.min_leaf)
                           if depth_left else (-1, 0.0, 0.0, 0))
        if f < 0 or gain <= 0.0:
            value[idx] = float(np.mean(sub_y))
            leaf_of_row[rows] = value[idx]
            return idx
        go_left = sub_x[:, f] <= thr
        feature[idx], threshold[idx] = f, float(thr)
        left[idx] = grow(rows[go_left], depth_left - 1, target, leaf_of_row)
        right[idx] = grow(rows[~go_left], depth_left - 1, target, leaf_of_row)
        return idx

    leaf_of_row = np.zeros(len(y))
    for _ in range(params.rounds):
        offsets.append(grow(np.arange(len(y)), params.max_depth, residual, leaf_of_row))
        residual = residual - params.learning_rate * leaf_of_row
    return BoostedForest(
        base_score=base, learning_rate=params.learning_rate, n_features=x.shape[1],
        feature=np.array(feature, dtype=np.int64), threshold=np.array(threshold),
        left=np.array(left, dtype=np.int64), right=np.array(right, dtype=np.int64),
        value=np.array(value), offsets=np.array(offsets, dtype=np.int64),
    ).dump_text()


def mixed_designs(rng, n=90):
    """Designs with constant columns, one-hot blocks and heavily tied values."""
    yield "ties", np.round(rng.normal(size=(n, 4)), 0)
    x = rng.normal(size=(n, 6))
    x[:, [0, 3, 4]] = [1.5, 0.0, -2.0]
    yield "constant columns", x
    # a one-hot block whose first category never occurs, an always-on
    # indicator and a three-level ordinal column
    onehot = np.eye(5)[rng.integers(1, 5, n)]
    always = np.ones((n, 1))
    yield "one-hot", np.hstack([always, onehot, rng.integers(0, 3, (n, 1)) * 0.5])


def test_forest_matches_the_per_node_builder(rng):
    for name, x in mixed_designs(rng):
        y = np.round(rng.normal(size=x.shape[0]), 1) + (x[:, -1] > x[0, -1])
        varying = set(np.flatnonzero(np.any(x != x[0], axis=0)))
        for min_leaf in range(1, 6):
            for max_depth in range(1, 7):
                params = GBTParams(rounds=3, max_depth=max_depth,
                                   learning_rate=0.3, min_leaf=min_leaf)
                forest = fit_gbt_arrays(x, y, params)
                assert forest.dump_text() == per_node_fit(x, y, params), \
                    (name, min_leaf, max_depth)
                assert set(forest.feature[forest.feature >= 0]) <= varying


def test_all_constant_design_gives_leaves_only(rng):
    x = np.full((40, 5), 2.5)
    y = rng.normal(size=40)
    params = GBTParams(rounds=4, max_depth=3, min_leaf=2)
    forest = fit_gbt_arrays(x, y, params)
    assert forest.dump_text() == per_node_fit(x, y, params)
    assert np.all(forest.feature == -1) and forest.feature.size == params.rounds
    assert forest.n_features == 5


def corrupted_dumps(text):
    """(what is wrong, corrupted dump) pairs derived from a valid dump."""
    lines = text.splitlines()
    head = lines[0]
    n_nodes = int(head.rsplit("n_nodes=", 1)[1])
    n_features = int(re.search(r"n_features=(\d+)", head).group(1))
    k = next(j for j, ln in enumerate(lines) if " feature=" in ln)
    i = int(lines[k].split()[1])

    def edit(j, pattern, repl):
        out = list(lines)
        out[j] = re.sub(pattern, repl, out[j], count=1)
        return out

    yield "n_nodes too large", edit(0, r"n_nodes=\d+", f"n_nodes={n_nodes + 1}")
    yield "node line dropped", lines[:-1]
    yield "node defined twice", lines + [lines[-1]]
    yield "node never defined", edit(-1, r"^node \d+", f"node {n_nodes}")
    yield "feature too large", edit(k, r"feature=\d+", f"feature={n_features}")
    yield "feature below -1", edit(k, r"feature=\d+", "feature=-2")
    yield "left child out of range", edit(k, r"left=\d+", f"left={n_nodes}")
    yield "right child is its parent", edit(k, r"right=\d+", f"right={i}")
    yield "root out of range", edit(1, r"root=\d+", f"root={n_nodes}")
    yield "tree line dropped", [head] + lines[2:]
    yield "tree defined twice", lines[:2] + lines[1:]
    yield "unparseable node", lines + ["node x leaf"]


def test_from_text_rejects_corrupted_dumps(rng):
    x = rng.normal(size=(60, 3))
    y = x[:, 0] + rng.normal(size=60)
    text = fit_gbt_arrays(x, y, GBTParams(rounds=3, max_depth=2)).dump_text()
    assert BoostedForest.from_text(text).dump_text() == text
    for what, lines in corrupted_dumps(text):
        try:
            BoostedForest.from_text("\n".join(lines) + "\n")
        except SchemaError:
            continue
        pytest.fail(f"loaded a dump with {what}")


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
    n_cols = len(json.loads(head.split(" ", 1)[1])["columns"])

    def rescale_peak_lr(header):
        # a field table this build does not know, with a hash that matches it
        field = next(f for f in header["schema"]["fields"] if f["name"] == "peak_lr")
        field["scale_factor"] = field["scale_factor"] * 2.0
        header["schema_hash"] = Schema.from_dump(header["schema"]).schema_hash()

    def swap_columns(header):
        header["columns"][:2] = header["columns"][1::-1]

    wide_forest = body.replace(f"n_features={n_cols} ", f"n_features={n_cols + 7} ", 1)
    assert wide_forest != body
    bad = tmp_path / "bad.gbt"
    for edit, forest in ((rescale_peak_lr, body), (swap_columns, body),
                         (lambda header: None, wide_forest)):
        header = json.loads(head.split(" ", 1)[1])
        edit(header)
        bad.write_text("#losscast-gbt-1 " + json.dumps(header) + "\n" + forest)
        with pytest.raises(SchemaError):
            GBTPredictor.load(str(bad))
