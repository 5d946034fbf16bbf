"""The hand-written network: gradients against finite differences, the
optimizer against hand-stepped updates, training mechanics, checkpoints."""

import dataclasses
import io
import json
import math
import os
import zipfile

import numpy as np
import pytest
from scipy.special import erf

from losscast.errors import TrainingError
from losscast.ingest import DatasetSplits, record_from_obj
from losscast.lawfit import ChinchillaFit, ChinchillaPredictor, Scope
from losscast.features import encode_batch
from losscast.regressor import (
    Arch,
    RegressorModel,
    StagePlan,
    TrainPlan,
    TrainedPredictor,
    adamw_init_state,
    adamw_step,
    build_training_rows,
    gelu,
    lr_schedule,
    train,
)
from losscast.schema import NUMERICAL, Schema, SchemaError
from conftest import make_config

TINY = Arch(d_emb=4, d_hid=4, trunk_layers=2, trunk_width=8)


def tiny_model(seed=0, schema=None):
    schema = schema or Schema.default()
    model = RegressorModel(schema, TINY, seed=seed)
    rng = np.random.default_rng(99)
    # zero-init head never produces gradients downstream; randomize everything
    for k in model.params:
        model.params[k] = rng.normal(0, 0.3, size=model.params[k].shape)
    return model


def batch_of_configs(k=5):
    cfgs = [make_config(peak_lr=1e-3 * (1 + i), model_size_n=130.0 + 40 * i,
                        weight_decay=0.05 * (i + 1)) for i in range(k)]
    schema = Schema.default()
    fvs = [schema.canonicalize(c) for c in cfgs]
    return encode_batch(schema, fvs)


# -- forward -----------------------------------------------------------------------

def straight_line_forward(model, x_num_row, x_cat_row):
    """Field-by-field re-derivation of one sample's output."""
    p = model.params

    def act(v):
        v = np.asarray(v, dtype=np.float64)
        return v * 0.5 * (1.0 + erf(v / math.sqrt(2.0)))

    xs = (x_num_row - model.buffers["num_mean"]) / model.buffers["num_std"]
    parts, nj, ck = [], 0, 0
    for spec in model.schema.specs:
        if spec.kind == NUMERICAL:
            h = act(xs[nj] * p["num_w1"][nj] + p["num_b1"][nj])
            parts.append(h @ p["num_w2"][nj] + p["num_b2"][nj])
            nj += 1
        else:
            parts.append(p[f"emb_{spec.name}"][x_cat_row[ck]])
            ck += 1
    z = np.concatenate(parts)
    for i in range(model.arch.trunk_layers):
        z = act(z @ p[f"trunk_w{i}"] + p[f"trunk_b{i}"])
    out = np.asarray(z @ p["head_w"] + p["head_b"]).reshape(-1)
    return float(out[0])


def test_forward_matches_straight_line_reimplementation():
    model = tiny_model()
    x_num, x_cat = batch_of_configs(6)
    model.set_standardization(x_num)
    out = model.forward_batch(x_num, x_cat)
    for r in range(x_num.shape[0]):
        want = straight_line_forward(model, x_num[r], x_cat[r])
        assert out[r] == pytest.approx(want, rel=1e-12), r


def test_inputs_beyond_the_standardization_rows_predict_as_the_range_edge():
    model = tiny_model()
    x_num, x_cat = batch_of_configs(6)
    model.set_standardization(x_num)
    lo, hi = x_num.min(axis=0), x_num.max(axis=0)
    # far beyond the rows on both sides in every numerical slot
    wild = np.vstack([hi + 10.0 * (hi - lo) + 5.0, lo - 10.0 * (hi - lo) - 5.0])
    edge = np.clip(wild, lo, hi)
    assert np.all(wild != edge)
    cats = x_cat[:2]
    np.testing.assert_array_equal(model.forward_batch(wild, cats),
                                  model.forward_batch(edge, cats))

    # through the predictor: a model size beyond every training run predicts
    # the residual of the largest one
    splits = tiny_splits()
    predictor = train(splits, tiny_plan(), fixed_baseline(), arch=TINY)
    top = max(r.config.model_size_n for r in splits.train)
    cfg = splits.id_val[0].config
    big = predictor.predict_residual(dataclasses.replace(cfg, model_size_n=8 * top))
    at_edge = predictor.predict_residual(dataclasses.replace(cfg, model_size_n=top))
    assert big == at_edge


def test_gelu_values():
    assert gelu(np.array([0.0]))[0] == 0.0
    # large positive ~ identity, large negative ~ 0
    assert gelu(np.array([20.0]))[0] == pytest.approx(20.0)
    assert gelu(np.array([-20.0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_gradients_against_finite_differences():
    model = tiny_model()
    x_num, x_cat = batch_of_configs(5)
    model.set_standardization(x_num)
    targets = np.array([0.3, -0.2, 0.1, 0.0, 0.5])

    out, cache = model.forward_batch(x_num, x_cat, want_cache=True)
    grads = model.backward_batch(out, targets, cache)

    def loss_fn():
        o = model.forward_batch(x_num, x_cat)
        return float(np.mean((o - targets) ** 2))

    rng = np.random.default_rng(3)
    eps = 1e-6
    worst = 0.0
    for k, g in grads.items():
        flat_idx = rng.choice(g.size, size=min(g.size, 6), replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, g.shape)
            keep = model.params[k][idx]
            model.params[k][idx] = keep + eps
            hi = loss_fn()
            model.params[k][idx] = keep - eps
            lo = loss_fn()
            model.params[k][idx] = keep
            fd = (hi - lo) / (2 * eps)
            denom = max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, abs(fd - g[idx]) / denom)
    assert worst < 1e-4, worst


def test_backward_skip_omits_blocks_but_keeps_flow():
    model = tiny_model()
    x_num, x_cat = batch_of_configs(4)
    model.set_standardization(x_num)
    out, cache = model.forward_batch(x_num, x_cat, want_cache=True)
    targets = np.zeros(4)
    full = model.backward_batch(out, targets, cache)
    frozen = model.backward_batch(out, targets, cache,
                                  skip=set(model.trunk_keys()))
    assert not any(k.startswith("trunk_") for k in frozen)
    for k in frozen:
        np.testing.assert_array_equal(frozen[k], full[k])


# -- optimizer -----------------------------------------------------------------------

def test_adamw_single_step_by_hand():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([1.0])}
    state = adamw_init_state(params, ["w"])
    adamw_step(params, grads, state, lr=0.1, beta1=0.0, beta2=0.0,
               epsilon=0.0, weight_decay=0.0)
    # m_hat = g, v_hat = g^2, update = lr * g / |g| = 0.1
    assert params["w"][0] == pytest.approx(0.9, rel=1e-15)


def test_adamw_three_steps_match_hand_recurrence():
    b1, b2, lr, eps, wd = 0.9, 0.999, 0.05, 1e-8, 0.01
    params = {"w": np.array([0.7])}
    state = adamw_init_state(params, ["w"])
    w = 0.7
    m = v = 0.0
    for t in range(1, 4):
        g = 2.0 * w  # gradient of w^2
        adamw_step(params, {"w": np.array([g])}, state, lr=lr, beta1=b1,
                   beta2=b2, epsilon=eps, weight_decay=wd)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        w = w - lr * (mh / (math.sqrt(vh) + eps) + wd * w)
        assert params["w"][0] == pytest.approx(w, rel=1e-12), t


def test_adamw_rejects_nonfinite_gradients_before_mutating():
    params = {"a": np.array([1.0]), "b": np.array([2.0])}
    state = adamw_init_state(params, ["a", "b"])
    bad = {"a": np.array([0.5]), "b": np.array([np.nan])}
    with pytest.raises(TrainingError, match="'b'"):
        adamw_step(params, bad, state, lr=0.1)
    assert params["a"][0] == 1.0 and params["b"][0] == 2.0  # untouched
    assert state["t"] == 0


def test_lr_schedule_shape():
    peak, total, warm = 1.0, 11, 4
    lrs = [lr_schedule(t, total, peak, warm) for t in range(total)]
    np.testing.assert_allclose(lrs[:4], [0.25, 0.5, 0.75, 1.0])
    assert lrs[4] == pytest.approx(1.0)  # first decay step starts at peak
    assert lrs[-1] == 0.0                # exact zero at the last step
    assert all(lrs[i] >= lrs[i + 1] for i in range(4, total - 1))


# -- training rows ----------------------------------------------------------------------

def fixed_baseline():
    fit = ChinchillaFit(e=1.7, a=6.2, b=1.8, alpha=0.32, beta=0.28,
                        scope=Scope("synthetic"), objective=0.0, n_points=0)
    return {Scope("synthetic"): fit}


def curve_rec(run_id="c0", n_points=200, **over):
    cfg = make_config(**over)
    losses = list(4.5 * np.exp(-np.linspace(0, 2.5, n_points)) + 2.8)
    return record_from_obj({
        "source": cfg.source, "model_size_n": cfg.model_size_n,
        "data_size_d": cfg.data_size_d, "total_steps": n_points,
        "optimizer": cfg.optimizer, "peak_lr": cfg.peak_lr,
        "batch_size": cfg.batch_size,
        "curve": [[i + 1, l] for i, l in enumerate(losses)],
        "run_id": run_id,
    })


def test_final_rows_are_residuals():
    baselines = fixed_baseline()
    rec = curve_rec()
    schema = Schema.default()
    x_num, x_cat, y = build_training_rows([rec], ChinchillaPredictor(baselines),
                                          schema, "final")
    assert y.shape == (1,)
    base = ChinchillaPredictor(baselines).predict_final_loss(rec.config)
    assert y[0] == pytest.approx(rec.final_loss - base, rel=1e-12)


def test_curve_rows_subsample_the_smoothed_curve():
    baselines = fixed_baseline()
    rec = curve_rec(n_points=500)
    schema = Schema.default(include_frac=True)
    x_num, x_cat, y = build_training_rows([rec], ChinchillaPredictor(baselines),
                                          schema, "curve", max_checkpoints=30)
    assert y.shape[0] == 30
    fr = x_num[:, -1]  # frac is the last numerical field
    assert fr[0] > 0.0 and fr[-1] == pytest.approx(1.0)
    assert np.all(np.diff(fr) > 0)
    base = ChinchillaPredictor(baselines).predict_final_loss(rec.config)
    assert y[-1] == pytest.approx(rec.final_loss - base, rel=1e-12)
    assert y[0] == pytest.approx(rec.smoothed[0] - base, rel=1e-12)


def test_curveless_record_contributes_one_final_row_in_curve_mode():
    baselines = fixed_baseline()
    cfg = make_config()
    rec = record_from_obj({
        "source": cfg.source, "model_size_n": cfg.model_size_n,
        "data_size_d": cfg.data_size_d, "total_steps": cfg.total_steps,
        "optimizer": cfg.optimizer, "peak_lr": cfg.peak_lr,
        "batch_size": cfg.batch_size, "final_loss": 3.1, "run_id": "nf",
    })
    schema = Schema.default(include_frac=True)
    x_num, _, y = build_training_rows([rec], ChinchillaPredictor(baselines),
                                      schema, "curve")
    assert y.shape == (1,)
    assert x_num[0, -1] == 1.0


# -- end-to-end training mechanics ----------------------------------------------------

def tiny_splits(k_train=24, k_val=6):
    recs = []
    rng = np.random.default_rng(0)
    for i in range(k_train + k_val):
        cfg = make_config(peak_lr=float(10 ** rng.uniform(-3.5, -2.5)),
                          model_size_n=float(rng.choice([130.0, 215.0, 300.0])),
                          weight_decay=float(rng.choice([0.1, 0.3])))
        rec = record_from_obj({
            "source": cfg.source, "model_size_n": cfg.model_size_n,
            "data_size_d": cfg.data_size_d, "total_steps": cfg.total_steps,
            "optimizer": cfg.optimizer, "peak_lr": cfg.peak_lr,
            "batch_size": cfg.batch_size, "weight_decay": cfg.weight_decay,
            "final_loss": 3.0 + 0.2 * math.sin(100 * cfg.peak_lr), "run_id": f"t{i}",
        })
        recs.append(rec)
    return DatasetSplits(train=recs[:k_train], id_val=recs[k_train:], ood_val=[])


def tiny_plan(seed=0, s1=3, s2=5):
    return TrainPlan(
        stage1=StagePlan(epochs=s1, peak_lr=3e-3, warmup_ratio=0.1),
        stage2=StagePlan(epochs=s2, peak_lr=1e-3, warmup_steps=5),
        batch_size=8, seed=seed,
    )


def test_training_is_deterministic_and_seed_sensitive():
    splits = tiny_splits()
    baselines = fixed_baseline()
    a = train(splits, tiny_plan(seed=1), baselines, arch=TINY)
    b = train(splits, tiny_plan(seed=1), baselines, arch=TINY)
    for k in a.model.params:
        np.testing.assert_array_equal(a.model.params[k], b.model.params[k])
    c = train(splits, tiny_plan(seed=2), baselines, arch=TINY)
    assert any(not np.array_equal(a.model.params[k], c.model.params[k])
               for k in a.model.params)


def test_stage_one_only_touches_encoders_and_head():
    splits = tiny_splits()
    predictor = train(splits, tiny_plan(s1=2, s2=0), fixed_baseline(), arch=TINY)
    # train() itself hard-fails if the trunk moved in stage 1; reaching here
    # with zero stage-2 epochs is the assertion
    assert predictor.report.stage_final_mse["stage1"] >= 0.0
    assert not predictor.report.aborted


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_abort_keeps_last_finite_params():
    splits = tiny_splits()
    plan = tiny_plan(s1=1, s2=4)
    plan.stage2 = StagePlan(epochs=4, peak_lr=1e28, warmup_steps=0)
    predictor = train(splits, plan, fixed_baseline(), arch=TINY)
    assert predictor.report.aborted
    assert predictor.report.abort_reason
    for v in predictor.model.params.values():
        assert np.all(np.isfinite(v))
    # predictions still come out finite
    assert math.isfinite(predictor.predict_final_loss(splits.train[0].config))


def test_val_mae_reported_each_epoch():
    splits = tiny_splits()
    predictor = train(splits, tiny_plan(s1=2, s2=3), fixed_baseline(), arch=TINY)
    stages = [s for s, _, _ in predictor.report.val_mae]
    assert stages.count("stage1") == 2 and stages.count("stage2") == 3


# -- checkpointing ---------------------------------------------------------------------

def test_checkpoint_round_trip_and_byte_determinism(tmp_path):
    splits = tiny_splits()
    predictor = train(splits, tiny_plan(), fixed_baseline(), arch=TINY)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    predictor.save(p1)
    predictor.save(p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()

    loaded = TrainedPredictor.load(p1)
    cfg = splits.id_val[0].config
    assert loaded.predict_final_loss(cfg) == predictor.predict_final_loss(cfg)
    for k in predictor.model.params:
        np.testing.assert_array_equal(loaded.model.params[k],
                                      predictor.model.params[k])


def test_checkpoint_rejects_tampering(tmp_path):
    splits = tiny_splits()
    predictor = train(splits, tiny_plan(), fixed_baseline(), arch=TINY)
    path = str(tmp_path / "m.ckpt")
    predictor.save(path)
    blob = open(path, "rb").read()
    # flip one byte inside the archive body
    corrupted = bytearray(blob)
    corrupted[len(blob) // 2] ^= 0xFF
    bad = str(tmp_path / "bad.ckpt")
    open(bad, "wb").write(bytes(corrupted))
    with pytest.raises(Exception):
        pred = TrainedPredictor.load(bad)
        # if the zip structure happened to survive, predictions must not
        cfg = splits.id_val[0].config
        assert pred.predict_final_loss(cfg) == predictor.predict_final_loss(cfg)


def rewrite_checkpoint(src, dst, edit):
    """Copy a checkpoint zip, letting ``edit`` change its manifest and entries."""
    with zipfile.ZipFile(src) as zf:
        entries = {name: zf.read(name) for name in zf.namelist()}
    manifest = json.loads(entries.pop("manifest.json"))
    edit(manifest, entries)
    with zipfile.ZipFile(dst, "w") as zf:
        zf.writestr("manifest.json", json.dumps(manifest))
        for name, payload in entries.items():
            zf.writestr(name, payload)


def test_checkpoint_rejects_missing_or_misshapen_buffers(tmp_path):
    predictor = train(tiny_splits(), tiny_plan(), fixed_baseline(), arch=TINY)
    path = str(tmp_path / "m.ckpt")
    predictor.save(path)

    def drop_listed(manifest, entries):
        manifest["buffer_keys"].remove("num_max")
        del entries["buffers/num_max.npy"]

    def drop_entry(manifest, entries):
        del entries["buffers/num_min.npy"]

    def wrong_shape(manifest, entries):
        buf = io.BytesIO()
        np.save(buf, np.zeros(3))
        entries["buffers/num_std.npy"] = buf.getvalue()

    def extra_buffer(manifest, entries):
        manifest["buffer_keys"].append("num_scale")
        entries["buffers/num_scale.npy"] = entries["buffers/num_std.npy"]

    for edit in (drop_listed, drop_entry, wrong_shape, extra_buffer):
        bad = str(tmp_path / f"{edit.__name__}.ckpt")
        rewrite_checkpoint(path, bad, edit)
        with pytest.raises(SchemaError):
            TrainedPredictor.load(bad)

    # the untouched copy still loads, so the failures above are the edits'
    same = str(tmp_path / "same.ckpt")
    rewrite_checkpoint(path, same, lambda manifest, entries: None)
    loaded = TrainedPredictor.load(same)
    for k, v in predictor.model.buffers.items():
        np.testing.assert_array_equal(loaded.model.buffers[k], v)


def test_checkpoint_loads_without_a_random_draw(tmp_path, monkeypatch):
    predictor = train(tiny_splits(), tiny_plan(), fixed_baseline(), arch=TINY)
    path = str(tmp_path / "m.ckpt")
    predictor.save(path)

    def wrong_param_shape(manifest, entries):
        buf = io.BytesIO()
        np.save(buf, np.zeros((3, 3)))
        entries["params/trunk_w0.npy"] = buf.getvalue()

    bad = str(tmp_path / "bad.ckpt")
    rewrite_checkpoint(path, bad, wrong_param_shape)

    def no_init(*args, **kwargs):
        raise AssertionError("loading must not draw initial parameters")

    monkeypatch.setattr(RegressorModel, "__init__", no_init)
    with pytest.raises(SchemaError):
        TrainedPredictor.load(bad)
    loaded = TrainedPredictor.load(path)
    assert list(loaded.model.params) == list(predictor.model.params)
    for k, v in predictor.model.params.items():
        np.testing.assert_array_equal(loaded.model.params[k], v)
    configs = [r.config for r in tiny_splits().id_val]
    np.testing.assert_array_equal(loaded.predict_final_loss_batch(configs),
                                  predictor.predict_final_loss_batch(configs))


def test_final_model_refuses_curve_queries():
    predictor = train(tiny_splits(), tiny_plan(), fixed_baseline(), arch=TINY)
    with pytest.raises(ValueError):
        predictor.predict_curve(make_config(), [0.5, 1.0])
    with pytest.raises(ValueError):
        predictor.predict_residual(make_config(), frac=0.5)
