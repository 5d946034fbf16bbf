"""The hand-written network: gradients against finite differences, the
optimizer against hand-stepped updates, training mechanics, checkpoints."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest
from scipy.special import erf

from losscast.errors import TrainingError
import losscast
from losscast.ingest import DatasetSplits, record_from_obj, record_to_obj, split_dataset
from losscast.lawfit import ChinchillaFit, ChinchillaPredictor, Scope, save_fits
from losscast.features import encode_batch
from losscast.gbt import GBTParams, fit_gbt
from losscast.regressor import (
    ADAMW_CHUNK,
    MAX_CURVE_CHECKPOINTS,
    Arch,
    RegressorModel,
    StagePlan,
    TrainPlan,
    TrainReport,
    TrainedPredictor,
    _run_stage,
    adamw_init_state,
    adamw_step,
    build_training_rows,
    lr_schedule,
    norm_cdf,
    train,
    training_schema,
)
from losscast.schema import NUMERICAL, Schema, SchemaError
from losscast.synth import generate_synthetic_runs
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
    return encode_batch(Schema.default(), cfgs)


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
    cfgs = [dataclasses.replace(cfg, model_size_n=8 * top),
            dataclasses.replace(cfg, model_size_n=top)]
    big, at_edge = (predictor.predict_final_loss_batch(cfgs)
                    - predictor.baseline.predict_final_loss_batch(cfgs))
    # equal residuals; adding and taking away two different baselines rounds
    # each by at most an ulp of the loss
    assert big == pytest.approx(at_edge, rel=0, abs=1e-12)


def test_gelu_values():
    def gelu(x):
        return x * norm_cdf(x)

    assert gelu(np.array([0.0]))[0] == 0.0
    # large positive ~ identity, large negative ~ 0
    assert gelu(np.array([20.0]))[0] == pytest.approx(20.0)
    assert gelu(np.array([-20.0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_categorical_indices_outside_the_vocabulary_are_refused():
    model = tiny_model()
    x_num, x_cat = batch_of_configs(3)
    size = len(model.cat_fields[0].vocabulary)
    for bad in (-1, size):
        wrong = x_cat.copy()
        wrong[1, 0] = bad
        with pytest.raises(ValueError, match=f"categorical index {bad} out of range"):
            model.forward_batch(x_num, wrong)


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


# -- the step against its reference implementation --------------------------------
#
# The model's step evaluates the encoder's elementwise part once per distinct
# field value, joins the encoders to the trunk one field at a time, writes into
# reusable buffers and scatters embedding gradients with bincount. These are
# the step's bodies as first written, every entry through the encoder and all
# fields stacked; the step must reproduce them bit for bit.

def reference_norm_cdf(x):
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def reference_gelu_grad(x, cdf):
    return cdf + x * (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x)


def reference_forward(model, x_num, x_cat):
    p = model.params
    buf = model.buffers
    x_num = np.clip(x_num, buf["num_min"], buf["num_max"])
    xs = (x_num - buf["num_mean"]) / buf["num_std"]
    pre1 = xs[:, :, None] * p["num_w1"][None, :, :] + p["num_b1"][None, :, :]
    cdf1 = reference_norm_cdf(pre1)
    h1 = pre1 * cdf1
    enc = np.matmul(h1.transpose(1, 0, 2), p["num_w2"]).transpose(1, 0, 2)
    enc = enc + p["num_b2"][None, :, :]

    blocks, nj, ck = [], 0, 0
    for spec in model.schema.specs:
        if spec.kind == NUMERICAL:
            blocks.append(enc[:, nj, :])
            nj += 1
        else:
            blocks.append(p[f"emb_{spec.name}"][x_cat[:, ck]])
            ck += 1
    z = np.concatenate(blocks, axis=1)

    pre_acts, cdfs, acts = [], [], [z]
    for i in range(model.arch.trunk_layers):
        a = acts[-1] @ p[f"trunk_w{i}"] + p[f"trunk_b{i}"]
        cdf = reference_norm_cdf(a)
        pre_acts.append(a)
        cdfs.append(cdf)
        acts.append(a * cdf)
    out = (acts[-1] @ p["head_w"] + p["head_b"])[:, 0]
    cache = {"xs": xs, "pre1": pre1, "cdf1": cdf1, "h1": h1, "x_cat": x_cat,
             "pre_acts": pre_acts, "cdfs": cdfs, "acts": acts}
    return out, cache


def reference_backward(model, out, targets, cache, skip=frozenset()):
    p = model.params
    b = out.shape[0]
    grads = {}
    dout = (2.0 / b) * (out - targets)

    acts, pre_acts = cache["acts"], cache["pre_acts"]
    if "head_w" not in skip:
        grads["head_w"] = acts[-1].T @ dout[:, None]
        grads["head_b"] = np.array([dout.sum()])
    dz = dout[:, None] @ p["head_w"].T
    for i in reversed(range(model.arch.trunk_layers)):
        da = dz * reference_gelu_grad(pre_acts[i], cache["cdfs"][i])
        if f"trunk_w{i}" not in skip:
            grads[f"trunk_w{i}"] = acts[i].T @ da
            grads[f"trunk_b{i}"] = da.sum(axis=0)
        dz = da @ p[f"trunk_w{i}"].T

    de = model.arch.d_emb
    dnum = np.empty((b, len(model.num_fields), de))
    nj = ck = 0
    for pos, spec in enumerate(model.schema.specs):
        block = dz[:, pos * de:(pos + 1) * de]
        if spec.kind == NUMERICAL:
            dnum[:, nj, :] = block
            nj += 1
        else:
            key = f"emb_{spec.name}"
            if key not in skip:
                g = np.zeros_like(p[key])
                np.add.at(g, cache["x_cat"][:, ck], block)
                grads[key] = g
            ck += 1

    if "num_w1" not in skip:
        dnum_f = dnum.transpose(1, 0, 2)
        grads["num_w2"] = np.matmul(cache["h1"].transpose(1, 2, 0), dnum_f)
        grads["num_b2"] = dnum.sum(axis=0)
        dh1 = np.matmul(dnum_f, p["num_w2"].transpose(0, 2, 1)).transpose(1, 0, 2)
        dpre1 = dh1 * reference_gelu_grad(cache["pre1"], cache["cdf1"])
        grads["num_w1"] = (cache["xs"][:, :, None] * dpre1).sum(axis=0)
        grads["num_b1"] = dpre1.sum(axis=0)
    return grads


def reference_adamw_step(params, grads, state, lr, beta1, beta2, epsilon, weight_decay):
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for k in state["m"]:
        g = grads[k]
        m = state["m"][k]
        v = state["v"][k]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        params[k] -= lr * (m_hat / (np.sqrt(v_hat) + epsilon) + weight_decay * params[k])


def assert_same_bits(got, want, what):
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert got.tobytes() == want.tobytes(), what


def step_batch(include_frac, rows=40):
    """A batch in which configs repeat, as they do in curve rows and designs."""
    schema = Schema.default(include_frac)
    rng = np.random.default_rng(4)
    distinct = [make_config(peak_lr=float(lr), batch_size=float(bs), optimizer=opt,
                            model_size_n=float(n))
                for lr, bs, opt, n in zip((1e-3, 3e-3, 5e-4, 8e-3, 2e-3, 1e-3),
                                          (256, 512, 96, 1024, 480, 96),
                                          ("adamw", "lion", "adamw", "muon", "adamw", "lion"),
                                          (130, 215, 130, 300, 520, 215))]
    configs = [distinct[i] for i in rng.integers(0, len(distinct), size=rows)]
    fracs = None
    if include_frac:
        fracs = [float(f) for f in rng.choice([0.1, 0.25, 0.5, 1.0], size=rows)]
    x_num, x_cat = encode_batch(schema, configs, fracs)
    return schema, x_num, x_cat, rng.normal(0.0, 0.1, size=rows)


def randomized_model(schema, x_num):
    model = RegressorModel(schema, Arch(), seed=0)
    model.set_standardization(x_num)
    rng = np.random.default_rng(7)
    for k in model.params:  # zero-init head and biases would hide differences
        model.params[k] = rng.normal(0.0, 0.3, size=model.params[k].shape)
    return model


def assert_step_matches_reference(model, x_num, x_cat, targets):
    out, cache = model.forward_batch(x_num, x_cat, want_cache=True)
    # an inference pass between forward and backward, as validation makes,
    # leaves the training cache alone
    model.forward_batch(np.repeat(x_num, 3, axis=0), np.repeat(x_cat, 3, axis=0))
    want_out, want_cache = reference_forward(model, x_num, x_cat)
    assert_same_bits(out, want_out, "out")
    # the cache holds each distinct value's activations; gathered back to
    # (batch, field, d_hid), they are the reference's
    assert_same_bits(cache["h"][cache["index"]], want_cache["h1"], "encoder activations")
    stage1_skip = set(model.trunk_keys())
    for skip in (frozenset(), stage1_skip):
        grads = model.backward_batch(out, targets, cache, skip=skip)
        want = reference_backward(model, want_out, targets, want_cache, skip=skip)
        assert sorted(grads) == sorted(want)
        for k in want:
            assert_same_bits(grads[k], want[k], f"gradient {k}, skip {sorted(skip)}")


@pytest.mark.parametrize("include_frac", [False, True], ids=["final", "curve"])
def test_step_reproduces_its_reference_bit_for_bit(include_frac):
    schema, x_num, x_cat, targets = step_batch(include_frac)
    assert len(np.unique(x_num, axis=0)) < x_num.shape[0]  # configs repeat
    model = randomized_model(schema, x_num)
    assert_step_matches_reference(model, x_num, x_cat, targets)
    assert_step_matches_reference(model, x_num[:1], x_cat[:1], targets[:1])


@pytest.mark.parametrize("include_frac", [False, True], ids=["final", "curve"])
def test_step_keeps_negative_and_positive_zero_apart(include_frac):
    schema, x_num, x_cat, targets = step_batch(include_frac)
    model = randomized_model(schema, x_num)
    # one field standardizes to -0.0 in some rows and +0.0 in the others; a
    # -0.0 bias keeps the sign through the encoder's first layer
    j = 0
    x_num[:, j] = np.where(np.arange(x_num.shape[0]) % 3 == 0, -0.0, 0.0)
    for name, value in (("num_mean", 0.0), ("num_std", 1.0), ("num_min", -1.0),
                        ("num_max", 1.0)):
        model.buffers[name][j] = value
    model.params["num_b1"][j] = -0.0
    model.params["num_w1"][j] = np.abs(model.params["num_w1"][j]) + 0.1
    xs = reference_forward(model, x_num, x_cat)[1]["xs"]
    assert np.signbit(xs[:, j]).any() and not np.signbit(xs[:, j]).all()
    assert_step_matches_reference(model, x_num, x_cat, targets)


@pytest.mark.parametrize("include_frac", [False, True], ids=["final", "curve"])
def test_three_training_steps_reproduce_the_reference_bit_for_bit(include_frac):
    schema, x_num, x_cat, targets = step_batch(include_frac)
    model = randomized_model(schema, x_num)
    ref = randomized_model(schema, x_num)
    keys = list(model.params)
    state = adamw_init_state(model.params, keys)
    ref_state = adamw_init_state(ref.params, keys)
    hyper = dict(beta1=0.9, beta2=0.999, epsilon=1e-8, weight_decay=0.01)
    for step in range(3):
        out, cache = model.forward_batch(x_num, x_cat, want_cache=True)
        adamw_step(model.params, model.backward_batch(out, targets, cache), state,
                   lr=1e-3, **hyper)
        want_out, want_cache = reference_forward(ref, x_num, x_cat)
        want_grads = reference_backward(ref, want_out, targets, want_cache)
        reference_adamw_step(ref.params, want_grads, ref_state, lr=1e-3, **hyper)
        assert_same_bits(out, want_out, f"out at step {step}")
        for k in keys:
            assert_same_bits(model.params[k], ref.params[k], f"{k} at step {step}")
            assert_same_bits(state["m"][k], ref_state["m"][k], f"m {k} at step {step}")
            assert_same_bits(state["v"][k], ref_state["v"][k], f"v {k} at step {step}")


def test_an_inference_pass_holds_little_beyond_the_trunk_input():
    # a validation pass over curve rows: 72 runs of 30 points each
    schema = Schema.default(include_frac=True)
    runs = [make_config(peak_lr=1e-3 * (1 + i % 6), model_size_n=130.0 + 5 * i)
            for i in range(72)]
    fracs = [k / 30 for k in range(1, 31)]
    x_num, x_cat = encode_batch(schema, [c for c in runs for _ in fracs], fracs * len(runs))
    model = RegressorModel(schema, Arch(), seed=0)
    model.set_standardization(x_num)
    rows, arch = x_num.shape[0], model.arch
    # the trunk input plus one layer's pre-activation and the cdf that
    # becomes its output
    floor = 8 * rows * (len(schema.specs) * arch.d_emb + 2 * arch.trunk_width)
    peak = traced_peak(lambda: model.forward_batch(x_num, x_cat))
    assert rows >= 2000
    assert floor <= peak <= 1.1 * floor, (peak, floor)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def curve_training_rows(schema, runs, seed):
    """Rows of ``runs`` curve runs, 30 points each, and random targets."""
    fracs = [k / 30 for k in range(1, 31)]
    configs = [make_config(peak_lr=1e-3 * (1 + i % 6), model_size_n=130.0 + 5 * i + seed)
               for i in range(runs)]
    x_num, x_cat = encode_batch(schema, [c for c in configs for _ in fracs], fracs * runs)
    return x_num, x_cat, np.random.default_rng(seed).normal(0, 0.1, x_num.shape[0])


def test_a_training_step_holds_each_layers_output_and_derivative_only():
    schema = Schema.default(include_frac=True)
    x_num, x_cat, y = curve_training_rows(schema, 32, 0)
    model = RegressorModel(schema, Arch(), seed=0)
    model.set_standardization(x_num)
    b, arch = x_num.shape[0], model.arch
    d_in, w = len(schema.specs) * arch.d_emb, arch.trunk_width

    def step():
        out, cache = model.forward_batch(x_num, x_cat, want_cache=True)
        model.backward_batch(out, y, cache)

    # the trunk input and its gradient; each layer's output and GELU
    # derivative, plus the shared pre-activation and cdf; one numerical
    # field's three (batch, hidden) blocks; the gradients
    floor = 8 * (2 * b * d_in + (2 * arch.trunk_layers + 2) * b * w
                 + 3 * b * arch.d_hid + model.n_params())
    peak = traced_peak(step)
    assert b >= 900
    assert floor <= peak <= 1.1 * floor, (peak, floor)


def test_a_step_frees_its_gradients_before_the_next_backward():
    schema = Schema.default(include_frac=True)
    batch = 240
    data = curve_training_rows(schema, 32, 0)
    data = tuple(v[:4 * batch] for v in data)
    plan = TrainPlan(stage1=StagePlan(epochs=0, peak_lr=1e-3),
                     stage2=StagePlan(epochs=1, peak_lr=1e-3), batch_size=batch)

    def fresh_model():
        model = RegressorModel(schema, Arch(), seed=0)
        model.set_standardization(data[0])
        return model

    model = fresh_model()

    def step():
        out, cache = model.forward_batch(data[0][:batch], data[1][:batch], want_cache=True)
        model.backward_batch(out, data[2][:batch], cache)

    one_step = traced_peak(step)
    model = fresh_model()
    stage = traced_peak(lambda: _run_stage(
        model, plan.stage2, plan, list(model.params), data, np.random.default_rng(1),
        TrainReport(), "stage2"))
    # AdamW's moments and scratch live beside every step after the first
    state = 8 * (2 * model.n_params() + 2 * ADAMW_CHUNK)
    assert one_step + state <= stage <= 1.05 * (one_step + state), (stage, one_step, state)


@pytest.mark.parametrize("val_runs, batch", [(40, 200), (20, 600)],
                         ids=["validation-larger-than-a-step", "validation-within-a-step"])
def test_training_holds_the_step_or_the_validation_pass_never_both(val_runs, batch):
    # curve rows of 20 training runs (600 rows) and of the validation runs
    schema = Schema.default(include_frac=True)
    data = curve_training_rows(schema, 20, 0)
    val = curve_training_rows(schema, val_runs, 1)
    plan = TrainPlan(stage1=StagePlan(epochs=0, peak_lr=1e-3),
                     stage2=StagePlan(epochs=2, peak_lr=1e-3), batch_size=batch)

    def fresh_model():
        model = RegressorModel(schema, Arch(), seed=0)
        model.set_standardization(data[0])
        return model

    def stage_peak(val):
        model = fresh_model()
        return traced_peak(lambda: _run_stage(
            model, plan.stage2, plan, list(model.params), data,
            np.random.default_rng(1), TrainReport(), "stage2", val))

    model = fresh_model()
    validation = traced_peak(lambda: model.forward_batch(val[0], val[1]))
    # AdamW's moments and scratch outlive the steps, through the validation pass
    state = 8 * (2 * model.n_params() + 2 * ADAMW_CHUNK)
    steps = stage_peak(None)
    both = stage_peak(val)
    assert validation <= both <= 1.05 * max(steps, validation + state), (
        both, steps, validation, state)


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


def test_adamw_updates_blocks_of_any_size_and_layout_in_place():
    rng = np.random.default_rng(3)
    backing = rng.normal(size=(40, 900))
    params = {
        "long": rng.normal(size=2 * ADAMW_CHUNK + 5),        # three chunks
        "rows": rng.normal(size=(300, 130)),                  # runs of whole rows
        "wide": rng.normal(size=(2, 3, ADAMW_CHUNK + 1)),     # a row beyond one chunk
        "transposed": rng.normal(size=(170, 200)).T,          # Fortran order
        "strided": backing[:, ::2],                           # every other column
    }
    assert not params["transposed"].flags.c_contiguous
    assert not params["strided"].flags.c_contiguous
    blocks = dict(params)
    ref = {k: v.copy() for k, v in params.items()}
    keys = list(params)
    state = adamw_init_state(params, keys)
    ref_state = adamw_init_state(ref, keys)
    assert state["work"].size <= 2 * ADAMW_CHUNK
    hyper = dict(beta1=0.9, beta2=0.999, epsilon=1e-8, weight_decay=0.01)
    for step in range(3):
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        grads["rows"] = np.ascontiguousarray(grads["rows"].T).T   # a gradient in F order
        adamw_step(params, grads, state, lr=1e-3, **hyper)
        reference_adamw_step(ref, grads, ref_state, lr=1e-3, **hyper)
        for k in keys:
            assert params[k] is blocks[k]
            assert_same_bits(params[k], ref[k], f"{k} at step {step}")
            assert_same_bits(state["m"][k], ref_state["m"][k], f"m {k} at step {step}")
            assert_same_bits(state["v"][k], ref_state["v"][k], f"v {k} at step {step}")
    # the strided block's updates reached the array it views, and only its columns
    assert_same_bits(backing[:, ::2], ref["strided"], "strided block's backing array")
    assert_same_bits(backing[:, 1::2], np.random.default_rng(3).normal(size=(40, 900))[:, 1::2],
                     "columns between the strided block's")


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
    return ChinchillaPredictor({Scope("synthetic"): fit})


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
    baseline = fixed_baseline()
    rec = curve_rec()
    schema = Schema.default()
    x_num, x_cat, y = build_training_rows([rec], baseline, schema)
    assert y.shape == (1,)
    base = baseline.predict_final_loss(rec.config)
    assert y[0] == pytest.approx(rec.final_loss - base, rel=1e-12)


def test_curve_rows_subsample_the_smoothed_curve():
    baseline = fixed_baseline()
    rec = curve_rec(n_points=500)
    schema = Schema.default(include_frac=True)
    x_num, x_cat, y = build_training_rows([rec], baseline, schema)
    assert y.shape[0] == MAX_CURVE_CHECKPOINTS == 30
    fr = x_num[:, -1]  # frac is the last numerical field
    assert fr[0] > 0.0 and fr[-1] == pytest.approx(1.0)
    assert np.all(np.diff(fr) > 0)
    base = baseline.predict_final_loss(rec.config)
    assert y[-1] == pytest.approx(rec.final_loss - base, rel=1e-12)
    assert y[0] == pytest.approx(rec.smoothed[0] - base, rel=1e-12)


def test_curveless_record_contributes_one_final_row_in_curve_mode():
    baseline = fixed_baseline()
    cfg = make_config()
    rec = record_from_obj({
        "source": cfg.source, "model_size_n": cfg.model_size_n,
        "data_size_d": cfg.data_size_d, "total_steps": cfg.total_steps,
        "optimizer": cfg.optimizer, "peak_lr": cfg.peak_lr,
        "batch_size": cfg.batch_size, "final_loss": 3.1, "run_id": "nf",
    })
    schema = Schema.default(include_frac=True)
    x_num, _, y = build_training_rows([rec], baseline, schema)
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


def test_both_residual_models_encode_a_token_seen_only_in_ood_val():
    base = tiny_splits()
    cfg = make_config(optimizer="sophia", model_size_n=300.0)
    ood = record_from_obj({
        "source": cfg.source, "model_size_n": cfg.model_size_n,
        "data_size_d": cfg.data_size_d, "total_steps": cfg.total_steps,
        "optimizer": cfg.optimizer, "peak_lr": cfg.peak_lr,
        "batch_size": cfg.batch_size, "final_loss": 3.0, "run_id": "ood",
    })
    splits = DatasetSplits(train=base.train, id_val=base.id_val, ood_val=[ood])
    assert "sophia" not in Schema.default().spec("optimizer").vocabulary
    assert all(r.config.optimizer != "sophia" for r in splits.train + splits.id_val)

    neural = train(splits, tiny_plan(), fixed_baseline(), arch=TINY)
    curve = train(splits, tiny_plan(), fixed_baseline(), target_kind="curve", arch=TINY)
    gbt = fit_gbt(splits, fixed_baseline(), GBTParams(rounds=3, max_depth=2))
    assert neural.model.schema == gbt.schema == training_schema(splits)
    assert curve.model.schema == training_schema(splits, include_frac=True)
    for predictor in (neural, curve, gbt):
        assert math.isfinite(predictor.predict_final_loss(ood.config))


def tiny_plan(seed=0, s1=3, s2=5):
    return TrainPlan(
        stage1=StagePlan(epochs=s1, peak_lr=3e-3, warmup_ratio=0.1),
        stage2=StagePlan(epochs=s2, peak_lr=1e-3, warmup_steps=5),
        batch_size=8, seed=seed,
    )


def test_training_is_deterministic_and_seed_sensitive():
    splits = tiny_splits()
    baseline = fixed_baseline()
    a = train(splits, tiny_plan(seed=1), baseline, arch=TINY)
    b = train(splits, tiny_plan(seed=1), baseline, arch=TINY)
    for k in a.model.params:
        np.testing.assert_array_equal(a.model.params[k], b.model.params[k])
    c = train(splits, tiny_plan(seed=2), baseline, arch=TINY)
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
    curve_path = str(tmp_path / "c.ckpt")
    train(tiny_splits(), tiny_plan(), fixed_baseline(), target_kind="curve",
          arch=TINY).save(curve_path)

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

    def kind(value):
        def edit(manifest, entries):
            manifest["target_kind"] = value
        edit.__name__ = f"kind_{value}"
        return edit

    def drop(key):
        def edit(manifest, entries):
            del manifest[key]
        edit.__name__ = f"drop_{key}"
        return edit

    cases = [(path, edit) for edit in (drop_listed, drop_entry, wrong_shape, extra_buffer)]
    cases += [(path, kind("curve")),        # curve on a final schema
              (curve_path, kind("final")),  # final on a curve schema
              (path, kind("bogus"))]
    cases += [(path, drop(key)) for key in ("format", "schema", "schema_hash", "arch",
                                            "rng_seed", "baselines", "report",
                                            "param_keys", "buffer_keys")]

    def swap(key, new, name):
        def edit(manifest, entries):
            manifest[key] = new(manifest[key])
        edit.__name__ = name
        return edit

    def without(d, key):
        return {k: v for k, v in d.items() if k != key}

    cases += [(path, swap("arch", lambda a: {**a, "extra": 1}, "arch_extra_key")),
              (path, swap("arch", lambda a: without(a, "d_hid"), "arch_missing_key")),
              (path, swap("arch", lambda a: {**a, "d_emb": 0}, "arch_zero")),
              (path, swap("arch", lambda a: {**a, "d_emb": 4.0}, "arch_float")),
              (path, swap("arch", lambda a: {**a, "d_emb": True}, "arch_bool")),
              (path, swap("arch", lambda a: list(a.values()), "arch_list")),
              (path, swap("rng_seed", lambda _: "x", "seed_string")),
              (path, swap("rng_seed", lambda _: True, "seed_bool")),
              (path, swap("rng_seed", lambda _: 0.0, "seed_float")),
              (path, swap("report", lambda r: without(r, "n_params"), "report_missing_key")),
              (path, swap("report", lambda r: {**r, "wall_s": 1.0}, "report_extra_key")),
              (path, swap("report", lambda r: list(r), "report_list"))]
    for i, (src, edit) in enumerate(cases):
        bad = str(tmp_path / f"{i}_{edit.__name__}.ckpt")
        rewrite_checkpoint(src, bad, edit)
        with pytest.raises(SchemaError):
            TrainedPredictor.load(bad)

    # a manifest that is not a JSON object, and a zip without one
    with zipfile.ZipFile(path) as zf:
        entries = {name: zf.read(name) for name in zf.namelist()}
    for i, manifest in enumerate((b"[1, 2]", b"{not json", None)):
        bad = str(tmp_path / f"manifest{i}.ckpt")
        with zipfile.ZipFile(bad, "w") as zf:
            for name, payload in entries.items():
                if name != "manifest.json":
                    zf.writestr(name, payload)
                elif manifest is not None:
                    zf.writestr(name, manifest)
        with pytest.raises(SchemaError):
            TrainedPredictor.load(bad)

    # the untouched copies still load, so the failures above are the edits'
    same = str(tmp_path / "same.ckpt")
    rewrite_checkpoint(path, same, lambda manifest, entries: None)
    loaded = TrainedPredictor.load(same)
    for k, v in predictor.model.buffers.items():
        np.testing.assert_array_equal(loaded.model.buffers[k], v)
    rewrite_checkpoint(curve_path, same, lambda manifest, entries: None)
    assert len(TrainedPredictor.load(same).predict_curve([make_config()], [0.5, 1.0])[0]) == 2


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


def test_a_stage_takes_one_non_negative_warmup():
    StagePlan(epochs=1, peak_lr=1e-3, warmup_steps=0)
    StagePlan(epochs=1, peak_lr=1e-3, warmup_ratio=0.5)
    for warmup in ({"warmup_ratio": 0.1, "warmup_steps": 5}, {"warmup_steps": -7}):
        with pytest.raises(ValueError, match="warmup"):
            StagePlan(epochs=1, peak_lr=1e-3, **warmup)


def test_final_model_refuses_curve_queries():
    predictor = train(tiny_splits(), tiny_plan(), fixed_baseline(), arch=TINY)
    with pytest.raises(ValueError):
        predictor.predict_curve([make_config()], [0.5, 1.0])


def train_under_two_blas_thread_counts(records, folder, *args):
    """Bytes of the checkpoints a 1+1-epoch ``train`` writes with one and with
    two OpenBLAS threads, the two trainings run side by side."""
    splits = split_dataset(records, seed=0)
    data = folder / "splits"
    data.mkdir(parents=True)
    for name in ("train", "id_val", "ood_val"):
        (data / f"{name}.jsonl").write_text("".join(
            json.dumps(record_to_obj(r)) + "\n" for r in getattr(splits, name)))
    save_fits(fixed_baseline().fits, folder / "fits")
    plan = folder / "plan.json"
    plan.write_text(json.dumps({"stage1": {"epochs": 1}, "stage2": {"epochs": 1}}))

    src = os.path.dirname(os.path.dirname(losscast.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    outs = [folder / f"threads{n}.zip" for n in (1, 2)]
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "losscast.cli", "train", "--input", str(data),
             "--fits", str(folder / "fits"), "--output", str(out), "--plan", str(plan),
             *args],
            env=dict(env, OPENBLAS_NUM_THREADS=str(n)),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        for n, out in zip((1, 2), outs)]
    for child in children:
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err.decode()
    return [out.read_bytes() for out in outs]


def test_checkpoints_do_not_depend_on_the_blas_thread_count(small_records, oracle_params,
                                                            small_design, tmp_path):
    # the default architecture's trunk matmuls are large enough for OpenBLAS
    # to split them over threads
    one, two = train_under_two_blas_thread_counts(small_records, tmp_path / "final")
    assert one == two
    # the curve model trains at batch 960 on rows whose configs repeat along
    # each run's curve
    curves = generate_synthetic_runs(
        oracle_params, dataclasses.replace(small_design, with_curves=True, curve_points=200),
        seed=5)
    one, two = train_under_two_blas_thread_counts(curves, tmp_path / "curve",
                                                  "--target", "curve")
    assert one == two


def three_ways(predict, configs, seed=0):
    """``predict`` over ``configs`` in one call, each config alone, and in
    random batches of 1-49 configs, each as one array in config order."""
    cuts = np.cumsum(np.random.default_rng(seed).integers(1, 50, size=len(configs)))
    starts = [0, *cuts[cuts < len(configs)]]
    return (predict(configs),
            np.concatenate([predict([c]) for c in configs]),
            np.concatenate([predict(configs[a:b]) for a, b in zip(starts, [*starts[1:], None])]))


def test_a_prediction_does_not_depend_on_its_batch(small_records, oracle_params, small_design):
    # the default architecture, whose trunk matmuls OpenBLAS rounds by row count
    baseline = fixed_baseline()
    splits = split_dataset(small_records, seed=0)
    curve_records = generate_synthetic_runs(
        oracle_params, dataclasses.replace(small_design, with_curves=True, curve_points=60),
        seed=6)
    plan = TrainPlan(stage1=StagePlan(epochs=1, peak_lr=6e-3, warmup_ratio=0.1),
                     stage2=StagePlan(epochs=2, peak_lr=1.5e-3, warmup_steps=10),
                     batch_size=64)
    final = train(splits, plan, baseline)
    curve = train(split_dataset(curve_records, seed=0), dataclasses.replace(plan, batch_size=480),
                  baseline, target_kind="curve")
    gbt = fit_gbt(splits, baseline, GBTParams(rounds=20, learning_rate=0.3))
    configs = [r.config for r in small_records + curve_records]
    assert len(configs) == 288
    fracs = np.arange(1, 31) / 30

    def curve_losses(cs):
        return np.array([[loss for _, loss in c] for c in curve.predict_curve(cs, fracs)])

    for what, predict in (("neural final", final.predict_final_loss_batch),
                          ("neural curve, frac 1", curve.predict_final_loss_batch),
                          ("neural curves", curve_losses),
                          ("gbt", gbt.predict_final_loss_batch),
                          ("chinchilla", baseline.predict_final_loss_batch)):
        whole, alone, batches = three_ways(predict, configs)
        assert whole.shape[0] == len(configs)
        assert_same_bits(alone, whole, f"{what}: alone")
        assert_same_bits(batches, whole, f"{what}: random batches")
    # no config, no pass and no padding row
    assert final.predict_final_loss_batch([]).shape == (0,)
    assert curve.predict_curve([], fracs) == []
