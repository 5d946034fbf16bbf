"""Synthetic oracle: closed-form losses, curves, and dataset generation."""

import gc
import json
import math

import numpy as np
import pytest

from losscast.cli import main
from losscast.synth import (
    ANCHOR_DATA_FRAC,
    BUMP_FRAC,
    ID_SIZES,
    OOD_SIZES,
    OracleParams,
    OraclePredictor,
    SynthDesign,
    generate_synthetic_objects,
    generate_synthetic_runs,
    oracle_curve,
    oracle_loss,
)
from conftest import collections_started, make_config


def hand_loss(p, config):
    """Independent transcription of the documented loss formula."""
    n, d = config.model_size_n, config.data_size_d
    lr_star = p.lr_c * n ** p.lr_alpha * d ** p.lr_beta
    bs_star = p.bs_d * d ** p.bs_gamma
    dx = math.log(config.peak_lr) - math.log(lr_star)
    dy = math.log(config.batch_size) - math.log(bs_star)
    q = p.curvature
    loss = p.e + p.a / n ** p.alpha + p.b / d ** p.beta
    loss += q[0][0] * dx * dx + 2.0 * q[0][1] * dx * dy + q[1][1] * dy * dy
    eff = p.optimizer_effects[config.optimizer]
    loss += eff["offset"]
    loss += eff["wd_curv"] * (
        math.log(max(config.weight_decay, 1e-4)) - math.log(eff["wd_center"])
    ) ** 2
    return loss


def test_oracle_loss_matches_the_documented_formula(oracle_params):
    for config in (
        make_config(peak_lr=2e-3, batch_size=300.0, weight_decay=0.3),
        make_config(model_size_n=520.0, data_size_d=50.0, optimizer="lion"),
        make_config(peak_lr=5e-4, weight_decay=0.03, batch_size=1000.0),
    ):
        assert oracle_loss(oracle_params, config) == pytest.approx(
            hand_loss(oracle_params, config), abs=1e-12
        )


def test_loss_at_the_optimum_is_the_size_scaling_term(oracle_params):
    p = oracle_params
    n, d = 215.0, 25.0
    config = make_config(
        peak_lr=float(p.lr_opt(n, d)),
        batch_size=float(p.bs_opt(d)),
        weight_decay=p.optimizer_effects["adamw"]["wd_center"],
    )
    assert oracle_loss(p, config) == pytest.approx(float(p.chinchilla(n, d)), abs=1e-12)


def test_doubling_lr_costs_exactly_the_quadratic_penalty(oracle_params):
    p = oracle_params
    n, d = 215.0, 25.0
    base = make_config(
        peak_lr=float(p.lr_opt(n, d)),
        batch_size=float(p.bs_opt(d)),
        weight_decay=0.1,
    )
    doubled = make_config(
        peak_lr=2.0 * base.peak_lr,
        batch_size=base.batch_size,
        weight_decay=0.1,
    )
    gap = oracle_loss(p, doubled) - oracle_loss(p, base)
    assert gap == pytest.approx(p.curvature[0][0] * math.log(2.0) ** 2, abs=1e-12)


def test_stated_optimum_is_the_argmin(oracle_params, rng):
    p = oracle_params
    n, d = 300.0, 50.0
    best = oracle_loss(p, make_config(
        model_size_n=n, data_size_d=d,
        peak_lr=float(p.lr_opt(n, d)), batch_size=float(p.bs_opt(d)),
    ))
    for _ in range(200):
        lr = float(p.lr_opt(n, d)) * math.exp(rng.uniform(-1.5, 1.5))
        bs = float(p.bs_opt(d)) * math.exp(rng.uniform(-1.5, 1.5))
        probe = make_config(model_size_n=n, data_size_d=d, peak_lr=lr, batch_size=bs)
        assert oracle_loss(p, probe) >= best - 1e-12


def test_optimizer_preference_crosses_in_weight_decay(oracle_params):
    p = oracle_params

    def gap(wd):
        adamw = oracle_loss(p, make_config(weight_decay=wd, optimizer="adamw"))
        lion = oracle_loss(p, make_config(weight_decay=wd, optimizer="lion"))
        return adamw - lion

    assert gap(0.1) < 0  # adamw wins at its preferred decay
    assert gap(0.6) > 0  # lion wins at its preferred decay
    # analytic crossing: 0.02 (u - ln 0.1)^2 = 0.015 + 0.02 (u - ln 0.6)^2
    u = (0.015 / 0.02 / math.log(6.0) + math.log(0.06)) / 2.0
    wd_cross = math.exp(u)
    assert 0.28 < wd_cross < 0.33
    assert gap(wd_cross) == pytest.approx(0.0, abs=1e-12)


def test_group_minimum_is_exactly_the_scaling_law(oracle_params):
    # the default design includes zero lr/bs offsets and the adamw wd center,
    # so the best run in every (n, d) group sits exactly on the frontier
    p = dataclasses_replace_sigma(oracle_params, 0.0)
    design = SynthDesign(sizes=((215.0, 25.0), (430.0, 50.0)))
    runs = generate_synthetic_runs(p, design, seed=0)
    for n, d in design.sizes:
        group = [r.final_loss for r in runs
                 if r.config.model_size_n == n and r.config.data_size_d == d]
        assert min(group) == pytest.approx(float(p.chinchilla(n, d)), abs=1e-12)


def dataclasses_replace_sigma(params, sigma):
    import dataclasses
    return dataclasses.replace(params, noise_sigma=sigma)


def test_curve_endpoints_are_exact(oracle_params):
    p, config = oracle_params, make_config()
    vals = oracle_curve(p, config, [0.0, 1.0])
    assert vals[1] == pytest.approx(oracle_loss(p, config), abs=1e-12)
    d0 = ANCHOR_DATA_FRAC * config.data_size_d
    lr_star = p.lr_c * config.model_size_n ** p.lr_alpha * d0 ** p.lr_beta
    bs_star = p.bs_d * d0 ** p.bs_gamma
    dx = math.log(config.peak_lr) - math.log(lr_star)
    dy = math.log(config.batch_size) - math.log(bs_star)
    q = p.curvature
    l_zero = float(p.chinchilla(config.model_size_n, d0))
    l_zero += q[0][0] * dx * dx + 2.0 * q[0][1] * dx * dy + q[1][1] * dy * dy
    l_zero += p.optimizer_effects["adamw"]["wd_curv"] * (
        math.log(config.weight_decay) - math.log(0.1)
    ) ** 2
    assert vals[0] == pytest.approx(l_zero, abs=1e-12)


def test_curve_is_monotone_after_the_warmup_bump(oracle_params):
    fracs = np.linspace(BUMP_FRAC, 1.0, 500)
    vals = oracle_curve(oracle_params, make_config(), fracs)
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals[-1] < vals[0]


def test_curve_bump_raises_early_loss(oracle_params):
    config = make_config()
    with_bump = oracle_curve(oracle_params, config, [BUMP_FRAC])[0]
    flat = oracle_curve(
        dataclasses_replace(oracle_params, curve_bump_amp=0.0), config, [BUMP_FRAC]
    )[0]
    expected_bump = 0.10 * (1.0 - BUMP_FRAC)  # amp (1-f) (f/F) e^(1-f/F) at f = F
    assert with_bump - flat == pytest.approx(expected_bump, abs=1e-12)


def dataclasses_replace(params, **kw):
    import dataclasses
    return dataclasses.replace(params, **kw)


def test_curvature_validation():
    with pytest.raises(ValueError, match="symmetric"):
        OracleParams(curvature=((0.025, 0.004), (0.005, 0.010)))
    with pytest.raises(ValueError, match="positive definite"):
        OracleParams(curvature=((0.025, 0.03), (0.03, 0.01)))
    with pytest.raises(ValueError, match="non-negative"):
        OracleParams(noise_sigma=-0.1)


def test_default_design_counts():
    assert len(ID_SIZES) == 15 and len(OOD_SIZES) == 3
    design = SynthDesign()
    assert design.n_runs() == 18 * 2 * 7 * 3 * 4 == 3024
    curve_design = SynthDesign.curve_default()
    assert curve_design.n_runs() == 18 * 2 * 3 * 2 * 2 == 432
    assert curve_design.with_curves


def test_generated_objects_match_the_design(oracle_params, small_design):
    objs = generate_synthetic_objects(oracle_params, small_design, seed=5)
    assert len(objs) == small_design.n_runs() == 144
    run_ids = [o["run_id"] for o in objs]
    assert len(set(run_ids)) == len(run_ids)
    assert all(o["finished"] for o in objs)


def test_noiseless_records_carry_the_exact_oracle_loss(oracle_params, small_design):
    p = dataclasses_replace_sigma(oracle_params, 0.0)
    for record in generate_synthetic_runs(p, small_design, seed=5):
        assert record.final_loss == pytest.approx(
            oracle_loss(p, record.config), abs=1e-12
        )
        assert not record.has_curve


def test_curve_records_parse_with_increasing_steps(oracle_params):
    design = SynthDesign(
        sizes=((215.0, 25.0),), optimizers=("adamw",), lr_log_offsets=(0.0,),
        bs_log_offsets=(0.0,), weight_decays=(0.1,), with_curves=True,
    )
    (record,) = generate_synthetic_runs(oracle_params, design, seed=1)
    assert record.has_curve
    assert len(record.steps) == 800
    assert np.all(np.diff(record.steps) > 0)
    # the smoothed tail lags a decreasing curve, so it sits a bit above truth
    truth = oracle_loss(oracle_params, record.config)
    assert truth - 0.01 < record.final_loss < truth + 0.15


def test_synth_command_is_byte_deterministic(oracle_params, tmp_path):
    def synth(name, seed):
        out = tmp_path / name
        assert main(["synth", "--output", str(out), "--seed", str(seed)]) == 0
        return out.read_bytes()

    a = synth("a.jsonl", 7)
    assert a == synth("b.jsonl", 7)
    assert a != synth("c.jsonl", 8)
    sidecar = json.loads((tmp_path / "a.jsonl.oracle.json").read_text(encoding="utf-8"))
    assert OracleParams.from_dict(sidecar).to_dict() == oracle_params.to_dict()


def test_oracle_predictor_wraps_the_closed_form(oracle_params):
    pred = OraclePredictor(oracle_params)
    config = make_config(peak_lr=2e-3)
    assert pred.predict_final_loss(config) == oracle_loss(oracle_params, config)
    curve = pred.predict_curve([config], [0.5, 1.0])[0]
    assert curve[0][0] == 3000 and curve[1][0] == 6000
    assert curve[1][1] == pytest.approx(oracle_loss(oracle_params, config), abs=1e-12)


def test_generated_steps_follow_the_token_budget(oracle_params):
    design = SynthDesign(sizes=((215.0, 25.0),), optimizers=("adamw",),
                         lr_log_offsets=(0.0,), bs_log_offsets=(0.0,),
                         weight_decays=(0.1,))
    (obj,) = generate_synthetic_objects(oracle_params, design, seed=0)
    expected = round(25.0 * 1e9 / (obj["batch_size"] * 2048 * 4))
    assert obj["total_steps"] == expected


def test_curve_generation_runs_without_cyclic_collections(oracle_params):
    design = SynthDesign(sizes=((215.0, 25.0),), optimizers=("adamw", "lion"),
                         lr_log_offsets=(-0.6, 0.6), bs_log_offsets=(-0.5, 0.5),
                         weight_decays=(0.1,), with_curves=True)
    assert gc.isenabled()
    with collections_started() as started:
        objs = generate_synthetic_objects(oracle_params, design, seed=2)
    # 8 runs of 800 [step, loss] lists; at most the collection that comes due
    # as the pause ends
    assert len(objs) == 8 and len(started) <= 1
    assert gc.isenabled()


def test_colliding_curve_steps_are_each_pushed_one_past_the_last(oracle_params):
    design = SynthDesign(sizes=((130.0, 10.0),), optimizers=("adamw",),
                         lr_log_offsets=(0.0,), bs_log_offsets=(0.6,),
                         weight_decays=(0.1,), with_curves=True, curve_points=12000)
    (obj,) = generate_synthetic_objects(oracle_params, design, seed=0)
    k, total = design.curve_points, obj["total_steps"]
    assert total < k // 2  # so that rounded steps collide
    rounded = np.round(np.arange(1, k + 1) / k * total).astype(np.int64)
    idx = np.arange(k)
    # steps[j] = max(rounded[j], steps[j - 1] + 1) with steps[-1] = 0, in closed form
    want = np.maximum.accumulate(np.maximum(rounded - idx, 1)) + idx
    steps = [s for s, _ in obj["curve"]]
    assert steps == want.tolist()
    assert all(type(s) is int for s in steps)
    assert all(type(v) is float for _, v in obj["curve"])
