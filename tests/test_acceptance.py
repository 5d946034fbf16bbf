"""Acceptance gate: the nine headline guarantees, one test per criterion.

Every test asserts its stated tolerance and runtime budget, then prints a
single PASS line with the measured numbers (visible with pytest -s; the
pytest -v verdict per test is the pass/fail record).
"""

import dataclasses
import math
import os
import time
import zlib

import numpy as np
import pytest

from losscast.errors import SplitError
from losscast.features import encode_batch
from losscast.gbt import GBTParams, fit_gbt
from losscast.ingest import filter_runs, parse_runs, record_from_obj, split_dataset
from losscast.lawfit import (
    ChinchillaPredictor,
    FrontierPoint,
    fit_baselines,
    fit_chinchilla,
    fit_power_law,
    predict_chinchilla,
)
from losscast.metrics import evaluate_split, spearman_rho
from losscast.regressor import (
    MAX_CURVE_CHECKPOINTS,
    Arch,
    RegressorModel,
    TrainPlan,
    train,
)
from losscast.schema import Schema
from losscast.select import recommend, refine_optimum
from losscast.synth import (
    OracleParams,
    OraclePredictor,
    SynthDesign,
    generate_synthetic_runs,
    oracle_loss,
)
from conftest import make_config

SYNTH_SEED = 7
SPLIT_SEED = 11


def ok(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


# -- shared pipelines (built once, timed) ------------------------------------------

@pytest.fixture(scope="module")
def oracle() -> OracleParams:
    return OracleParams()  # noise_sigma 0.005


@pytest.fixture(scope="module")
def big_pipeline(oracle):
    t0 = time.monotonic()
    records = generate_synthetic_runs(oracle, SynthDesign(), seed=SYNTH_SEED)
    kept, rejected = filter_runs(records)
    splits = split_dataset(kept, seed=SPLIT_SEED)
    baselines = fit_baselines(splits.train)
    return {
        "records": records, "kept": kept, "rejected": rejected,
        "splits": splits, "baselines": baselines,
        "seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def final_model(big_pipeline):
    t0 = time.monotonic()
    predictor = train(
        big_pipeline["splits"], TrainPlan.final_default(),
        ChinchillaPredictor(big_pipeline["baselines"]),
    )
    return {"predictor": predictor, "seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def gbt_model(big_pipeline):
    t0 = time.monotonic()
    predictor = fit_gbt(
        big_pipeline["splits"], ChinchillaPredictor(big_pipeline["baselines"]), GBTParams()
    )
    return {"predictor": predictor, "seconds": time.monotonic() - t0}


@pytest.fixture(scope="module")
def curve_pipeline(oracle):
    t0 = time.monotonic()
    records = generate_synthetic_runs(
        oracle, SynthDesign.curve_default(), seed=SYNTH_SEED
    )
    kept, _ = filter_runs(records)
    splits = split_dataset(kept, seed=SPLIT_SEED)
    baselines = fit_baselines(splits.train)
    predictor = train(
        splits, TrainPlan.curve_default(), ChinchillaPredictor(baselines),
        target_kind="curve",
    )
    return {
        "splits": splits, "predictor": predictor,
        "seconds": time.monotonic() - t0,
    }


# -- 1: size-scaling fit recovers held-out predictions ------------------------------

def test_c1_chinchilla_predictions_recover_the_generating_surface():
    t0 = time.monotonic()
    e, a, b, alpha, beta = 1.69, 6.4, 1.9, 0.33, 0.27
    ns = np.array([100.0, 150.0, 215.0, 300.0, 380.0, 450.0])
    ds = np.array([2.0, 10.0, 30.0, 60.0])
    grid_n, grid_d = [x.ravel() for x in np.meshgrid(ns, ds)]
    truth = e + a / grid_n**alpha + b / grid_d**beta
    assert grid_n.size >= 12

    def frontier(losses):
        return [
            FrontierPoint(n=float(n), d=float(d), best_loss=float(l),
                          best_config=make_config(model_size_n=n, data_size_d=d))
            for n, d, l in zip(grid_n, grid_d, losses)
        ]

    fit = fit_chinchilla(frontier(truth))
    rel_clean = np.max(np.abs(predict_chinchilla(fit, grid_n, grid_d) - truth) / truth)
    assert rel_clean < 1e-3

    rng = np.random.default_rng(0)
    noisy = truth + rng.normal(0.0, 0.01, size=truth.shape)
    fit_n = fit_chinchilla(frontier(noisy))
    rel_noisy = np.max(np.abs(predict_chinchilla(fit_n, grid_n, grid_d) - truth) / truth)
    assert rel_noisy < 2e-2

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    ok("c1", f"noiseless rel err {rel_clean:.2e} (<1e-3), "
             f"sigma=0.01 rel err {rel_noisy:.2e} (<2e-2), {elapsed:.1f}s")


# -- 2: optimal-hyperparameter power laws are exact on clean data --------------------

def test_c2_power_law_parameters_recover_exactly():
    t0 = time.monotonic()
    c, alpha_lr, beta_lr, d_coef, gamma_bs = 2.7e-3, -0.21, 0.13, 88.0, 0.47
    frontier = []
    for n in (100.0, 215.0, 430.0, 900.0):
        for d in (5.0, 20.0, 60.0):
            lr = c * n**alpha_lr * d**beta_lr
            bs = d_coef * d**gamma_bs
            frontier.append(FrontierPoint(
                n=n, d=d, best_loss=2.5,
                best_config=make_config(model_size_n=n, data_size_d=d,
                                        peak_lr=lr, batch_size=bs),
            ))
    fit = fit_power_law(frontier)
    got = (fit.c, fit.alpha_lr, fit.beta_lr, fit.d, fit.gamma_bs)
    want = (c, alpha_lr, beta_lr, d_coef, gamma_bs)
    worst = max(abs(g - w) / abs(w) for g, w in zip(got, want))
    assert worst < 1e-8

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    ok("c2", f"all five parameters within {worst:.2e} relative (<1e-8), "
             f"{elapsed:.2f}s")


# -- 3: gradients are right and training is bit-deterministic ------------------------

def test_c3_gradient_checks_and_bit_identical_checkpoints(tmp_path, oracle,
                                                          small_design):
    t0 = time.monotonic()
    schema = Schema.default()
    model = RegressorModel(schema, Arch(4, 4, 2, 8), seed=1)
    for key in model.params:  # zero-init head/biases would hide gradient bugs
        rng = np.random.default_rng(zlib.crc32(key.encode()))
        model.params[key] = rng.normal(0.0, 0.3, size=model.params[key].shape)
    configs = [
        make_config(peak_lr=lr, batch_size=bs, optimizer=opt)
        for lr, bs, opt in [(1e-3, 256.0, "adamw"), (3e-3, 512.0, "lion"),
                            (5e-4, 96.0, "adamw"), (8e-3, 1024.0, "muon"),
                            (2e-3, 480.0, "adamw")]
    ]
    x_num, x_cat = encode_batch(schema, configs)
    model.set_standardization(x_num)
    targets = np.array([0.3, -0.2, 0.1, 0.0, 0.5])
    out, cache = model.forward_batch(x_num, x_cat, want_cache=True)
    grads = model.backward_batch(out, targets, cache)

    def loss_fn():
        o = model.forward_batch(x_num, x_cat)
        return float(np.mean((o - targets) ** 2))

    rng = np.random.default_rng(3)
    eps, worst = 1e-6, 0.0
    for key, g in grads.items():
        for fi in rng.choice(g.size, size=min(g.size, 6), replace=False):
            idx = np.unravel_index(fi, g.shape)
            keep = model.params[key][idx]
            model.params[key][idx] = keep + eps
            hi = loss_fn()
            model.params[key][idx] = keep - eps
            lo = loss_fn()
            model.params[key][idx] = keep
            fd = (hi - lo) / (2 * eps)
            worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8))
    assert worst < 1e-4

    records = generate_synthetic_runs(oracle, small_design, seed=5)
    kept, _ = filter_runs(records)
    splits = split_dataset(kept, seed=2)
    baselines = fit_baselines(splits.train)
    plan = TrainPlan.final_default()
    plan = dataclasses.replace(
        plan,
        stage1=dataclasses.replace(plan.stage1, epochs=3),
        stage2=dataclasses.replace(plan.stage2, epochs=5, warmup_steps=4),
    )
    paths = []
    for name in ("a.zip", "b.zip"):
        predictor = train(splits, plan, ChinchillaPredictor(baselines))
        path = tmp_path / name
        predictor.save(str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    ok("c3", f"worst finite-difference rel err {worst:.2e} (<1e-4), "
             f"checkpoints bit-identical, {elapsed:.1f}s")


# -- 4: end-to-end ranking and error ordering on the big synthetic set ---------------

def test_c4_synthetic_end_to_end_ordering(oracle, big_pipeline, final_model,
                                          gbt_model):
    splits = big_pipeline["splits"]
    neural = final_model["predictor"]
    m_id = evaluate_split(neural, splits.id_val)
    m_ood = evaluate_split(neural, splits.ood_val)
    m_chinch = evaluate_split(
        ChinchillaPredictor(big_pipeline["baselines"]), splits.id_val
    )
    m_gbt = evaluate_split(gbt_model["predictor"], splits.id_val)

    assert m_id.spearman_rho >= 0.98
    assert m_ood.spearman_rho >= 0.93
    assert m_id.mae <= 3.0 * oracle.noise_sigma
    assert m_chinch.mae >= 3.0 * m_id.mae
    assert m_gbt.mae <= 2.0 * m_id.mae

    elapsed = (big_pipeline["seconds"] + final_model["seconds"]
               + gbt_model["seconds"])
    assert elapsed < 600.0
    ok("c4", f"neural ID rho {m_id.spearman_rho:.4f} (>=0.98) "
             f"OOD rho {m_ood.spearman_rho:.4f} (>=0.93), "
             f"ID MAE {m_id.mae:.4f} (<= {3 * oracle.noise_sigma:.3f}), "
             f"chinchilla/neural {m_chinch.mae / m_id.mae:.1f}x (>=3x), "
             f"gbt/neural {m_gbt.mae / m_id.mae:.1f}x (<=2x), {elapsed:.0f}s")


# -- 5: recommendations sit within 0.5% of the true grid optimum ---------------------

def test_c5_recommendations_land_near_the_true_optimum(oracle):
    t0 = time.monotonic()
    predictor = OraclePredictor(oracle)
    worst_rel = -math.inf
    for n, d in [(180.0, 15.0), (350.0, 30.0),    # inside the training range
                 (520.0, 30.0), (900.0, 60.0)]:   # beyond the 430M threshold
        rec = recommend(predictor, n, d, base_config=make_config())
        grid_best = min(loss for _, loss in rec.predicted_surface)
        true_refined = oracle_loss(oracle, rec.refined_config)
        rel = (true_refined - grid_best) / grid_best
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 0.005

    # exact-quadratic minimizer recovery
    lr0, bs0 = 2.4e-3, 420.0
    rng = np.random.default_rng(1)
    surface = []
    for _ in range(40):
        lr = lr0 * math.exp(rng.uniform(-0.5, 0.5))
        bs = bs0 * math.exp(rng.uniform(-0.5, 0.5))
        x, y = math.log(lr / lr0), math.log(bs / bs0)
        surface.append((lr, bs, 2.0 + 0.08 * x * x + 0.01 * x * y + 0.05 * y * y))
    ref = refine_optimum(surface, near_frac=1e9)
    assert not ref.fallback
    vertex_err = max(abs(math.log(ref.lr / lr0)), abs(math.log(ref.bs / bs0)))
    assert vertex_err < 1e-6

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    ok("c5", f"worst true relative excess {worst_rel:.2e} (<=5e-3) over 4 "
             f"targets, quadratic vertex err {vertex_err:.1e} (<1e-6), "
             f"{elapsed:.0f}s")


# -- 6: curve-mode regressor tracks held-out loss curves -----------------------------

def curve_errors(predictor, records):
    worst = 0.0
    for r in records:
        if not r.has_curve:
            continue
        k = min(MAX_CURVE_CHECKPOINTS, len(r.smoothed))
        idx = np.unique(np.round(np.linspace(0, len(r.smoothed) - 1, k)).astype(int))
        fracs = np.clip(r.steps[idx] / r.config.total_steps, 1e-9, 1.0)
        pred = np.array([l for _, l in predictor.predict_curve([r.config], fracs)[0]])
        worst = max(worst, float(np.max(np.abs(pred - r.smoothed[idx]))))
    return worst


def test_c6_curve_predictions_track_heldout_curves(curve_pipeline):
    splits = curve_pipeline["splits"]
    predictor = curve_pipeline["predictor"]
    err_id = curve_errors(predictor, splits.id_val)
    err_ood = curve_errors(predictor, splits.ood_val)
    assert err_id <= 0.05
    assert err_ood <= 0.10
    elapsed = curve_pipeline["seconds"]
    assert elapsed < 600.0
    ok("c6", f"max curve err ID {err_id:.4f} (<=0.05) "
             f"OOD {err_ood:.4f} (<=0.10), {elapsed:.0f}s")


# -- 7: the regressor learns the optimizer/weight-decay interaction ------------------

def crossing_cells(diffs) -> list[int]:
    sign = np.sign(diffs)
    return [i for i in range(len(sign) - 1)
            if sign[i] != sign[i + 1] and sign[i] != 0]


def test_c7_weight_decay_preference_crossing(oracle, final_model):
    n, d = 520.0, 50.0  # beyond the ID threshold
    lr = float(oracle.lr_opt(n, d))
    bs = float(oracle.bs_opt(d))
    wd_grid = np.geomspace(0.03, 1.0, 13)

    def profile(predict, optimizer):
        return np.array([
            predict(make_config(model_size_n=n, data_size_d=d, peak_lr=lr,
                                batch_size=bs, optimizer=optimizer,
                                weight_decay=float(wd)))
            for wd in wd_grid
        ])

    neural = final_model["predictor"].predict_final_loss
    truth = lambda cfg: oracle_loss(oracle, cfg)
    model_diff = profile(neural, "adamw") - profile(neural, "lion")
    true_diff = profile(truth, "adamw") - profile(truth, "lion")

    true_cells = crossing_cells(true_diff)
    model_cells = crossing_cells(model_diff)
    assert len(true_cells) == 1
    assert model_cells, "predicted weight-decay profiles never cross"
    nearest = min(abs(c - true_cells[0]) for c in model_cells)
    assert nearest <= 1

    wd_lo, wd_hi = wd_grid[true_cells[0]], wd_grid[true_cells[0] + 1]
    ok("c7", f"profiles cross in cell {model_cells} vs oracle cell "
             f"{true_cells[0]} (wd {wd_lo:.3f}..{wd_hi:.3f}), within one cell")


# -- 8: filter and split invariants hold on randomized run sets ----------------------

def random_run_objs(rng, n_groups=8):
    """Random run logs spiked with every rejectable pathology."""
    objs = []
    sizes = [(float(rng.choice([130, 215, 300, 430, 520, 1073])),
              float(rng.choice([10, 25, 50]))) for _ in range(n_groups)]
    uid = 0
    for n, d in sizes:
        group_floor = float(rng.uniform(2.0, 3.0))
        for _ in range(int(rng.integers(3, 7))):
            kind = rng.choice(["clean", "unfinished", "diverged", "gapped", "rising"])
            final = group_floor + float(rng.uniform(0.0, 0.2))
            obj = {
                "run_id": f"r{uid:04d}", "source": "synthetic", "finished": True,
                "model_size_n": n, "data_size_d": d, "total_steps": 4000,
                "optimizer": "adamw", "peak_lr": 1e-3, "batch_size": 256.0,
                "num_layers": 12, "num_heads": 8, "hidden_dim": 512,
                "lr_schedule": "cosine", "min_lr_ratio": 0.1,
                "weight_decay": 0.1, "warmup_ratio": 0.01,
                "beta1": 0.9, "beta2": 0.95, "epsilon": 8.0,
            }
            uid += 1
            if kind == "unfinished":
                obj["finished"] = False
                obj["final_loss"] = final
            elif kind == "diverged":
                obj["final_loss"] = 4.0 + float(rng.uniform(0.1, 2.0))
            elif kind == "gapped":
                obj["final_loss"] = group_floor + 0.3 + float(rng.uniform(0.05, 0.5))
            elif kind == "rising":
                steps = np.arange(1, 401) * 10
                curve = np.concatenate([
                    np.linspace(3.5, final, 300),
                    final + np.linspace(0.0, 0.8, 100),  # tail climbs hard
                ])
                obj["curve"] = [[int(s), float(v)] for s, v in zip(steps, curve)]
            else:
                obj["final_loss"] = final
            # every group needs one clean anchor so the gap rule has a floor
            objs.append(obj)
        objs.append({**obj, "run_id": f"r{uid:04d}", "finished": True,
                     "final_loss": group_floor})
        objs[-1].pop("curve", None)
        uid += 1
    return objs


def test_c8_filter_and_split_property_suite():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        records = [record_from_obj(o) for o in random_run_objs(rng)]
        kept, rejected = filter_runs(records)
        assert len(kept) + len(rejected) == len(records)

        rules = {rec.run_id: rule for rec, rule, _ in rejected}
        best = {}
        for r in kept:
            key = (r.config.optimizer, round(r.config.model_size_n, 1),
                   round(r.config.data_size_d, 1))
            best[key] = min(best.get(key, math.inf), r.final_loss)
        for r in kept:
            key = (r.config.optimizer, round(r.config.model_size_n, 1),
                   round(r.config.data_size_d, 1))
            assert r.finished
            assert r.final_loss <= 4.0
            assert r.final_loss <= best[key] + 0.3 + 1e-6
        for rec, rule, _ in rejected:
            assert rule in ("unfinished", "diverged", "unstable")
            if not rec.finished:
                assert rules[rec.run_id] == "unfinished"

        try:
            splits = split_dataset(kept, seed=seed)
        except SplitError:
            continue  # a draw without two ID groups cannot split; that is the contract
        group = lambda r: (r.config.optimizer, round(r.config.model_size_n, 1),
                           round(r.config.data_size_d, 1))
        membership = {}
        for name, part in (("train", splits.train), ("id", splits.id_val),
                           ("ood", splits.ood_val)):
            for r in part:
                membership.setdefault(group(r), set()).add(name)
        assert all(len(m) == 1 for m in membership.values())
        for r in splits.ood_val:
            assert r.config.model_size_n > 430.0
        for r in splits.train + splits.id_val:
            assert r.config.model_size_n <= 430.0
        id_groups = {g for g, m in membership.items() if "ood" not in m}
        n_train_groups = sum(
            1 for g, m in membership.items() if "train" in m
        )
        expected = max(1, min(len(id_groups) - 1, round(0.8 * len(id_groups))))
        assert n_train_groups == expected
        # determinism
        again = split_dataset(kept, seed=seed)
        assert [r.run_id for r in again.train] == [r.run_id for r in splits.train]
    ok("c8", "divergence/gap/slope rejection, group atomicity, OOD threshold, "
             "split-count and determinism invariants over 5 randomized sets")


# -- 9: optional real-data check, skipped when the corpus is absent ------------------

def real_dataset_path():
    cand = os.environ.get("LOSSCAST_REAL_DATA")
    here = os.path.dirname(__file__)
    options = [cand] if cand else []
    options += [os.path.join(here, "..", "data", name)
                for name in ("real_runs.jsonl", "steplaw_runs.jsonl")]
    for path in options:
        if path and os.path.exists(path):
            return path
    return None


@pytest.mark.skipif(real_dataset_path() is None,
                    reason="real run-log dataset not present "
                           "(set LOSSCAST_REAL_DATA or add data/real_runs.jsonl)")
def test_c9_real_data_gbt_baseline():
    records = parse_runs(real_dataset_path()).records
    portion = [r for r in records if r.config.source == "steplaw"]
    kept, _ = filter_runs(portion)
    splits = split_dataset(kept, seed=SPLIT_SEED)
    baselines = fit_baselines(splits.train)
    predictor = fit_gbt(splits, ChinchillaPredictor(baselines), GBTParams())
    m = evaluate_split(predictor, splits.id_val)
    assert m.mae <= 0.02
    assert m.spearman_rho >= 0.98
    ok("c9", f"real-data gbt ID MAE {m.mae:.4f} (<=0.02) "
             f"rho {m.spearman_rho:.4f} (>=0.98)")
