"""Parsing, smoothing, the three rejection rules, and group-wise splitting."""

import gc
import json
import math

import numpy as np
import pytest

from losscast.errors import FormatError, SplitError
from losscast.ingest import (
    DIVERGENCE_LOSS,
    GROUP_GAP,
    OOD_THRESHOLD_N,
    RULE_DIVERGED,
    RULE_UNFINISHED,
    RULE_UNSTABLE,
    RunRecord,
    config_from_obj,
    filter_runs,
    gc_paused,
    group_key,
    nd_key,
    parse_runs,
    record_from_obj,
    record_to_obj,
    smooth_curve,
    split_dataset,
    write_split_manifest,
)
from losscast.cli import _write_jsonl
from losscast.synth import OracleParams, SynthDesign, generate_synthetic_objects
from conftest import collections_started, make_config


def base_obj(**over):
    obj = {
        "source": "lab",
        "model_size_n": 215.0,
        "data_size_d": 25.0,
        "total_steps": 5000,
        "optimizer": "adamw",
        "peak_lr": 1e-3,
        "batch_size": 480,
        "final_loss": 3.0,
    }
    obj.update(over)
    return obj


def curve_record(losses, steps=None, run_id="r", **config_over):
    steps = list(range(1, len(losses) + 1)) if steps is None else steps
    obj = base_obj(curve=[[s, l] for s, l in zip(steps, losses)], **config_over)
    obj.pop("final_loss")
    return record_from_obj(obj, run_id=run_id)


# -- smoothing ------------------------------------------------------------------

def test_smoothing_recurrence_by_hand():
    x = [4.0, 3.0, 2.0]
    got = smooth_curve(x, coeff=0.99)
    s1 = 0.99 * 4.0 + (1.0 - 0.99) * 3.0
    s2 = 0.99 * s1 + (1.0 - 0.99) * 2.0
    np.testing.assert_allclose(got, [4.0, s1, s2], rtol=0, atol=0)


def test_final_loss_is_smoothed_tail():
    rec = curve_record([5.0, 4.0, 3.5, 3.4])
    assert rec.final_loss == rec.smoothed[-1]
    assert rec.final_loss != rec.losses[-1]  # the raw tail differs


# -- parsing --------------------------------------------------------------------

def test_field_aliases_and_heuristics():
    cfg = config_from_obj({
        "source": "lab", "model_size": 215.0, "data_size": 25.0,
        "total_steps": 5000, "optimizer": "adamw", "learning_rate": 1e-3,
        "batch_size": 480, "warmup": 250, "betas": [0.9, 0.95],
        "epsilon": 1e-8, "wd": 0.1, "grad_clip": 1.0, "hidden_size": 1024,
        "schedule": "cosine", "minlr_ratio": 0.1,
    })
    assert cfg.model_size_n == 215.0 and cfg.data_size_d == 25.0
    assert cfg.peak_lr == 1e-3
    assert cfg.warmup == 250 and not cfg.warmup_is_ratio  # bare warmup > 1
    assert cfg.beta1 == 0.9 and cfg.beta2 == 0.95
    assert cfg.epsilon == pytest.approx(8.0)          # raw 1e-8 -> neg log10
    assert cfg.weight_decay == 0.1 and cfg.max_grad_norm == 1.0
    assert cfg.hidden_dim == 1024 and cfg.lr_schedule == "cosine"
    assert cfg.min_lr_ratio == 0.1


def test_warmup_below_one_is_a_ratio():
    cfg = config_from_obj(base_obj(warmup=0.02))
    assert cfg.warmup == 0.02 and cfg.warmup_is_ratio


def test_epsilon_already_neglog_passes_through():
    cfg = config_from_obj(base_obj(epsilon=8, beta1=0.9, beta2=0.95))
    assert cfg.epsilon == 8.0


def test_finished_run_needs_a_loss():
    with pytest.raises(ValueError):
        record_from_obj({k: v for k, v in base_obj().items() if k != "final_loss"})


def test_curve_must_be_increasing_in_steps():
    obj = base_obj(curve=[[1, 3.0], [1, 2.9]])
    obj.pop("final_loss")
    with pytest.raises(ValueError):
        record_from_obj(obj)


def test_parse_collects_malformed_lines(tmp_path):
    path = tmp_path / "runs.jsonl"
    lines = [json.dumps(base_obj(run_id=f"r{i}")) for i in range(4)]
    lines.insert(2, "{not json")
    lines.insert(4, json.dumps({"optimizer": "adamw"}))  # missing fields
    lines.append(json.dumps(base_obj(betas=[True, 0.95])))  # a boolean is not a number
    path.write_text("\n".join(lines) + "\n")
    result = parse_runs(path)
    assert len(result.records) == 4
    assert [ln for ln, _ in result.malformed] == [3, 5, 7]
    assert result.malformed[2][1] == "field 'beta1' must be a number, got True"


def test_parse_rejects_mostly_malformed_files(tmp_path):
    path = tmp_path / "runs.jsonl"
    lines = [json.dumps(base_obj()), "junk", "more junk"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        parse_runs(path)


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_paused_restores_the_collector_state_it_found(enabled):
    try:
        if not enabled:
            gc.disable()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled() == enabled
        with pytest.raises(RuntimeError), gc_paused():
            raise RuntimeError("body fails")
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


def test_a_refused_file_leaves_the_collector_enabled(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text("\n".join([json.dumps(base_obj())] + ["junk"] * 5) + "\n")
    assert gc.isenabled()
    with pytest.raises(FormatError):
        parse_runs(path)
    assert gc.isenabled()


def test_curve_logs_are_read_and_written_without_cyclic_collections(tmp_path):
    # 40 runs of 800 points: each line decodes into 801 lists, and with the
    # collector on each line sets off a collection; paused, at most the one
    # that comes due as the pause ends runs
    design = SynthDesign(sizes=((130.0, 10.0), (215.0, 25.0)), optimizers=("adamw",),
                         lr_log_offsets=(-0.6, -0.3, 0.0, 0.3, 0.6),
                         bs_log_offsets=(-0.5, 0.5), weight_decays=(0.1, 0.6),
                         with_curves=True)
    log = tmp_path / "runs.jsonl"
    _write_jsonl(log, generate_synthetic_objects(OracleParams(), design, seed=3))
    assert gc.isenabled()
    with collections_started() as started:
        records = parse_runs(log).records
    assert len(records) == 40 and len(started) <= 1
    with collections_started() as started:
        _write_jsonl(tmp_path / "kept.jsonl", (record_to_obj(r) for r in records))
    assert len(started) <= 1
    assert gc.isenabled()


def test_record_round_trip(tmp_path):
    rec = curve_record([4.0, 3.5, 3.2, 3.1], run_id="rt")
    back = record_from_obj(record_to_obj(rec))
    assert back.config == rec.config
    assert back.final_loss == rec.final_loss
    np.testing.assert_array_equal(back.smoothed, rec.smoothed)


# -- filter rules ---------------------------------------------------------------

def test_rule_unfinished():
    rec = record_from_obj(base_obj(finished=False, run_id="u"))
    kept, rejected = filter_runs([rec])
    assert not kept
    assert rejected[0][1] == RULE_UNFINISHED


def test_rule_diverged_absolute_threshold():
    good = record_from_obj(base_obj(final_loss=3.0, run_id="a"))
    bad = record_from_obj(base_obj(final_loss=DIVERGENCE_LOSS + 0.01, run_id="b"))
    kept, rejected = filter_runs([good, bad])
    assert [r.run_id for r in kept] == ["a"]
    assert rejected[0][0].run_id == "b" and rejected[0][1] == RULE_DIVERGED


def test_rule_diverged_relative_to_group_best():
    best = record_from_obj(base_obj(final_loss=3.0, run_id="best"))
    near = record_from_obj(base_obj(final_loss=3.0 + GROUP_GAP - 1e-6, run_id="near"))
    far = record_from_obj(base_obj(final_loss=3.0 + GROUP_GAP + 1e-6, run_id="far"))
    # a different (N, D) group with a worse best must not affect this one
    other = record_from_obj(base_obj(final_loss=3.9, model_size_n=430.0,
                                     data_size_d=50.0, run_id="other"))
    kept, rejected = filter_runs([best, near, far, other])
    assert {r.run_id for r in kept} == {"best", "near", "other"}
    assert rejected[0][0].run_id == "far"


def test_rule_unstable_rising_window():
    # 100 points: long decay, then a sustained climb of 2e-3 per step
    down = [4.0 - 0.02 * i for i in range(80)]
    up = [down[-1] + 0.1 * (i + 1) for i in range(20)]
    rec = curve_record(down + up, run_id="r")
    assert rec.final_loss < DIVERGENCE_LOSS  # must be caught by slope, not level
    kept, rejected = filter_runs([rec])
    assert not kept and rejected[0][1] == RULE_UNSTABLE


def test_rule_unstable_ignores_noise_on_a_falling_curve():
    rng = np.random.default_rng(1)
    losses = 4.0 * np.exp(-np.linspace(0, 2, 400)) + rng.normal(0, 0.003, 400) + 1.0
    rec = curve_record(list(losses), run_id="ok")
    kept, rejected = filter_runs([rec])
    assert [r.run_id for r in kept] == ["ok"], rejected


def test_group_keys_round_to_tenths():
    a = make_config(model_size_n=129.96, data_size_d=25.04)
    b = make_config(model_size_n=130.04, data_size_d=24.96)
    assert nd_key(a) == nd_key(b) == (130.0, 25.0)
    assert group_key(a) == ("adamw", 130.0, 25.0)


# -- splitting --------------------------------------------------------------------

def make_grid_records(n_groups=10, per_group=4, n0=100.0):
    recs = []
    for g in range(n_groups):
        for j in range(per_group):
            recs.append(record_from_obj(base_obj(
                model_size_n=n0 + 10 * g, final_loss=3.0 + 0.01 * j,
                peak_lr=1e-3 * (1 + j), run_id=f"g{g}j{j}")))
    return recs


def test_split_keeps_groups_intact():
    recs = make_grid_records()
    splits = split_dataset(recs, seed=3)
    train_groups = {group_key(r.config) for r in splits.train}
    val_groups = {group_key(r.config) for r in splits.id_val}
    assert not train_groups & val_groups
    assert len(splits.train) + len(splits.id_val) == len(recs)


def test_split_ood_is_strictly_by_size():
    recs = make_grid_records(n_groups=6, n0=400.0)  # sizes 400..450
    splits = split_dataset(recs, seed=0)
    assert all(r.config.model_size_n > OOD_THRESHOLD_N for r in splits.ood_val)
    assert all(r.config.model_size_n <= OOD_THRESHOLD_N
               for r in splits.train + splits.id_val)
    assert len(splits.ood_val) == 2 * 4  # sizes 440, 450


def test_split_counts_follow_the_ratio_rule():
    for n_groups in (2, 3, 5, 10, 23):
        recs = make_grid_records(n_groups=n_groups)
        splits = split_dataset(recs, seed=1)
        g_train = {group_key(r.config) for r in splits.train}
        expected = max(1, min(n_groups - 1, round(0.8 * n_groups)))
        assert len(g_train) == expected, n_groups


def test_split_is_deterministic_and_seed_sensitive():
    recs = make_grid_records(n_groups=12)
    a = split_dataset(recs, seed=7)
    b = split_dataset(recs, seed=7)
    assert [r.run_id for r in a.train] == [r.run_id for r in b.train]
    c = split_dataset(recs, seed=8)
    assert [r.run_id for r in a.train] != [r.run_id for r in c.train]


def test_split_needs_two_id_groups():
    recs = make_grid_records(n_groups=1)
    with pytest.raises(SplitError):
        split_dataset(recs)


def test_manifest_files(tmp_path):
    recs = make_grid_records(n_groups=5)
    splits = split_dataset(recs, seed=2)
    paths = write_split_manifest(splits, tmp_path)
    assert sorted(p.split("/")[-1] for p in paths) == [
        "id_val.ids", "ood_val.ids", "train.ids"]
    lines = (tmp_path / "train.ids").read_text().splitlines()
    assert lines[0] == "# seed=2 ood_threshold_n=430 ratio=0.8"
    assert lines[1:] == [r.run_id for r in splits.train]
