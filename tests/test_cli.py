"""End-to-end command-line pipeline checks, run in process via main()."""

import argparse
import csv
import json
import math
import os
import shutil
import zipfile

import numpy as np
import pytest

from losscast.cli import _plan_from_overrides, _resolve, build_parser, load_predictor, main
from losscast.gbt import GBTPredictor
from losscast.lawfit import ChinchillaFit, ChinchillaPredictor, Scope, save_fits
from losscast.regressor import (
    Arch,
    RegressorModel,
    TrainPlan,
    TrainReport,
    TrainedPredictor,
    _resolve_warmup,
)
from losscast.schema import Schema
from losscast.synth import OracleParams
from losscast.ingest import (
    config_from_obj,
    parse_runs,
    record_from_obj,
    record_to_obj,
    split_dataset,
)


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full synth -> ingest -> split -> fit -> train -> predict run."""
    root = tmp_path_factory.mktemp("pipeline")
    raw = root / "raw.jsonl"
    ingested = root / "ingested"
    splits = root / "splits"
    fits = root / "fits"
    model = root / "model.gbt"
    preds = root / "preds.jsonl"
    metrics = root / "metrics.json"
    sweep_dir = root / "sweep"

    assert main(["synth", "--output", str(raw), "--seed", "7"]) == 0
    assert main(["ingest", "--input", str(raw), "--output", str(ingested)]) == 0
    assert main(["split", "--input", str(ingested / "kept.jsonl"),
                 "--output", str(splits), "--seed", "11"]) == 0
    assert main(["fit", "--input", str(splits / "train.jsonl"),
                 "--output", str(fits), "--power-law"]) == 0

    plan = root / "plan.json"
    plan.write_text(json.dumps({"rounds": 80, "max_depth": 5}))
    assert main(["train", "--input", str(splits), "--fits", str(fits),
                 "--output", str(model), "--method", "gbt",
                 "--plan", str(plan)]) == 0
    assert main(["predict", "--model", str(model),
                 "--input", str(splits / "id_val.jsonl"),
                 "--output", str(preds)]) == 0
    assert main(["eval", "--pred", str(preds),
                 "--truth", str(splits / "id_val.jsonl"),
                 "--output", str(metrics)]) == 0

    base = root / "base.json"
    base.write_text((splits / "train.jsonl").read_text().splitlines()[0])
    assert main(["sweep", "--model", str(model), "--base", str(base),
                 "--output", str(sweep_dir), "--n", "215", "--d", "25",
                 "--lr-points", "7", "--bs-points", "5"]) == 0

    return {
        "root": root, "raw": raw, "ingested": ingested, "splits": splits,
        "fits": fits, "model": model, "preds": preds, "metrics": metrics,
        "sweep": sweep_dir, "base": base,
    }


def test_synth_writes_runs_sidecar_and_resolved_config(pipeline):
    lines = read_jsonl(pipeline["raw"])
    assert len(lines) == 3024
    oracle = json.loads((pipeline["raw"].parent / "raw.jsonl.oracle.json").read_text())
    assert oracle["noise_sigma"] == 0.005
    resolved = json.loads((pipeline["raw"].parent / "raw.jsonl.resolved.json").read_text())
    assert resolved["command"] == "synth"
    assert resolved["resolved"]["seed"] == 7


def test_ingest_accounts_for_every_run(pipeline):
    kept = read_jsonl(pipeline["ingested"] / "kept.jsonl")
    rejected = read_jsonl(pipeline["ingested"] / "rejected.jsonl")
    malformed = read_jsonl(pipeline["ingested"] / "malformed.jsonl")
    assert len(kept) + len(rejected) == 3024
    assert not malformed
    assert all(set(r) == {"run_id", "rule", "detail"} for r in rejected)
    assert (pipeline["ingested"] / "resolved_config.json").exists()


def test_split_partitions_and_writes_manifests(pipeline):
    parts = {name: read_jsonl(pipeline["splits"] / f"{name}.jsonl")
             for name in ("train", "id_val", "ood_val")}
    kept = read_jsonl(pipeline["ingested"] / "kept.jsonl")
    assert sum(map(len, parts.values())) == len(kept)
    assert all(r["model_size_n"] > 430.0 for r in parts["ood_val"])
    for name in parts:
        head = (pipeline["splits"] / f"{name}.ids").read_text().splitlines()
        assert head[0].startswith("# seed=11 ")
        assert len(head) - 1 == len(parts[name])


def test_fit_writes_law_files(pipeline):
    names = sorted(os.listdir(pipeline["fits"]))
    assert any(n.startswith("chinchilla_") for n in names)
    assert any(n.startswith("power_law_") for n in names)
    fit = json.loads((pipeline["fits"] / "chinchilla_synthetic.json").read_text())
    assert fit["form"] == "chinchilla"
    # the frontier itself must be reproduced tightly even though E/A trade off
    assert fit["objective"] < 1e-3


def test_trained_model_round_trips_through_the_loader(pipeline):
    head = pipeline["model"].read_text().splitlines()[0]
    assert head.startswith("#losscast-gbt-1")
    predictor = load_predictor(str(pipeline["model"]))
    assert isinstance(predictor, GBTPredictor)


def test_predictions_align_with_the_eval_metrics(pipeline):
    preds = read_jsonl(pipeline["preds"])
    truth = read_jsonl(pipeline["splits"] / "id_val.jsonl")
    assert len(preds) == len(truth)
    assert all("predicted_final_loss" in p for p in preds)
    m = json.loads(pipeline["metrics"].read_text())
    assert m["n"] == len(truth)
    assert m["mae"] < 0.1  # an 80-round forest is already far under this
    assert m["spearman_rho"] > 0.9


def test_sweep_writes_surface_and_recommendation(pipeline):
    with open(pipeline["sweep"] / "surface.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["peak_lr", "batch_size", "predicted_loss"]
    assert len(rows) - 1 == 7 * 5
    rec = json.loads((pipeline["sweep"] / "recommendation.json").read_text())
    assert {"best_grid", "refined", "relative_loss"} <= set(rec)


def test_contour_export_from_sweep_surface(pipeline, tmp_path):
    out = tmp_path / "contour.csv"
    assert main(["eval", "--contour-from", str(pipeline["sweep"] / "surface.csv"),
                 "--resolution", "12", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 12 * 12
    assert rows[0] == ["peak_lr", "batch_size", "loss"]


@pytest.mark.parametrize("row", ["0.001,256", "0.001,256,low", "0.001,256,2.5,1",
                                 "0.002,64,nan", "0.002,64,inf", "0,64,2.5",
                                 "0.002,-64,2.5"],
                         ids=["short", "not-a-number", "long", "nan-loss", "inf-loss",
                              "zero-lr", "negative-bs"])
def test_contour_export_names_the_row_it_refuses(pipeline, tmp_path, capsys, row):
    surface = tmp_path / "surface.csv"
    surface.write_text("peak_lr,batch_size,predicted_loss\n0.002,128,2.4\n" + row + "\n")
    out = tmp_path / "contour.csv"
    assert main(["eval", "--contour-from", str(surface), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [cli]: ") and f"{surface}:3: " in err
    assert not out.exists()


def test_gbt_training_refuses_a_seed(pipeline, tmp_path, capsys):
    out = tmp_path / "model.gbt"
    assert main(["train", "--input", str(pipeline["splits"]), "--fits", str(pipeline["fits"]),
                 "--output", str(out), "--method", "gbt", "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [cli]: ") and "neural method" in err
    assert os.listdir(tmp_path) == []


def resolved_record(output):
    return json.loads(open(str(output) + ".resolved.json", encoding="utf-8").read())


def test_eval_writes_a_resolved_record_in_both_modes(pipeline, tmp_path):
    record = resolved_record(pipeline["metrics"])
    assert record["command"] == "eval"
    assert record["resolved"]["pred"] == str(pipeline["preds"])
    assert record["resolved"]["output"] == str(pipeline["metrics"])
    out = tmp_path / "contour.csv"
    assert main(["eval", "--contour-from", str(pipeline["sweep"] / "surface.csv"),
                 "--resolution", "6", "--output", str(out)]) == 0
    record = resolved_record(out)
    assert record["command"] == "eval"
    assert record["resolved"]["resolution"] == 6
    assert record["resolved"]["model"] is None


def test_eval_of_identical_files_is_exactly_zero(pipeline, capsys):
    truth = str(pipeline["splits"] / "id_val.jsonl")
    assert main(["eval", "--pred", truth, "--truth", truth]) == 0
    assert "MAE=0.000000" in capsys.readouterr().out


def test_split_reruns_are_byte_identical(pipeline, tmp_path):
    kept = str(pipeline["ingested"] / "kept.jsonl")
    for d in ("s1", "s2"):
        assert main(["split", "--input", kept, "--output", str(tmp_path / d),
                     "--seed", "11"]) == 0
    for name in ("train.jsonl", "id_val.jsonl", "ood_val.jsonl", "train.ids"):
        assert (tmp_path / "s1" / name).read_bytes() == \
            (tmp_path / "s2" / name).read_bytes()
    assert (tmp_path / "s1" / "train.jsonl").read_bytes() == \
        (pipeline["splits"] / "train.jsonl").read_bytes()


def test_law_fit_directory_loads_as_a_predictor(pipeline, tmp_path):
    out = tmp_path / "law_preds.jsonl"
    assert main(["predict", "--model", str(pipeline["fits"]),
                 "--input", str(pipeline["splits"] / "id_val.jsonl"),
                 "--output", str(out)]) == 0
    preds = read_jsonl(out)
    assert all(0.0 < p["predicted_final_loss"] < 10.0 for p in preds)


def test_neural_training_smoke(pipeline, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "stage1": {"epochs": 2},
        "stage2": {"epochs": 2, "warmup_steps": 2},
    }))
    model = tmp_path / "model.zip"
    assert main(["train", "--input", str(pipeline["splits"]),
                 "--fits", str(pipeline["fits"]), "--output", str(model),
                 "--plan", str(plan), "--seed", "3"]) == 0
    report = json.loads((tmp_path / "model.zip.report.json").read_text())
    assert not report["aborted"]
    out = tmp_path / "preds.jsonl"
    assert main(["predict", "--model", str(model),
                 "--input", str(pipeline["splits"] / "id_val.jsonl"),
                 "--output", str(out)]) == 0
    assert len(read_jsonl(out)) > 0


def predict_file_against_per_config(model, queries, out):
    """`losscast predict` output and per-config predict_final_loss, in order."""
    assert main(["predict", "--model", str(model), "--input", str(queries),
                 "--output", str(out)]) == 0
    got = np.array([p["predicted_final_loss"] for p in read_jsonl(out)])
    predictor = load_predictor(str(model))
    want = np.array([predictor.predict_final_loss(config_from_obj(o))
                     for o in read_jsonl(queries)])
    return got, want


def test_a_plan_stage_naming_one_warmup_field_drops_the_other():
    plan = _plan_from_overrides("final", {"stage2": {"warmup_ratio": 0.5}})
    assert (plan.stage2.warmup_ratio, plan.stage2.warmup_steps) == (0.5, None)
    assert _resolve_warmup(plan.stage2, 100) == 50
    plan = _plan_from_overrides("final", {"stage1": {"warmup_steps": 3}})
    assert (plan.stage1.warmup_ratio, plan.stage1.warmup_steps) == (None, 3)
    assert plan.stage2 == TrainPlan.final_default().stage2
    both = _plan_from_overrides("final", {"stage2": {"warmup_ratio": 0.5, "warmup_steps": 9}})
    with pytest.raises(ValueError, match="not both"):
        both.validate()


def test_train_refuses_a_negative_warmup(pipeline, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"stage1": {"warmup_steps": -7}}))
    model = tmp_path / "model.zip"
    assert main(["train", "--input", str(pipeline["splits"]),
                 "--fits", str(pipeline["fits"]), "--output", str(model),
                 "--plan", str(plan)]) == 1
    err = capsys.readouterr().err
    assert "error [cli]:" in err and "warmup_steps" in err
    assert not model.exists()


def test_a_model_file_missing_a_header_entry_is_a_schema_error(pipeline, tmp_path, capsys):
    head, body = pipeline["model"].read_text().split("\n", 1)
    header = json.loads(head.split(" ", 1)[1])
    del header["columns"]
    no_columns = tmp_path / "bad.gbt"
    no_columns.write_text("#losscast-gbt-1 " + json.dumps(header) + "\n" + body)
    no_manifest = tmp_path / "bad.zip"
    with zipfile.ZipFile(no_manifest, "w") as zf:
        zf.writestr("params/head_b.npy", b"")
    for model in (no_columns, no_manifest):
        assert main(["predict", "--model", str(model),
                     "--input", str(pipeline["splits"] / "id_val.jsonl"),
                     "--output", str(tmp_path / "preds.jsonl")]) == 1
        assert "error [schema]:" in capsys.readouterr().err


def test_predict_file_matches_per_config_predictions(pipeline, tmp_path):
    queries = pipeline["splits"] / "id_val.jsonl"
    for model in (pipeline["model"], pipeline["fits"]):
        got, want = predict_file_against_per_config(model, queries, tmp_path / "p.jsonl")
        assert len(got) > 0
        np.testing.assert_array_equal(got, want)  # GBT and Chinchilla: bitwise

    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"stage1": {"epochs": 1}, "stage2": {"epochs": 1}}))
    neural = tmp_path / "model.zip"
    assert main(["train", "--input", str(pipeline["splits"]),
                 "--fits", str(pipeline["fits"]), "--output", str(neural),
                 "--plan", str(plan)]) == 0
    got, want = predict_file_against_per_config(neural, queries, tmp_path / "n.jsonl")
    # a one-row and an n-row matmul may round differently
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_sweep_fix_pins_a_field(pipeline, tmp_path):
    out = tmp_path / "sweep_fixed"
    assert main(["sweep", "--model", str(pipeline["model"]),
                 "--base", str(pipeline["base"]), "--output", str(out),
                 "--lr-points", "5", "--bs-points", "3",
                 "--fix", "batch_size=128"]) == 0
    with open(out / "surface.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 5
    assert all(float(r[1]) == 128.0 for r in rows)


# -- schema / errors -------------------------------------------------------------

def test_schema_dumps_the_feature_table(capsys):
    assert main(["schema"]) == 0
    table = json.loads(capsys.readouterr().out)
    names = [f["name"] for f in table["fields"]]
    assert "peak_lr" in names and "frac" not in names
    assert main(["schema", "--frac"]) == 0
    with_frac = json.loads(capsys.readouterr().out)
    assert "frac" in [f["name"] for f in with_frac["fields"]]


def test_schema_writes_to_a_file(tmp_path, capsys):
    out = tmp_path / "schema.json"
    assert main(["schema", "--output", str(out)]) == 0
    assert "schema v1" in capsys.readouterr().out
    assert json.loads(out.read_text())["version"] == "1"


def test_schema_output_writes_a_resolved_record(tmp_path):
    out = tmp_path / "schema.json"
    assert main(["schema", "--frac", "--output", str(out)]) == 0
    assert resolved_record(out) == {"command": "schema",
                                    "resolved": {"frac": True, "output": str(out)}}


def test_schema_reads_its_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frac": True}))
    assert main(["schema", "--config", str(cfg)]) == 0
    fields = json.loads(capsys.readouterr().out)["fields"]
    assert len(fields) == 30 and fields[-1]["name"] == "frac"
    assert main(["schema", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error [io]:" in capsys.readouterr().err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--no-such-flag"])
    assert exc.value.code == 2


def test_missing_required_flags_exit_1(capsys):
    assert main(["ingest"]) == 1
    assert "error [cli]:" in capsys.readouterr().err


def test_missing_input_file_exits_1_with_io_tag(tmp_path, capsys):
    assert main(["ingest", "--input", str(tmp_path / "nope.jsonl"),
                 "--output", str(tmp_path / "out")]) == 1
    assert "error [io]:" in capsys.readouterr().err


def test_directory_as_input_exits_1_with_io_tag(tmp_path, capsys):
    assert main(["ingest", "--input", str(tmp_path),
                 "--output", str(tmp_path / "out")]) == 1
    assert "error [io]:" in capsys.readouterr().err


def test_pipeline_errors_carry_the_failing_module(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n{broken\n")
    assert main(["ingest", "--input", str(bad),
                 "--output", str(tmp_path / "out")]) == 1
    assert "error [ingest]:" in capsys.readouterr().err


def test_config_file_presets_flags_but_explicit_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "sigma": 0.0}))
    out = tmp_path / "runs.jsonl"
    assert main(["synth", "--config", str(cfg), "--output", str(out),
                 "--seed", "5"]) == 0
    resolved = json.loads((tmp_path / "runs.jsonl.resolved.json").read_text())
    assert resolved["resolved"]["seed"] == 5      # flag beat the config file
    assert resolved["resolved"]["sigma"] == 0.0   # config beat the default
    oracle = json.loads((tmp_path / "runs.jsonl.oracle.json").read_text())
    assert oracle["noise_sigma"] == 0.0


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sneed": 3}))
    assert main(["synth", "--config", str(cfg),
                 "--output", str(tmp_path / "x.jsonl")]) == 1
    assert "unknown config key 'sneed'" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, argv", [
    ("synth", {"curves": "false"}, ["--output", "runs.jsonl"]),
    ("split", {"ood_threshold": "430"}, ["--input", "kept.jsonl", "--output", "out"]),
    ("synth", {"seed": 7.0}, ["--output", "runs.jsonl"]),
    ("synth", {"seed": True}, ["--output", "runs.jsonl"]),
    ("synth", {"sigma": False}, ["--output", "runs.jsonl"]),
    ("synth", {"output": 3}, []),
    ("train", {"method": "forest"}, ["--input", "s", "--fits", "f", "--output", "m"]),
    ("sweep", {"fix": "batch_size=128"}, ["--model", "m", "--base", "b", "--output", "out"]),
    ("sweep", {"fix": ["batch_size"]}, ["--model", "m", "--base", "b", "--output", "out"]),
])
def test_a_config_value_of_the_wrong_type_is_refused(tmp_path, monkeypatch, capsys,
                                                     command, config, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kept.jsonl").write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), *argv]) == 1
    key = next(iter(config))
    assert capsys.readouterr().err.startswith(
        f"error [cli]: config key '{key}' in {cfg} must be ")
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "kept.jsonl"]


@pytest.mark.parametrize("command, config, argv, want", [
    ("synth", {"curves": True, "sigma": 0, "seed": None}, ["--output", "o"],
     {"curves": True, "sigma": 0, "seed": 7}),
    ("train", {"method": "gbt", "seed": 3}, ["--input", "s", "--fits", "f", "--output", "m"],
     {"method": "gbt", "seed": 3}),
    ("predict", {"model": "m", "input": "i", "output": "o"}, [],
     {"model": "m", "input": "i", "output": "o"}),
    ("sweep", {"lr_min": 1, "fix": {"optimizer": "lion"}},
     ["--model", "m", "--base", "b", "--output", "o"],
     {"lr_min": 1, "fix": {"optimizer": "lion"}}),
    ("sweep", {"fix": ["optimizer=lion"]}, ["--model", "m", "--base", "b", "--output", "o"],
     {"fix": ["optimizer=lion"]}),
])
def test_config_values_of_their_flags_type_are_taken(tmp_path, command, config, argv, want):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    r = _resolve(build_parser().parse_args([command, "--config", str(cfg), *argv]))
    assert {k: r[k] for k in want} == want


# The parser and resolved defaults as they stood before the command table was
# introduced: (option strings, required flags, the refusal when one is missing,
# the settings resolved from the required flags alone, each given as "R").
CLI_SURFACE = {
    "schema": (["--frac", "--output"], [], None, {"frac": False, "output": None}),
    "synth": (["--output", "--seed", "--curves", "--sigma", "--oracle"], ["--output"],
              "synth requires --output",
              {"curves": False, "oracle": None, "output": "R", "seed": 7, "sigma": None}),
    "ingest": (["--input", "--output"], ["--input", "--output"],
               "ingest requires --input and --output", {"input": "R", "output": "R"}),
    "split": (["--input", "--output", "--seed", "--ood-threshold", "--split-ratio"],
              ["--input", "--output"], "split requires --input and --output",
              {"input": "R", "ood_threshold": 430.0, "output": "R", "seed": 0,
               "split_ratio": 0.8}),
    "fit": (["--input", "--output", "--per-optimizer", "--power-law"],
            ["--input", "--output"], "fit requires --input and --output",
            {"input": "R", "output": "R", "per_optimizer": False, "power_law": False}),
    "train": (["--input", "--fits", "--output", "--target", "--method", "--plan", "--seed"],
              ["--input", "--fits", "--output"],
              "train requires --input, --fits and --output",
              {"fits": "R", "input": "R", "method": "neural", "output": "R", "plan": None,
               "seed": None, "target": "final"}),
    "predict": (["--model", "--input", "--output"], ["--model", "--input", "--output"],
                "predict requires --model, --input and --output",
                {"input": "R", "model": "R", "output": "R"}),
    "curve": (["--model", "--input", "--output", "--points"],
              ["--model", "--input", "--output"],
              "curve requires --model, --input and --output",
              {"input": "R", "model": "R", "output": "R", "points": 30}),
    "sweep": (["--model", "--base", "--output", "--n", "--d", "--fix", "--lr-min", "--lr-max",
               "--lr-points", "--bs-min", "--bs-max", "--bs-points"],
              ["--model", "--base", "--output"],
              "sweep requires --model, --base and --output",
              {"base": "R", "bs_max": 2048.0, "bs_min": 32.0, "bs_points": 9, "d": None,
               "fix": None, "lr_max": 0.03, "lr_min": 0.0001, "lr_points": 13, "model": "R",
               "n": None, "output": "R"}),
    "eval": (["--model", "--input", "--pred", "--truth", "--contour-from", "--resolution",
              "--output"], [], None,
             {"contour_from": None, "input": None, "model": None, "output": None,
              "pred": None, "resolution": 50, "truth": None}),
}


def test_the_cli_has_exactly_the_frozen_subcommands():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(CLI_SURFACE)


@pytest.mark.parametrize("command", list(CLI_SURFACE))
def test_the_cli_surface_is_frozen(command):
    options, required, refusal, resolved = CLI_SURFACE[command]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = [s for a in sub.choices[command]._actions for s in a.option_strings]
    assert parsed == ["-h", "--help", "--config", *options]

    def resolve(flags):
        return _resolve(build_parser().parse_args(
            [command, *(x for flag in flags for x in (flag, "R"))]))

    got = resolve(required)
    assert got == resolved
    assert json.dumps(got, sort_keys=True) == json.dumps(resolved, sort_keys=True)
    for flag in required:
        with pytest.raises(ValueError) as exc:
            resolve([f for f in required if f != flag])
        assert str(exc.value) == refusal


# -- ingest writes what split copies ------------------------------------------------

SPLITS = ("train", "id_val", "ood_val")


def dump_line(obj):
    """A JSON line as ingest writes one."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def logged_run(run_id, n, d, optimizer="adamw", lr=1e-3, **extra):
    """A raw log object with a 200-point curve falling to a level set by (N, D, lr)."""
    steps = np.arange(1, 201) * 10
    level = 1.5 + 2.0 / n ** 0.3 + 1.0 / d ** 0.3 + 0.05 * abs(math.log10(lr / 1e-3))
    losses = level + 1.5 * np.exp(-steps / 300.0)
    obj = {"run_id": run_id, "source": "lab", "model_size_n": n, "data_size_d": d,
           "total_steps": 2000, "optimizer": optimizer, "peak_lr": lr,
           "batch_size": 256, "curve": [[int(s), float(x)] for s, x in zip(steps, losses)]}
    obj.update(extra)
    return obj


def ingest_objs(objs, root):
    raw = root / "raw.jsonl"
    raw.write_text("".join(json.dumps(o) + "\n" for o in objs))
    assert main(["ingest", "--input", str(raw), "--output", str(root / "ingested")]) == 0
    return root / "ingested" / "kept.jsonl"


def test_ingest_writes_kept_lines_that_re_encode_to_themselves(tmp_path):
    curve = logged_run("curve", 150.0, 10.0)
    final = {k: v for k, v in logged_run("final", 200.0, 20.0).items() if k != "curve"}
    final["final_loss"] = 3.1
    full = logged_run("full", 300.0, 20.0, optimizer="mars", warmup_steps=100,
                      betas=[0.9, 0.95], epsilon=1e-8, min_lr=1e-5,
                      lr_schedule="cosine", weight_decay=0.1, max_grad_norm=1.0,
                      num_layers=12, num_heads=8, hidden_dim=768,
                      optimizer_extras={"gamma": 0.025, "vr_scale": 2.0})
    kept = ingest_objs([curve, final, full], tmp_path)
    lines = kept.read_text().splitlines()
    assert [json.loads(line)["run_id"] for line in lines] == ["curve", "final", "full"]
    for line in lines:
        assert line == dump_line(record_to_obj(record_from_obj(json.loads(line))))
    written = json.loads(lines[2])
    assert {"warmup_steps", "beta1", "beta2", "epsilon", "optimizer_extras",
            "min_lr", "lr_schedule"} <= set(written)


@pytest.fixture(scope="module")
def curve_kept(tmp_path_factory):
    """kept.jsonl of 20 curve runs: 16 in 8 (optimizer, N, D) groups, 4 above
    the OOD size threshold."""
    objs = [logged_run(f"{opt}-{n:g}-{d:g}-{lr:g}", n, d, optimizer=opt, lr=lr)
            for n, d in ((100.0, 10.0), (150.0, 10.0), (200.0, 20.0),
                         (300.0, 20.0), (500.0, 20.0))
            for opt in ("adamw", "muon") for lr in (1e-3, 2e-3)]
    kept = ingest_objs(objs, tmp_path_factory.mktemp("curves"))
    assert len(kept.read_text().splitlines()) == len(objs)
    return kept


def split_files(kept, out, seed=3):
    assert main(["split", "--input", str(kept), "--output", str(out),
                 "--seed", str(seed)]) == 0
    return {name: (out / f"{name}.jsonl").read_bytes() for name in SPLITS}


def test_split_writes_what_re_encoding_the_parsed_records_would(curve_kept, tmp_path):
    got = split_files(curve_kept, tmp_path)
    splits = split_dataset(parse_runs(curve_kept).records, seed=3)
    for name in SPLITS:
        want = "".join(dump_line(record_to_obj(r)) + "\n" for r in getattr(splits, name))
        assert got[name] and got[name] == want.encode("utf-8")


def test_split_manifests_list_their_files_run_ids(curve_kept, tmp_path):
    split_files(curve_kept, tmp_path)
    for name in SPLITS:
        ids = (tmp_path / f"{name}.ids").read_text().splitlines()[1:]
        assert ids == [o["run_id"] for o in read_jsonl(tmp_path / f"{name}.jsonl")]


def test_split_drops_malformed_kept_lines(curve_kept, tmp_path):
    lines = curve_kept.read_text().splitlines(keepends=True)
    missing = json.loads(lines[7])
    del missing["peak_lr"]
    bad = tmp_path / "kept.jsonl"
    bad.write_text("".join(lines[:3] + ["{not json\n"] + lines[3:7]
                           + [json.dumps(missing) + "\n"] + lines[8:]))
    without = tmp_path / "without.jsonl"
    without.write_text("".join(lines[:7] + lines[8:]))
    assert split_files(bad, tmp_path / "bad") == split_files(without, tmp_path / "good")


def with_two_malformed_lines(src, dst):
    """``src`` with a line that is not JSON as line 4 and, as line 8, its
    seventh run without a peak_lr."""
    lines = src.read_text().splitlines(keepends=True)
    missing = json.loads(lines[6])
    del missing["peak_lr"]
    dst.parent.mkdir(exist_ok=True)
    dst.write_text("".join(lines[:3] + ["{not json\n"] + lines[3:6]
                           + [json.dumps(missing) + "\n"] + lines[7:]))
    return dst


@pytest.mark.parametrize("command", ["split", "fit", "train", "eval"])
def test_run_log_readers_warn_of_the_lines_they_skip(pipeline, tmp_path, capsys, command):
    splits = pipeline["splits"]
    source = {"split": pipeline["ingested"] / "kept.jsonl",
              "eval": splits / "id_val.jsonl"}.get(command, splits / "train.jsonl")
    bad = with_two_malformed_lines(source, tmp_path / "in" / source.name)
    if command == "train":
        for name in ("id_val", "ood_val"):
            shutil.copy(splits / f"{name}.jsonl", bad.parent)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"rounds": 2}))
        argv = ["train", "--input", str(bad.parent), "--fits", str(pipeline["fits"]),
                "--output", str(tmp_path / "model.gbt"), "--method", "gbt",
                "--plan", str(plan)]
    elif command == "eval":
        argv = ["eval", "--model", str(pipeline["model"]), "--input", str(bad)]
    else:
        argv = [command, "--input", str(bad), "--output", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        f"warning [ingest]: {bad}: skipped 2 malformed line(s); first: line 4: ")


def test_split_refuses_a_line_without_a_run_id(curve_kept, tmp_path, capsys):
    lines = curve_kept.read_text().splitlines(keepends=True)
    anonymous = json.loads(lines[4])
    del anonymous["run_id"]
    kept = tmp_path / "kept.jsonl"
    kept.write_text("".join(lines[:4] + [json.dumps(anonymous) + "\n"] + lines[5:]))
    assert main(["split", "--input", str(kept), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error [ingest]" in err and "line 5" in err and "run_id" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ratio", ["-1", "0", "1", "2", "nan"])
def test_split_refuses_a_ratio_outside_the_open_unit_interval(curve_kept, tmp_path, capsys,
                                                              ratio):
    out = tmp_path / "out"
    assert main(["split", "--input", str(curve_kept), "--output", str(out),
                 "--split-ratio", ratio]) == 1
    err = capsys.readouterr().err
    assert "error [ingest]" in err and "split ratio" in err
    assert not out.exists()


@pytest.mark.parametrize("points", ["0", "-3"])
def test_curve_refuses_fewer_than_one_point(curve_kept, tmp_path, capsys, points):
    # refused before the model is read, so a missing model file is not reached
    out = tmp_path / "curves.jsonl"
    assert main(["curve", "--model", str(tmp_path / "absent.zip"), "--input", str(curve_kept),
                 "--output", str(out), "--points", points]) == 1
    err = capsys.readouterr().err
    assert "error [cli]" in err and "--points" in err
    assert not out.exists() and list(tmp_path.iterdir()) == []


def test_both_eval_modes_score_curve_runs_alike(curve_kept, tmp_path):
    split_files(curve_kept, tmp_path)
    fits, preds = tmp_path / "fits", tmp_path / "preds.jsonl"
    # 20 runs are too few for a Chinchilla fit; a fixed law stands in as the model
    save_fits([ChinchillaFit(e=1.5, a=2.0, b=1.0, alpha=0.3, beta=0.3, scope=Scope("lab"),
                             objective=0.0, n_points=0)], fits)
    # ingest writes curve-only lines; a raw log line may also carry a
    # final_loss, and both modes score it by its curve all the same
    assert all("final_loss" not in o for part in SPLITS[1:]
               for o in read_jsonl(tmp_path / f"{part}.jsonl"))
    (tmp_path / "with_final.jsonl").write_text("".join(
        json.dumps({**o, "final_loss": 9.0}) + "\n"
        for o in read_jsonl(tmp_path / "id_val.jsonl")[:3]))
    for part in (*SPLITS[1:], "with_final"):
        runs = str(tmp_path / f"{part}.jsonl")
        assert main(["predict", "--model", str(fits), "--input", runs,
                     "--output", str(preds)]) == 0
        by_model, by_pred = tmp_path / f"model-{part}.json", tmp_path / f"pred-{part}.json"
        assert main(["eval", "--model", str(fits), "--input", runs,
                     "--output", str(by_model)]) == 0
        assert main(["eval", "--pred", str(preds), "--truth", runs,
                     "--output", str(by_pred)]) == 0
        want = json.loads(by_model.read_text())
        assert want["n"] == len(read_jsonl(runs))
        assert json.loads(by_pred.read_text())["mae"] == want["mae"]


@pytest.mark.parametrize("flag", ["--config", "--plan", "--base", "--oracle"])
@pytest.mark.parametrize("text, fault", [("[1]\n", "must hold a JSON object"),
                                         ("{not json\n", "is not valid JSON")],
                         ids=["list", "invalid"])
def test_a_settings_file_must_hold_a_json_object(pipeline, tmp_path, capsys, flag, text,
                                                 fault):
    settings = tmp_path / "settings.json"
    settings.write_text(text)
    out = str(tmp_path / "out")
    argv = {
        "--config": ["synth", "--output", out],
        "--plan": ["train", "--input", str(pipeline["splits"]), "--fits",
                   str(pipeline["fits"]), "--output", out, "--method", "gbt"],
        "--base": ["sweep", "--model", str(pipeline["model"]), "--output", out],
        "--oracle": ["synth", "--output", out],
    }[flag]
    assert main([*argv, flag, str(settings)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [cli]: ") and str(settings) in err and fault in err
    assert os.listdir(tmp_path) == ["settings.json"]


@pytest.mark.parametrize("shape", ["object", "bare"])
@pytest.mark.parametrize("loss", ['"1.5"', "true", "null"])
@pytest.mark.parametrize("side", ["pred", "truth"])
def test_eval_refuses_a_loss_that_is_not_a_json_number(tmp_path, capsys, shape, loss, side):
    files = {}
    for name, key in (("pred", "predicted_final_loss"), ("truth", "final_loss")):
        second = loss if name == side else "1.0"
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text(f'{{"{key}": 2.0}}\n{{"{key}": {second}}}\n'
                               if shape == "object" else f"2.0\n{second}\n")
    out = tmp_path / "metrics.json"
    assert main(["eval", "--pred", str(files["pred"]), "--truth", str(files["truth"]),
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [cli]: ") and f"{files[side]}:2: " in err
    assert not out.exists()


def test_line_readers_name_the_line_they_refuse(tmp_path, capsys):
    fits = tmp_path / "fits"
    save_fits([ChinchillaFit(e=1.5, a=2.0, b=1.0, alpha=0.3, beta=0.3, scope=Scope("lab"))],
              fits)
    configs = tmp_path / "configs.jsonl"
    good = json.dumps({"source": "lab", "model_size_n": 100.0, "data_size_d": 10.0,
                       "total_steps": 1000, "optimizer": "adamw", "peak_lr": 1e-3,
                       "batch_size": 256})
    for text, fault in ((good + "\n\n{broken\n", ":3: not valid JSON"),
                        (good + "\n[1]\n", ":2: not a JSON object")):
        configs.write_text(text)
        assert main(["predict", "--model", str(fits), "--input", str(configs),
                     "--output", str(tmp_path / "preds.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [cli]: ") and f"{configs}{fault}" in err
    assert not (tmp_path / "preds.jsonl").exists()


def test_a_refused_config_line_is_located(tmp_path, capsys):
    fits = tmp_path / "fits"
    save_fits([ChinchillaFit(e=1.5, a=2.0, b=1.0, alpha=0.3, beta=0.3, scope=Scope("lab"))],
              fits)
    curve_model = tmp_path / "curve.zip"
    TrainedPredictor(RegressorModel(Schema.default(include_frac=True), Arch(2, 2, 1, 2)),
                     ChinchillaPredictor.load(str(fits)), TrainReport()).save(str(curve_model))
    configs = tmp_path / "configs.jsonl"
    configs.write_text("\n" + json.dumps({"source": "lab", "data_size_d": 10.0,
                                          "total_steps": 1000, "optimizer": "adamw",
                                          "peak_lr": 1e-3, "batch_size": 256}) + "\n")
    for command, model in (("predict", fits), ("curve", curve_model)):
        out = tmp_path / f"{command}.jsonl"
        assert main([command, "--model", str(model), "--input", str(configs),
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [schema]: {configs}:2: ") and "'model_size_n'" in err
        assert not out.exists()


@pytest.mark.parametrize("flag, method, settings, key", [
    ("--oracle", None, {}, "'e'"),
    ("--oracle", None, {**OracleParams().to_dict(), "nope": 1}, "'nope'"),
    ("--plan", "neural", {"nope": 1}, "'nope'"),
    ("--plan", "neural", {"stage1": {"epochs": 1, "nope": 1}}, "'nope' in stage1"),
    ("--plan", "neural", {"stage2": 5}, "stage2 must be a JSON object"),
    ("--plan", "gbt", {"rounds": 3, "nope": 1}, "'nope'"),
], ids=["oracle-missing", "oracle-unknown", "plan-unknown", "plan-stage-unknown",
        "plan-stage-not-an-object", "gbt-plan-unknown"])
def test_a_settings_object_with_a_missing_or_unknown_key_is_refused(
        pipeline, tmp_path, capsys, flag, method, settings, key):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(settings))
    out = str(tmp_path / "out")
    argv = (["synth", "--output", out] if flag == "--oracle" else
            ["train", "--input", str(pipeline["splits"]), "--fits", str(pipeline["fits"]),
             "--output", out, "--method", method])
    assert main([*argv, flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [cli]: ") and str(path) in err and key in err
    assert os.listdir(tmp_path) == ["settings.json"]
