"""End-to-end command-line pipeline checks, run in process via main()."""

import csv
import json
import os

import numpy as np
import pytest

from losscast.cli import load_predictor, main
from losscast.gbt import GBTPredictor
from losscast.ingest import config_from_obj


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
