"""Command-line pipeline for loss forecasting.

Subcommands mirror the library stages: generate synthetic data, ingest and
filter run logs, split into train/validation sets, fit scaling-law baselines,
train residual regressors, predict losses and curves, sweep hyperparameter
grids, and score predictions.

A ``--config`` JSON file can pre-set any long flag (flags still win); every
command that writes artifacts also writes the resolved settings next to them
so reruns are reproducible. Same inputs, same seeds: byte-identical outputs.

Exit codes: 0 success, 1 pipeline error (tagged with the failing module),
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import zipfile

import numpy as np

from .errors import LosscastError
from .gbt import GBTParams, GBTPredictor, fit_gbt
from .ingest import (
    DatasetSplits,
    config_from_obj,
    filter_runs,
    parse_runs,
    record_to_obj,
    split_dataset,
    write_split_manifest,
    OOD_THRESHOLD_N,
    TRAIN_RATIO,
)
from .lawfit import (
    ChinchillaPredictor,
    fit_baselines,
    fit_power_law,
    save_fits,
    select_best_per_group,
)
from .metrics import compute_metrics, evaluate_split, export_contour_data
from .regressor import TrainPlan, TrainedPredictor, train
from .schema import Schema
from .select import SweepGrid, recommend
from .synth import OracleParams, SynthDesign, write_synthetic_dataset


# -- config-file / flag resolution ---------------------------------------------

def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults < config file < explicit flags.

    Flags are declared with default=None so an explicit value always wins.
    """
    resolved = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        for key, value in data.items():
            if key not in resolved:
                raise ValueError(f"unknown config key '{key}' in {path}")
            resolved[key] = value
    for key in resolved:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _write_resolved(output: str, command: str, resolved: dict) -> None:
    """Drop the effective settings next to the artifacts."""
    if os.path.isdir(output):
        path = os.path.join(output, "resolved_config.json")
    else:
        path = output + ".resolved.json"
    body = {"command": command, "resolved": resolved}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_fix(pairs) -> dict:
    """--fix FIELD=VALUE pairs; values parse as JSON when possible."""
    fixed = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"--fix expects FIELD=VALUE, got '{pair}'")
        name, raw = pair.split("=", 1)
        try:
            fixed[name] = json.loads(raw)
        except json.JSONDecodeError:
            fixed[name] = raw
    return fixed


def _write_jsonl(path: str, objs) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
            n += 1
    return n


def _read_config_lines(path: str):
    """Yields (run_id, RunConfig) from a line-delimited config/run file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"line {lineno}: not a JSON object")
            yield str(obj.get("run_id") or f"line{lineno}"), config_from_obj(obj)


def load_predictor(path: str):
    """Load any saved predictor: checkpoint zip, boosted-forest dump, or a
    directory of law-fit JSON files."""
    if os.path.isdir(path):
        return ChinchillaPredictor.load(path)
    if zipfile.is_zipfile(path):
        return TrainedPredictor.load(path)
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(64)
    if head.startswith("#losscast-gbt"):
        return GBTPredictor.load(path)
    raise ValueError(f"unrecognized model file: {path}")


# -- subcommands ----------------------------------------------------------------

def cmd_schema(args) -> int:
    schema = Schema.default(include_frac=bool(args.frac))
    text = json.dumps(schema.dump(), indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"schema v{schema.version} ({len(schema.specs)} fields, "
              f"hash {schema.schema_hash()}) -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_synth(args) -> int:
    defaults = {"seed": 7, "curves": False, "sigma": None, "oracle": None,
                "output": None}
    r = _resolve(args, defaults)
    if not r["output"]:
        raise ValueError("synth requires --output")
    if r["oracle"]:
        with open(r["oracle"], "r", encoding="utf-8") as fh:
            params = OracleParams.from_dict(json.load(fh))
    else:
        params = OracleParams()
    if r["sigma"] is not None:
        params = dataclasses.replace(params, noise_sigma=float(r["sigma"]))
    design = SynthDesign.curve_default() if r["curves"] else SynthDesign()
    out, sidecar = write_synthetic_dataset(params, design, int(r["seed"]), r["output"])
    _write_resolved(out, "synth", {**r, "oracle": sidecar})
    print(f"wrote {design.n_runs()} synthetic runs -> {out} (oracle: {sidecar})")
    return 0


def cmd_ingest(args) -> int:
    defaults = {"input": None, "output": None}
    r = _resolve(args, defaults)
    if not (r["input"] and r["output"]):
        raise ValueError("ingest requires --input and --output")
    os.makedirs(r["output"], exist_ok=True)
    parsed = parse_runs(r["input"])
    kept, rejected = filter_runs(parsed.records)
    _write_jsonl(os.path.join(r["output"], "kept.jsonl"),
                 (record_to_obj(rec) for rec in kept))
    _write_jsonl(os.path.join(r["output"], "rejected.jsonl"),
                 ({"run_id": rec.run_id, "rule": rule, "detail": detail}
                  for rec, rule, detail in rejected))
    _write_jsonl(os.path.join(r["output"], "malformed.jsonl"),
                 ({"line": lineno, "error": msg} for lineno, msg in parsed.malformed))
    _write_resolved(r["output"], "ingest", r)
    rules = {}
    for _, rule, _ in rejected:
        rules[rule] = rules.get(rule, 0) + 1
    print(f"parsed {len(parsed)} runs ({len(parsed.malformed)} malformed); "
          f"kept {len(kept)}, rejected {len(rejected)} {rules or '{}'}")
    return 0


def cmd_split(args) -> int:
    defaults = {"input": None, "output": None, "seed": 0,
                "ood_threshold": OOD_THRESHOLD_N, "split_ratio": TRAIN_RATIO}
    r = _resolve(args, defaults)
    if not (r["input"] and r["output"]):
        raise ValueError("split requires --input and --output")
    records = parse_runs(r["input"]).records
    splits = split_dataset(records, ood_threshold_n=float(r["ood_threshold"]),
                           ratio=float(r["split_ratio"]), seed=int(r["seed"]))
    os.makedirs(r["output"], exist_ok=True)
    for name, part in (("train", splits.train), ("id_val", splits.id_val),
                       ("ood_val", splits.ood_val)):
        _write_jsonl(os.path.join(r["output"], f"{name}.jsonl"),
                     (record_to_obj(rec) for rec in part))
    write_split_manifest(splits, r["output"])
    _write_resolved(r["output"], "split", r)
    print(f"split {len(records)} runs -> train={len(splits.train)} "
          f"id_val={len(splits.id_val)} ood_val={len(splits.ood_val)} "
          f"(seed={r['seed']}, N>{r['ood_threshold']:g} held out)")
    return 0


def cmd_fit(args) -> int:
    defaults = {"input": None, "output": None, "per_optimizer": False,
                "power_law": False}
    r = _resolve(args, defaults)
    if not (r["input"] and r["output"]):
        raise ValueError("fit requires --input and --output")
    records = parse_runs(r["input"]).records
    fits = fit_baselines(records, per_optimizer=bool(r["per_optimizer"]))
    paths = save_fits(fits, r["output"])
    if r["power_law"]:
        frontier = select_best_per_group(records)
        pl = fit_power_law(frontier)
        paths += save_fits([pl], r["output"])
    _write_resolved(r["output"], "fit", r)
    objs = ", ".join(f"{s.tag()}: {f.objective:.3e}" for s, f in sorted(
        fits.items(), key=lambda kv: kv[0].tag()))
    print(f"fitted {len(paths)} scope file(s) -> {r['output']} ({objs})")
    return 0


def _plan_from_overrides(target: str, overrides: dict) -> TrainPlan:
    plan = TrainPlan.curve_default() if target == "curve" else TrainPlan.final_default()
    stage_over = {}
    for stage in ("stage1", "stage2"):
        if stage in overrides:
            stage_over[stage] = dataclasses.replace(
                getattr(plan, stage), **overrides.pop(stage))
    return dataclasses.replace(plan, **stage_over, **overrides)


def _load_split_dir(path: str) -> DatasetSplits:
    parts = {}
    for name in ("train", "id_val", "ood_val"):
        fp = os.path.join(path, f"{name}.jsonl")
        parts[name] = parse_runs(fp).records if os.path.exists(fp) else []
    if not parts["train"]:
        raise ValueError(f"no train.jsonl records under {path}")
    return DatasetSplits(**parts)


def cmd_train(args) -> int:
    defaults = {"input": None, "fits": None, "output": None, "target": "final",
                "method": "neural", "plan": None, "seed": None}
    r = _resolve(args, defaults)
    if not (r["input"] and r["fits"] and r["output"]):
        raise ValueError("train requires --input, --fits and --output")
    if r["target"] not in ("final", "curve"):
        raise ValueError(f"unknown target '{r['target']}'")
    if r["method"] not in ("neural", "gbt"):
        raise ValueError(f"unknown method '{r['method']}'")
    if r["method"] == "gbt" and r["target"] == "curve":
        raise ValueError("curve prediction needs the neural method")

    splits = _load_split_dir(r["input"])
    baselines = ChinchillaPredictor.load(r["fits"]).fits

    overrides = {}
    if r["plan"]:
        with open(r["plan"], "r", encoding="utf-8") as fh:
            overrides = json.load(fh)

    if r["method"] == "gbt":
        params = GBTParams(**overrides) if overrides else GBTParams()
        predictor = fit_gbt(
            splits.train, baselines, params,
            all_records=splits.train + splits.id_val + splits.ood_val,
        )
        predictor.save(r["output"])
        summary = (f"gbt: {params.rounds} rounds, depth {params.max_depth}, "
                   f"{len(splits.train)} train runs")
    else:
        if r["seed"] is not None:
            overrides["seed"] = int(r["seed"])
        plan = _plan_from_overrides(r["target"], overrides)
        predictor = train(splits, plan, baselines, target_kind=r["target"])
        predictor.save(r["output"])
        report = predictor.report
        with open(r["output"] + ".report.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        last_mse = report.stage_final_mse.get("stage2", float("nan"))
        summary = (f"neural {r['target']}: {report.n_params} params, "
                   f"final train mse {last_mse:.3e}"
                   + (", ABORTED: " + report.abort_reason if report.aborted else ""))
    _write_resolved(r["output"], "train", r)
    print(f"trained -> {r['output']} ({summary})")
    return 0


def cmd_predict(args) -> int:
    defaults = {"model": None, "input": None, "output": None}
    r = _resolve(args, defaults)
    if not (r["model"] and r["input"] and r["output"]):
        raise ValueError("predict requires --model, --input and --output")
    predictor = load_predictor(r["model"])
    run_ids, configs = [], []
    for run_id, cfg in _read_config_lines(r["input"]):
        run_ids.append(run_id)
        configs.append(cfg)
    losses = predictor.predict_final_loss_batch(configs)
    n = _write_jsonl(r["output"], (
        {"run_id": run_id, "predicted_final_loss": float(loss)}
        for run_id, loss in zip(run_ids, losses)))
    _write_resolved(r["output"], "predict", r)
    print(f"predicted {n} final losses -> {r['output']}")
    return 0


def cmd_curve(args) -> int:
    defaults = {"model": None, "input": None, "output": None, "points": 30}
    r = _resolve(args, defaults)
    if not (r["model"] and r["input"] and r["output"]):
        raise ValueError("curve requires --model, --input and --output")
    predictor = load_predictor(r["model"])
    if not hasattr(predictor, "predict_curve"):
        raise ValueError("model does not support curve prediction")
    k = int(r["points"])
    fracs = np.arange(1, k + 1) / k
    rows = []
    for run_id, cfg in _read_config_lines(r["input"]):
        curve = predictor.predict_curve(cfg, fracs)
        rows.append({"run_id": run_id,
                     "curve": [[int(s), float(l)] for s, l in curve]})
    n = _write_jsonl(r["output"], rows)
    _write_resolved(r["output"], "curve", r)
    print(f"predicted {n} curves ({k} points each) -> {r['output']}")
    return 0


def cmd_sweep(args) -> int:
    defaults = {"model": None, "base": None, "output": None, "n": None, "d": None,
                "fix": None, "lr_min": 1e-4, "lr_max": 3e-2, "lr_points": 13,
                "bs_min": 32.0, "bs_max": 2048.0, "bs_points": 9}
    r = _resolve(args, defaults)
    if not (r["model"] and r["base"] and r["output"]):
        raise ValueError("sweep requires --model, --base and --output")
    predictor = load_predictor(r["model"])
    with open(r["base"], "r", encoding="utf-8") as fh:
        base_cfg = config_from_obj(json.load(fh))
    n = float(r["n"]) if r["n"] is not None else base_cfg.model_size_n
    d = float(r["d"]) if r["d"] is not None else base_cfg.data_size_d
    grid = SweepGrid.lr_bs(
        base_cfg,
        lr_range=(float(r["lr_min"]), float(r["lr_max"])),
        bs_range=(float(r["bs_min"]), float(r["bs_max"])),
        n_lr=int(r["lr_points"]), n_bs=int(r["bs_points"]),
    )
    fixed = _parse_fix(r["fix"]) if isinstance(r["fix"], list) else (r["fix"] or {})
    rec = recommend(predictor, n, d, grid=grid, constraints=fixed)

    os.makedirs(r["output"], exist_ok=True)
    with open(os.path.join(r["output"], "surface.csv"), "w", encoding="utf-8",
              newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["peak_lr", "batch_size", "predicted_loss"])
        for cfg, loss in rec.predicted_surface:
            w.writerow([repr(cfg.peak_lr), repr(cfg.batch_size), repr(loss)])
    with open(os.path.join(r["output"], "recommendation.json"), "w",
              encoding="utf-8") as fh:
        json.dump(rec.summary(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_resolved(r["output"], "sweep",
                    {**r, "fix": fixed, "n": n, "d": d})
    print(f"swept {len(rec.predicted_surface)} points at N={n:g} D={d:g}: "
          f"best lr={rec.refined_point[0]:.4g} bs={rec.refined_point[1]:.4g} "
          f"loss={rec.refined_loss:.4f}"
          + (" [grid fallback]" if rec.refine_fallback else " [refined]"))
    return 0


def _read_losses(path: str) -> tuple[list[str | None], list[float]]:
    ids, losses = [], []
    keys = ("predicted_final_loss", "final_loss", "loss")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = json.loads(line)
            if isinstance(obj, dict):
                for key in keys:
                    if key in obj:
                        losses.append(float(obj[key]))
                        break
                else:
                    raise ValueError(f"{path}:{lineno}: no loss field")
                ids.append(obj.get("run_id"))
            else:
                losses.append(float(obj))
                ids.append(None)
    return ids, losses


def cmd_eval(args) -> int:
    defaults = {"model": None, "input": None, "pred": None, "truth": None,
                "contour_from": None, "output": None, "resolution": 50}
    r = _resolve(args, defaults)

    if r["contour_from"]:
        if not r["output"]:
            raise ValueError("contour export requires --output")
        surface = []
        with open(r["contour_from"], "r", encoding="utf-8", newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0] == "peak_lr":
                    continue
                surface.append((float(row[0]), float(row[1]), float(row[2])))
        grid = export_contour_data(surface, resolution=int(r["resolution"]))
        with open(r["output"], "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["peak_lr", "batch_size", "loss"])
            for lr, bs, z in grid.rows():
                w.writerow([repr(lr), repr(bs), repr(z)])
        print(f"contoured {len(surface)} samples onto a "
              f"{r['resolution']}x{r['resolution']} grid -> {r['output']}")
        return 0

    if r["pred"] and r["truth"]:
        pred_ids, pred = _read_losses(r["pred"])
        truth_ids, truth = _read_losses(r["truth"])
        if all(i is not None for i in pred_ids + truth_ids):
            by_id = dict(zip(truth_ids, truth))
            missing = [i for i in pred_ids if i not in by_id]
            if missing:
                raise ValueError(f"{len(missing)} run_ids missing from truth "
                                 f"(first: {missing[0]})")
            truth = [by_id[i] for i in pred_ids]
        m = compute_metrics(pred, truth)
    elif r["model"] and r["input"]:
        predictor = load_predictor(r["model"])
        records = parse_runs(r["input"]).records
        m = evaluate_split(predictor, records)
    else:
        raise ValueError("eval needs --model/--input, --pred/--truth, "
                         "or --contour-from")

    if r["output"]:
        with open(r["output"], "w", encoding="utf-8") as fh:
            json.dump(m.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"MAE={m.mae:.6f} RMSE={m.rmse:.6f} spearman={m.spearman_rho:.6f} "
          f"n={m.n}")
    return 0


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losscast",
        description="Learn and query configuration-to-loss scaling models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file pre-setting any flag")
        p.set_defaults(func=func)
        return p

    p = add("schema", cmd_schema, "dump the canonical feature table")
    p.add_argument("--frac", action="store_true", default=None,
                   help="include the training-progress fraction field")
    p.add_argument("--output")

    p = add("synth", cmd_synth, "generate a synthetic benchmark dataset")
    p.add_argument("--output")
    p.add_argument("--seed", type=int)
    p.add_argument("--curves", action="store_true", default=None,
                   help="emit the smaller with-curves design")
    p.add_argument("--sigma", type=float, help="override observation noise")
    p.add_argument("--oracle", help="JSON file of generator parameters")

    p = add("ingest", cmd_ingest, "parse, smooth and filter raw run logs")
    p.add_argument("--input")
    p.add_argument("--output", help="directory for kept/rejected/malformed files")

    p = add("split", cmd_split, "group-wise train/val/ood split")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--seed", type=int)
    p.add_argument("--ood-threshold", dest="ood_threshold", type=float)
    p.add_argument("--split-ratio", dest="split_ratio", type=float)

    p = add("fit", cmd_fit, "fit scaling-law baselines on a training split")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--per-optimizer", dest="per_optimizer",
                   action="store_true", default=None)
    p.add_argument("--power-law", dest="power_law", action="store_true",
                   default=None, help="also fit optimal-lr/batch power laws")

    p = add("train", cmd_train, "train a residual regressor on a split dir")
    p.add_argument("--input", help="directory holding train/id_val/ood_val.jsonl")
    p.add_argument("--fits", help="directory of law-fit JSON files")
    p.add_argument("--output")
    p.add_argument("--target", choices=["final", "curve"])
    p.add_argument("--method", choices=["neural", "gbt"])
    p.add_argument("--plan", help="JSON overrides for the training plan")
    p.add_argument("--seed", type=int)

    p = add("predict", cmd_predict, "predict final losses for configs")
    p.add_argument("--model")
    p.add_argument("--input")
    p.add_argument("--output")

    p = add("curve", cmd_curve, "predict whole loss curves for configs")
    p.add_argument("--model")
    p.add_argument("--input")
    p.add_argument("--output")
    p.add_argument("--points", type=int)

    p = add("sweep", cmd_sweep, "grid-sweep lr/batch and recommend settings")
    p.add_argument("--model")
    p.add_argument("--base", help="JSON file with the base run config")
    p.add_argument("--output")
    p.add_argument("--n", type=float, help="target model size (millions)")
    p.add_argument("--d", type=float, help="target data size (billions)")
    p.add_argument("--fix", action="append", metavar="FIELD=VALUE",
                   help="pin a field (repeatable)")
    p.add_argument("--lr-min", dest="lr_min", type=float)
    p.add_argument("--lr-max", dest="lr_max", type=float)
    p.add_argument("--lr-points", dest="lr_points", type=int)
    p.add_argument("--bs-min", dest="bs_min", type=float)
    p.add_argument("--bs-max", dest="bs_max", type=float)
    p.add_argument("--bs-points", dest="bs_points", type=int)

    p = add("eval", cmd_eval, "score predictions or export contour grids")
    p.add_argument("--model")
    p.add_argument("--input")
    p.add_argument("--pred")
    p.add_argument("--truth")
    p.add_argument("--contour-from", dest="contour_from",
                   help="surface.csv to interpolate onto a regular grid")
    p.add_argument("--resolution", type=int)
    p.add_argument("--output")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LosscastError as exc:
        print(f"error [{exc.module}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error [cli]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
