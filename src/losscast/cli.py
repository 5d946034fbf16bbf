"""Command-line pipeline for loss forecasting.

Subcommands mirror the library stages: generate synthetic data, ingest and
filter run logs, split into train/validation sets, fit scaling-law baselines,
train residual regressors, predict losses and curves, sweep hyperparameter
grids, and score predictions.

Each command's settings are declared once, in ``COMMANDS``; that table builds
the parser and drives ``_resolve``. A ``--config`` JSON file can pre-set any
long flag (flags still win) with a value of that flag's JSON type, and it may
supply required settings; every command that writes artifacts also writes the
resolved settings next to them so reruns are reproducible. Same inputs, same
seeds: byte-identical outputs. A settings file (``--config``, ``--plan``,
``--base``, ``--oracle``) must hold a JSON object, or the command writes nothing.

Exit codes: 0 success, 1 pipeline error (tagged with the failing module),
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
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
    gc_paused,
    parse_runs,
    read_kept_lines,
    record_from_obj,
    record_to_obj,
    split_dataset,
    write_json,
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
from .regressor import StagePlan, TrainPlan, TrainedPredictor, train
from .schema import Schema, SchemaError
from .select import SweepGrid, recommend
from .synth import OracleParams, SynthDesign, generate_synthetic_objects


# -- config-file / flag resolution ---------------------------------------------

REQUIRED = object()  # a table default: the command refuses to run without it
FIX = "fix"          # a table kind: the repeatable --fix FIELD=VALUE

KIND_TEXT = {bool: "true or false", int: "an integer", float: "a number",
             str: "a string", FIX: "a list of FIELD=VALUE strings or an object"}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _has_kind(value, kind) -> bool:
    """Whether a config-file value has the JSON type its setting's flag parses to."""
    if kind == FIX:
        return isinstance(value, dict) or (isinstance(value, list) and all(
            isinstance(pair, str) and "=" in pair for pair in value))
    if isinstance(kind, tuple):
        return value in kind
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _resolve(args: argparse.Namespace) -> dict:
    """Merge the command's table defaults < config file < explicit flags.

    Flags are declared with default=None so an explicit value always wins; a
    config value of null keeps the default.
    """
    settings = COMMANDS[args.command][2]
    kinds = {name: kind for name, _, kind, _ in settings}
    resolved = {name: None if default is REQUIRED else default
                for name, default, _, _ in settings}
    if args.config:
        for key, value in _read_object(args.config, "config file").items():
            if key not in kinds:
                raise ValueError(f"unknown config key '{key}' in {args.config}")
            if value is None:
                continue
            kind = kinds[key]
            if not _has_kind(value, kind):
                text = ("one of " + ", ".join(map(repr, kind))
                        if isinstance(kind, tuple) else KIND_TEXT[kind])
                raise ValueError(f"config key '{key}' in {args.config} must be "
                                 f"{text}, got {value!r}")
            resolved[key] = value
    for key in resolved:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    required = [name for name, default, _, _ in settings if default is REQUIRED]
    if not all(resolved[name] for name in required):
        flags = [_flag(name) for name in required]
        listed = ", ".join(flags[:-1]) + " and " if len(flags) > 1 else ""
        raise ValueError(f"{args.command} requires {listed}{flags[-1]}")
    return resolved


def _write_resolved(output: str, command: str, resolved: dict) -> None:
    """Drop the effective settings next to the artifacts."""
    if os.path.isdir(output):
        path = os.path.join(output, "resolved_config.json")
    else:
        path = output + ".resolved.json"
    write_json(path, {"command": command, "resolved": resolved})


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


# -- file formats: one reader or writer each --------------------------------------

def _read_object(path: str, what: str) -> dict:
    """A settings file's JSON object; ValueError naming the file for anything else."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path} must hold a JSON object, "
                         f"not a JSON {type(data).__name__}")
    return data


def _read_lines(path: str):
    """Yields (lineno, value) for each nonblank line of a line-delimited JSON
    file; ValueError naming path:line at the first line that does not decode."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            yield lineno, obj


def _write_jsonl(path: str, objs) -> int:
    """One compact, key-sorted JSON value per line; returns the line count.

    The loop, which also drains ``objs`` when it is a generator, runs with the
    cyclic collector paused: a curve record's ``tolist`` makes about 800 lists.
    """
    n = 0
    with open(path, "w", encoding="utf-8") as fh, gc_paused():
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
            n += 1
    return n


def _warn_skipped(path, malformed) -> None:
    """One stderr line for the malformed lines a run-log reader skipped."""
    if malformed:
        lineno, msg = malformed[0]
        print(f"warning [ingest]: {path}: skipped {len(malformed)} malformed "
              f"line(s); first: line {lineno}: {msg}", file=sys.stderr)


def _read_runs(path) -> list:
    """parse_runs's records, after warning of the lines it skipped."""
    parsed = parse_runs(path)
    _warn_skipped(path, parsed.malformed)
    return parsed.records


def _write_csv(path: str, header, rows) -> None:
    """A header row, then each row with every value written as its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(v) for v in row] for row in rows)


def _read_config_lines(path: str) -> tuple[list[str], list]:
    """The run_ids and RunConfigs of a line-delimited config/run file, in line
    order; a refused line is named by path:line."""
    run_ids, configs = [], []
    for lineno, obj in _read_lines(path):
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{lineno}: not a JSON object")
        try:
            configs.append(config_from_obj(obj))
        except SchemaError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
        run_ids.append(str(obj.get("run_id") or f"line{lineno}"))
    return run_ids, configs


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


# -- subcommands: each takes the resolved settings --------------------------------

def cmd_schema(r) -> int:
    schema = Schema.default(include_frac=r["frac"])
    if r["output"]:
        write_json(r["output"], schema.dump())
        _write_resolved(r["output"], "schema", r)
        print(f"schema v{schema.version} ({len(schema.specs)} fields, "
              f"hash {schema.schema_hash()}) -> {r['output']}")
    else:
        sys.stdout.write(json.dumps(schema.dump(), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_synth(r) -> int:
    if r["oracle"]:
        try:
            params = OracleParams.from_dict(_read_object(r["oracle"], "oracle file"))
        except ValueError as exc:
            raise ValueError(f"oracle file {r['oracle']}: {exc}") from None
    else:
        params = OracleParams()
    if r["sigma"] is not None:
        params = dataclasses.replace(params, noise_sigma=float(r["sigma"]))
    design = SynthDesign.curve_default() if r["curves"] else SynthDesign()
    out, sidecar = r["output"], r["output"] + ".oracle.json"
    _write_jsonl(out, generate_synthetic_objects(params, design, r["seed"]))
    write_json(sidecar, params.to_dict())
    _write_resolved(out, "synth", {**r, "oracle": sidecar})
    print(f"wrote {design.n_runs()} synthetic runs -> {out} (oracle: {sidecar})")
    return 0


def cmd_ingest(r) -> int:
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


def cmd_split(r) -> int:
    """Split ingest's kept.jsonl, copying each line as ingest wrote it to its
    split file; its curves are neither re-smoothed nor re-encoded."""
    kept, malformed = read_kept_lines(r["input"])
    _warn_skipped(r["input"], malformed)
    records = [rec for rec, _ in kept]
    # keyed by identity: run_ids need not be unique
    line_of = {id(rec): line for rec, line in kept}
    splits = split_dataset(records, ood_threshold_n=float(r["ood_threshold"]),
                           ratio=float(r["split_ratio"]), seed=r["seed"])
    os.makedirs(r["output"], exist_ok=True)
    for name, part in (("train", splits.train), ("id_val", splits.id_val),
                       ("ood_val", splits.ood_val)):
        with open(os.path.join(r["output"], f"{name}.jsonl"), "w",
                  encoding="utf-8") as fh:
            fh.writelines(line_of[id(rec)] for rec in part)
    write_split_manifest(splits, r["output"])
    _write_resolved(r["output"], "split", r)
    print(f"split {len(records)} runs -> train={len(splits.train)} "
          f"id_val={len(splits.id_val)} ood_val={len(splits.ood_val)} "
          f"(seed={r['seed']}, N>{r['ood_threshold']:g} held out)")
    return 0


def cmd_fit(r) -> int:
    records = _read_runs(r["input"])
    fits = fit_baselines(records, per_optimizer=r["per_optimizer"])
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


def _known_keys(obj, cls, what: str) -> dict:
    """``obj``, a JSON object each of whose keys names a field of the dataclass
    ``cls``; ValueError naming ``what`` and the first key that does not."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    names = [f.name for f in dataclasses.fields(cls)]
    for key in obj:
        if key not in names:
            raise ValueError(f"unknown key '{key}' in {what}, which takes "
                             + ", ".join(names))
    return obj


def _plan_from_overrides(target: str, overrides: dict) -> TrainPlan:
    plan = TrainPlan.curve_default() if target == "curve" else TrainPlan.final_default()
    _known_keys(overrides, TrainPlan, "the plan")
    stage_over = {}
    for stage in ("stage1", "stage2"):
        if stage in overrides:
            over = _known_keys(overrides.pop(stage), StagePlan, stage)
            base = getattr(plan, stage)
            # a stage's warmup is one of the two fields; naming either drops the other
            if "warmup_ratio" in over or "warmup_steps" in over:
                base = dataclasses.replace(base, warmup_ratio=None, warmup_steps=None)
            stage_over[stage] = dataclasses.replace(base, **over)
    return dataclasses.replace(plan, **stage_over, **overrides)


def _load_split_dir(path: str) -> DatasetSplits:
    parts = {}
    for name in ("train", "id_val", "ood_val"):
        fp = os.path.join(path, f"{name}.jsonl")
        parts[name] = _read_runs(fp) if os.path.exists(fp) else []
    if not parts["train"]:
        raise ValueError(f"no train.jsonl records under {path}")
    return DatasetSplits(**parts)


def cmd_train(r) -> int:
    if r["method"] == "gbt" and r["target"] == "curve":
        raise ValueError("curve prediction needs the neural method")
    if r["method"] == "gbt" and r["seed"] is not None:
        raise ValueError("a seed applies to the neural method; the gbt forest makes "
                         "no random draw")
    overrides = _read_object(r["plan"], "plan file") if r["plan"] else {}
    if r["method"] == "neural" and r["seed"] is not None:
        overrides["seed"] = r["seed"]
    # the plan is checked before the split is read, so a refusal names its file
    try:
        if r["method"] == "gbt":
            params = GBTParams(**_known_keys(overrides, GBTParams, "the plan"))
        else:
            plan = _plan_from_overrides(r["target"], overrides)
    except ValueError as exc:
        raise ValueError(f"plan file {r['plan']}: {exc}") from None

    splits = _load_split_dir(r["input"])
    baseline = ChinchillaPredictor.load(r["fits"])

    if r["method"] == "gbt":
        predictor = fit_gbt(splits, baseline, params)
        predictor.save(r["output"])
        summary = (f"gbt: {params.rounds} rounds, depth {params.max_depth}, "
                   f"{len(splits.train)} train runs")
    else:
        predictor = train(splits, plan, baseline, target_kind=r["target"])
        predictor.save(r["output"])
        report = predictor.report
        write_json(r["output"] + ".report.json", report.to_dict())
        last_mse = report.stage_final_mse.get("stage2", float("nan"))
        summary = (f"neural {r['target']}: {report.n_params} params, "
                   f"final train mse {last_mse:.3e}"
                   + (", ABORTED: " + report.abort_reason if report.aborted else ""))
    _write_resolved(r["output"], "train", r)
    print(f"trained -> {r['output']} ({summary})")
    return 0


def cmd_predict(r) -> int:
    predictor = load_predictor(r["model"])
    run_ids, configs = _read_config_lines(r["input"])
    losses = predictor.predict_final_loss_batch(configs)
    n = _write_jsonl(r["output"], (
        {"run_id": run_id, "predicted_final_loss": float(loss)}
        for run_id, loss in zip(run_ids, losses)))
    _write_resolved(r["output"], "predict", r)
    print(f"predicted {n} final losses -> {r['output']}")
    return 0


def cmd_curve(r) -> int:
    k = r["points"]
    if k < 1:
        raise ValueError(f"--points must be at least 1, got {k}")
    predictor = load_predictor(r["model"])
    if not hasattr(predictor, "predict_curve"):
        raise ValueError("model does not support curve prediction")
    run_ids, configs = _read_config_lines(r["input"])
    curves = predictor.predict_curve(configs, np.arange(1, k + 1) / k)
    n = _write_jsonl(r["output"], (
        {"run_id": run_id, "curve": [[int(s), float(l)] for s, l in curve]}
        for run_id, curve in zip(run_ids, curves)))
    _write_resolved(r["output"], "curve", r)
    print(f"predicted {n} curves ({k} points each) -> {r['output']}")
    return 0


def cmd_sweep(r) -> int:
    base_cfg = config_from_obj(_read_object(r["base"], "base config file"))
    predictor = load_predictor(r["model"])
    n = float(r["n"]) if r["n"] is not None else base_cfg.model_size_n
    d = float(r["d"]) if r["d"] is not None else base_cfg.data_size_d
    grid = SweepGrid.lr_bs(
        base_cfg,
        lr_range=(float(r["lr_min"]), float(r["lr_max"])),
        bs_range=(float(r["bs_min"]), float(r["bs_max"])),
        n_lr=r["lr_points"], n_bs=r["bs_points"],
    )
    fixed = _parse_fix(r["fix"]) if isinstance(r["fix"], list) else (r["fix"] or {})
    rec = recommend(predictor, n, d, grid=grid, constraints=fixed)

    os.makedirs(r["output"], exist_ok=True)
    _write_csv(os.path.join(r["output"], "surface.csv"),
               ["peak_lr", "batch_size", "predicted_loss"],
               ((cfg.peak_lr, cfg.batch_size, loss) for cfg, loss in rec.predicted_surface))
    write_json(os.path.join(r["output"], "recommendation.json"), rec.summary())
    _write_resolved(r["output"], "sweep",
                    {**r, "fix": fixed, "n": n, "d": d})
    print(f"swept {len(rec.predicted_surface)} points at N={n:g} D={d:g}: "
          f"best lr={rec.refined_point[0]:.4g} bs={rec.refined_point[1]:.4g} "
          f"loss={rec.refined_loss:.4f}"
          + (" [grid fallback]" if rec.refine_fallback else " [refined]"))
    return 0


def _read_losses(path: str) -> tuple[list[str | None], list[float]]:
    """(run_ids, losses) of a file whose lines are bare numbers or objects with
    a loss field or a curve; ValueError naming path:line at any other line."""
    ids, losses = [], []
    keys = ("predicted_final_loss", "final_loss", "loss")
    for lineno, obj in _read_lines(path):
        loss = obj
        if isinstance(obj, dict):
            key = next((k for k in keys if k in obj), None)
            if key != "predicted_final_loss" and obj.get("curve") is not None:
                # a run with a curve: its smoothed tail, which eval --model
                # scores whatever final_loss the line also carries
                loss = record_from_obj(obj).final_loss
            elif key is None:
                raise ValueError(f"{path}:{lineno}: no loss field")
            else:
                loss = obj[key]
        if isinstance(loss, bool) or not isinstance(loss, (int, float)):
            raise ValueError(f"{path}:{lineno}: loss {loss!r} is not a JSON number")
        ids.append(obj.get("run_id") if isinstance(obj, dict) else None)
        losses.append(float(loss))
    return ids, losses


def cmd_eval(r) -> int:
    if r["contour_from"]:
        if not r["output"]:
            raise ValueError("contour export requires --output")
        surface = []
        with open(r["contour_from"], "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0] == "peak_lr":
                    continue
                where = f"{r['contour_from']}:{reader.line_num}"
                try:
                    lr, bs, loss = map(float, row)
                except ValueError:
                    raise ValueError(f"{where}: expected peak_lr, batch_size and loss "
                                     f"as numbers, got {row!r}") from None
                # the grid spans log lr and log bs, and a non-finite loss
                # spreads through every cell of the interpolated surface
                if not (0 < lr < math.inf and 0 < bs < math.inf and math.isfinite(loss)):
                    raise ValueError(f"{where}: expected a positive finite peak_lr and "
                                     f"batch_size and a finite loss, got {row!r}")
                surface.append((lr, bs, loss))
        grid = export_contour_data(surface, resolution=r["resolution"])
        _write_csv(r["output"], ["peak_lr", "batch_size", "loss"], grid.rows())
        _write_resolved(r["output"], "eval", r)
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
        records = _read_runs(r["input"])
        m = evaluate_split(predictor, records)
    else:
        raise ValueError("eval needs --model/--input, --pred/--truth, "
                         "or --contour-from")

    if r["output"]:
        write_json(r["output"], m.to_dict())
        _write_resolved(r["output"], "eval", r)
    print(f"MAE={m.mae:.6f} RMSE={m.rmse:.6f} spearman={m.spearman_rho:.6f} "
          f"n={m.n}")
    return 0


# -- the command table and parser ------------------------------------------------

# command: (function, help, settings); each setting is (name, default, kind, help)
# and becomes the flag --name with "_" spelled "-". A kind is a type the flag
# parses with (bool: a store-true switch), a tuple of choices, or FIX.
COMMANDS = {
    "schema": (cmd_schema, "dump the canonical feature table", (
        ("frac", False, bool, "include the training-progress fraction field"),
        ("output", None, str, None),
    )),
    "synth": (cmd_synth, "generate a synthetic benchmark dataset", (
        ("output", REQUIRED, str, None), ("seed", 7, int, None),
        ("curves", False, bool, "emit the smaller with-curves design"),
        ("sigma", None, float, "override observation noise"),
        ("oracle", None, str, "JSON file of generator parameters"),
    )),
    "ingest": (cmd_ingest, "parse, smooth and filter raw run logs", (
        ("input", REQUIRED, str, None),
        ("output", REQUIRED, str, "directory for kept/rejected/malformed files"),
    )),
    "split": (cmd_split, "group-wise train/val/ood split of ingest's kept.jsonl; "
              "each line is copied unchanged to its split file", (
        ("input", REQUIRED, str, "ingest's kept.jsonl; each line is copied "
         "unchanged to its split file"),
        ("output", REQUIRED, str, None), ("seed", 0, int, None),
        ("ood_threshold", OOD_THRESHOLD_N, float, None),
        ("split_ratio", TRAIN_RATIO, float, None),
    )),
    "fit": (cmd_fit, "fit scaling-law baselines on a training split", (
        ("input", REQUIRED, str, None), ("output", REQUIRED, str, None),
        ("per_optimizer", False, bool, None),
        ("power_law", False, bool, "also fit optimal-lr/batch power laws"),
    )),
    "train": (cmd_train, "train a residual regressor on a split dir", (
        ("input", REQUIRED, str, "directory holding train/id_val/ood_val.jsonl"),
        ("fits", REQUIRED, str, "directory of law-fit JSON files"),
        ("output", REQUIRED, str, None),
        ("target", "final", ("final", "curve"), None),
        ("method", "neural", ("neural", "gbt"), None),
        ("plan", None, str, "JSON overrides for the training plan (neural) or GBT "
         "params. A stage override naming warmup_ratio or warmup_steps replaces "
         "the stage's default warmup; naming both is an error"),
        ("seed", None, int, "the neural plan's seed; refused with --method gbt"),
    )),
    "predict": (cmd_predict, "predict final losses for configs", (
        ("model", REQUIRED, str, None), ("input", REQUIRED, str, None),
        ("output", REQUIRED, str, None),
    )),
    "curve": (cmd_curve, "predict whole loss curves for configs", (
        ("model", REQUIRED, str, None), ("input", REQUIRED, str, None),
        ("output", REQUIRED, str, None), ("points", 30, int, None),
    )),
    "sweep": (cmd_sweep, "grid-sweep lr/batch and recommend settings", (
        ("model", REQUIRED, str, None),
        ("base", REQUIRED, str, "JSON file with the base run config"),
        ("output", REQUIRED, str, None),
        ("n", None, float, "target model size (millions)"),
        ("d", None, float, "target data size (billions)"),
        ("fix", None, FIX, "pin a field (repeatable)"),
        ("lr_min", 1e-4, float, None), ("lr_max", 3e-2, float, None),
        ("lr_points", 13, int, None),
        ("bs_min", 32.0, float, None), ("bs_max", 2048.0, float, None),
        ("bs_points", 9, int, None),
    )),
    "eval": (cmd_eval, "score predictions or export contour grids", (
        ("model", None, str, None), ("input", None, str, None),
        ("pred", None, str, None), ("truth", None, str, None),
        ("contour_from", None, str, "surface.csv to interpolate onto a regular grid"),
        ("resolution", 50, int, None), ("output", None, str, None),
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="losscast",
        description="Learn and query configuration-to-loss scaling models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, settings) in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="JSON file pre-setting any flag")
        for name, _, kind, help_text in settings:
            if kind is bool:
                how = {"action": "store_true"}
            elif kind == FIX:
                how = {"action": "append", "metavar": "FIELD=VALUE"}
            elif isinstance(kind, tuple):
                how = {"choices": kind}
            else:
                how = {"type": kind}
            p.add_argument(_flag(name), default=None, help=help_text, **how)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](_resolve(args))
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
