"""The benchmark's three workloads.

Each workload generates its inputs from the seed in ``setup`` and does any
one-off preparation in ``setup_once`` (both outside the timed region), runs
one round of ``losscast`` commands through ``losscast.cli.main`` in
``run_round`` (the timed region; it returns each command's seconds, the
round's throughputs and its failed operations), and checks that round's outputs against
ground truth computed apart from the program in ``check``. Every round runs
the same commands on the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import glob
import io
import json
import math
import os
import re
import time

import numpy as np

from losscast.cli import load_predictor, main
from losscast.ingest import config_from_obj
from losscast.synth import OracleParams, SynthDesign, generate_synthetic_objects

import oracle


class CommandFailed(Exception):
    pass


class Runner:
    """Runs one CLI command in-process and returns its wall time.

    With a tracer the command becomes a ``cli.<command>`` span, so the CLI's
    own work is the part of it no deeper span covers.
    """

    def __init__(self):
        self.tracer = None
        self.attempted = 0

    def __call__(self, *argv, count: bool = True) -> float:
        """``count=False`` marks set-up and check commands, which are not
        operations of the timed workload."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        self.attempted += count
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is None:
                rc = main(argv)
            else:
                rc = self.tracer.span("cli." + argv[0], main, argv)
        dt = time.perf_counter() - t0
        if rc != 0:
            raise CommandFailed(f"losscast {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
        return dt


def _write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


_RUN_ID = re.compile(r'"run_id":"([^"]*)"')


def _run_ids(path):
    """run_id of every line of a run file, without decoding the logged curves."""
    with open(path, encoding="utf-8") as fh:
        return [_RUN_ID.search(line).group(1) for line in fh if line.strip()]


def _write_dataset(params: OracleParams, design: SynthDesign, seed: int, path: str):
    """Synthetic runs plus the oracle sidecar; returns the raw objects."""
    objs = generate_synthetic_objects(params, design, seed)
    _write_lines(path, objs)
    with open(path + ".oracle.json", "w", encoding="utf-8") as fh:
        json.dump(params.to_dict(), fh)
    return objs


def _strip(obj):
    """A run's configuration alone, as a query line."""
    return {k: v for k, v in obj.items() if k not in ("curve", "final_loss")}


def _fits(fit_dir):
    out = {}
    for path in glob.glob(os.path.join(fit_dir, "chinchilla_*.json")):
        with open(path, encoding="utf-8") as fh:
            fit = json.load(fh)
        out[(fit["scope"]["source"], fit["scope"]["optimizer"])] = fit
    return out


def _chinchilla(fits, obj):
    fit = fits.get((obj["source"], obj["optimizer"])) or fits[(obj["source"], None)]
    return oracle.chinchilla(fit, obj["model_size_n"], obj["data_size_d"])


def _mae(a, b):
    return float(np.mean(np.abs(np.asarray(a) - np.asarray(b))))


class Workload:
    name = ""

    def __init__(self, seed: int, work: str, run: Runner):
        self.seed = seed
        self.work = work
        self.run = run
        self.inputs = os.path.join(work, "inputs")
        self._expected = None
        self.once_times = {}

    def fit_once(self, out, split_seed, *fit_flags):
        """Ingest, split and fit the baselines once per run, into ``out``.

        The multi-start Chinchilla fit takes 3-7 s, most of it seed- and
        load-dependent Nelder-Mead time; in every round it was the largest
        source of spread between runs. Done once, it counts in ``setup_s``
        and is reported as ``fit_s``."""
        for argv in (("ingest", "--input", self.runs, "--output", f"{out}/ingest"),
                     ("split", "--input", f"{out}/ingest/kept.jsonl", "--output",
                      f"{out}/split", "--seed", split_seed)):
            self.run(*argv, count=False)
        self.once_times["fit_s"] = self.run(
            "fit", "--input", f"{out}/split/train.jsonl", "--output", f"{out}/fits",
            *fit_flags, count=False)
        return f"{out}/fits"

    def check_filter_and_split(self, objs, ingest_dir, split_dir) -> list[str]:
        """Kept + rejected = parsed, rules recomputed; whole groups per split;
        the OOD split is exactly N > 430."""
        errors = []
        if self._expected is None:
            self._expected = oracle.expected_rejections(objs)
        kept = _run_ids(os.path.join(ingest_dir, "kept.jsonl"))
        rejected = {o["run_id"]: o["rule"]
                    for o in _read_lines(os.path.join(ingest_dir, "rejected.jsonl"))}
        malformed = _read_lines(os.path.join(ingest_dir, "malformed.jsonl"))
        if len(kept) + len(rejected) + len(malformed) != len(objs) or malformed:
            errors.append(f"ingest: kept {len(kept)} + rejected {len(rejected)} + "
                          f"malformed {len(malformed)} != parsed {len(objs)}")
        if rejected != self._expected:
            errors.append(f"ingest: rejected {sorted(rejected.items())[:3]}... differ from "
                          f"the recomputed rules {sorted(self._expected.items())[:3]}...")
        by_id = {o["run_id"]: o for o in objs}
        parts = {s: _run_ids(os.path.join(split_dir, f"{s}.jsonl"))
                 for s in ("train", "id_val", "ood_val")}
        placed = [r for ids in parts.values() for r in ids]
        if sorted(placed) != sorted(kept):
            errors.append("split: the splits do not partition the kept runs")
        group_of = {}
        for s in ("train", "id_val"):
            for r in parts[s]:
                o = by_id[r]
                key = (o["optimizer"], round(o["model_size_n"], 1), round(o["data_size_d"], 1))
                if group_of.setdefault(key, s) != s:
                    errors.append(f"split: group {key} lands in two splits")
                    break
        ood = sorted(r for r in kept if by_id[r]["model_size_n"] > oracle.OOD_THRESHOLD_N)
        if sorted(parts["ood_val"]) != ood:
            errors.append("split: ood_val is not exactly the kept runs with N > 430")
        return errors

    def check_baseline(self, fit_dir, query_path, out_path) -> list[str]:
        """The program's Chinchilla predictions equal E + A/N^a + B/D^b
        computed from the written fit files."""
        self.run("predict", "--model", fit_dir, "--input", query_path, "--output", out_path,
                 count=False)
        fits = _fits(fit_dir)
        got = [o["predicted_final_loss"] for o in _read_lines(out_path)]
        want = [_chinchilla(fits, o) for o in _read_lines(query_path)]
        if len(got) != len(want) or not np.allclose(got, want, rtol=1e-12, atol=0):
            return [f"fit: Chinchilla predictions differ from the fit files "
                    f"(max {np.max(np.abs(np.subtract(got, want))):.3g})"]
        return []

    def check_beats_chinchilla(self, truth, fits, queries, models) -> list[str]:
        """Learned predictors score a lower MAE against the oracle than the
        Chinchilla baseline alone, on the same configs."""
        configs = [config_from_obj(o) for o in queries]
        chin = _mae([_chinchilla(fits, o) for o in queries], truth)
        errors = []
        for label, path in models:
            mae = _mae(load_predictor(path).predict_final_loss_batch(configs), truth)
            if not mae < chin:
                errors.append(f"{label}: MAE {mae:.4f} against the oracle is not below "
                              f"Chinchilla's {chin:.4f}")
        return errors


class FinalBuild(Workload):
    """The full 3024-run final-loss design through ingest, split, train
    (neural and GBT) and eval, with shortened plans; the baselines are fit
    once in set-up."""

    name = "final-build"
    NEURAL_PLAN = {"stage1": {"epochs": 1}, "stage2": {"epochs": 4}}
    GBT_PLAN = {"rounds": 4, "learning_rate": 0.3}

    def setup(self):
        os.makedirs(self.inputs, exist_ok=True)
        self.runs = os.path.join(self.inputs, "runs.jsonl")
        self.objs = _write_dataset(OracleParams(), SynthDesign(), self.seed, self.runs)
        self.neural_plan = os.path.join(self.inputs, "neural.json")
        self.gbt_plan = os.path.join(self.inputs, "gbt.json")
        with open(self.neural_plan, "w", encoding="utf-8") as fh:
            json.dump(self.NEURAL_PLAN, fh)
        with open(self.gbt_plan, "w", encoding="utf-8") as fh:
            json.dump(self.GBT_PLAN, fh)

    def setup_once(self):
        self.fits = self.fit_once(os.path.join(self.work, "once"), self.seed, "--power-law")

    def run_round(self, d):
        run = self.run
        t = {}
        t["ingest_s"] = run("ingest", "--input", self.runs, "--output", f"{d}/ingest")
        t["ingest_s"] += run("split", "--input", f"{d}/ingest/kept.jsonl",
                             "--output", f"{d}/split", "--seed", self.seed)
        t["train_neural_s"] = run("train", "--input", f"{d}/split", "--fits", self.fits,
                                  "--output", f"{d}/neural.zip", "--plan", self.neural_plan)
        t["train_gbt_s"] = run("train", "--input", f"{d}/split", "--fits", self.fits,
                               "--output", f"{d}/model.gbt", "--method", "gbt",
                               "--plan", self.gbt_plan)
        t["eval_s"] = 0.0
        for model in ("neural.zip", "model.gbt"):
            for part in ("id_val", "ood_val"):
                t["eval_s"] += run("eval", "--model", f"{d}/{model}",
                                   "--input", f"{d}/split/{part}.jsonl",
                                   "--output", f"{d}/eval-{model}-{part}.json")
        return t, {}, 0

    def check(self, d):
        errors = self.check_filter_and_split(self.objs, f"{d}/ingest", f"{d}/split")
        val = _read_lines(f"{d}/split/id_val.jsonl") + _read_lines(f"{d}/split/ood_val.jsonl")
        queries = [_strip(o) for o in val]
        _write_lines(f"{d}/val-configs.jsonl", queries)
        errors += self.check_baseline(self.fits, f"{d}/val-configs.jsonl",
                                      f"{d}/val-chinchilla.jsonl")
        orc = oracle.Oracle(self.runs + ".oracle.json")
        truth = [orc.config_loss(o) for o in queries]
        errors += self.check_beats_chinchilla(
            truth, _fits(self.fits), queries,
            [("neural", f"{d}/neural.zip"), ("gbt", f"{d}/model.gbt")])
        for part in ("id_val", "ood_val"):
            n = len(_read_lines(f"{d}/split/{part}.jsonl"))
            for model in ("neural.zip", "model.gbt"):
                with open(f"{d}/eval-{model}-{part}.json", encoding="utf-8") as fh:
                    if json.load(fh)["n"] != n:
                        errors.append(f"eval: {model} on {part} did not score its {n} runs")
        return errors


class CurveBuild(Workload):
    """The 432-run curve design with long logged curves through ingest,
    split, curve-target training and ``losscast curve``; the baselines are fit
    once in set-up."""

    name = "curve-build"
    PLAN = {"stage1": {"epochs": 1, "peak_lr": 0.01}, "stage2": {"epochs": 1, "peak_lr": 0.003}}
    QUERIES = 96
    POINTS = 30
    # largest |predicted - EMA of the logged curve| allowed at any point, and the
    # largest mean error as a share of the flat Chinchilla loss's; over seeds 1-10
    # the short plan gave at most 0.89 and 0.27
    CURVE_BOUND = 1.5
    CURVE_SHARE = 0.5

    def setup(self):
        os.makedirs(self.inputs, exist_ok=True)
        self.runs = os.path.join(self.inputs, "runs.jsonl")
        objs = _write_dataset(OracleParams(), SynthDesign.curve_default(), self.seed, self.runs)
        for o in objs:
            o["curve"] = np.asarray(o["curve"], dtype=np.float64)
        self.objs = objs
        rng = np.random.default_rng(self.seed)
        pick = sorted(rng.choice(len(objs), size=self.QUERIES, replace=False))
        self.queries = [_strip(objs[i]) for i in pick]
        self.query_path = os.path.join(self.inputs, "queries.jsonl")
        _write_lines(self.query_path, self.queries)
        self.plan = os.path.join(self.inputs, "curve-plan.json")
        with open(self.plan, "w", encoding="utf-8") as fh:
            json.dump(self.PLAN, fh)

    def setup_once(self):
        self.fits = self.fit_once(os.path.join(self.work, "once"), self.seed)

    def run_round(self, d):
        run = self.run
        t = {}
        t["ingest_s"] = run("ingest", "--input", self.runs, "--output", f"{d}/ingest")
        t["ingest_s"] += run("split", "--input", f"{d}/ingest/kept.jsonl",
                             "--output", f"{d}/split", "--seed", self.seed)
        t["train_neural_s"] = run("train", "--input", f"{d}/split", "--fits", self.fits,
                                  "--output", f"{d}/curve.zip", "--plan", self.plan,
                                  "--target", "curve")
        t["curve_s"] = run("curve", "--model", f"{d}/curve.zip", "--input", self.query_path,
                           "--output", f"{d}/curves.jsonl", "--points", self.POINTS)
        return t, {"curve_points_per_s": self.QUERIES * self.POINTS / t["curve_s"]}, 0

    def check(self, d):
        errors = self.check_filter_and_split(self.objs, f"{d}/ingest", f"{d}/split")
        errors += self.check_baseline(self.fits, self.query_path, f"{d}/chinchilla.jsonl")
        by_id = {o["run_id"]: o for o in self.objs}
        curves = {o["run_id"]: o["curve"] for o in _read_lines(f"{d}/curves.jsonl")}
        fits = _fits(self.fits)
        fracs = np.arange(1, self.POINTS + 1) / self.POINTS
        worst, model_err, flat_err = 0.0, [], []
        for q in self.queries:
            got = np.asarray(curves.get(q["run_id"], []), dtype=np.float64)
            steps = np.round(fracs * q["total_steps"])
            if got.shape != (self.POINTS, 2) or not np.array_equal(got[:, 0], steps):
                errors.append(f"curve: {q['run_id']} does not hold {self.POINTS} points "
                              f"at the requested fractions")
                continue
            raw = by_id[q["run_id"]]["curve"]
            ref = np.interp(steps, raw[:, 0], oracle.ema(raw[:, 1]))
            worst = max(worst, float(np.max(np.abs(got[:, 1] - ref))))
            model_err.append(_mae(got[:, 1], ref))
            flat_err.append(_mae(np.full(len(ref), _chinchilla(fits, q)), ref))
        if worst > self.CURVE_BOUND:
            errors.append(f"curve: a predicted curve is {worst:.3f} from the EMA of its "
                          f"logged curve (bound {self.CURVE_BOUND})")
        if not np.mean(model_err) <= self.CURVE_SHARE * np.mean(flat_err):
            errors.append(f"curve: predicted curves are {np.mean(model_err):.3f} from the "
                          f"EMA on average, more than {self.CURVE_SHARE} of the flat "
                          f"Chinchilla loss's {np.mean(flat_err):.3f}")
        return errors


class Query(Workload):
    """``losscast predict`` over a file of configs and ``losscast sweep`` at
    fixed (N, D) targets, for a neural and a GBT model trained in set-up."""

    name = "query"
    # the models come from a fixed design seed so every seed sweeps the same surfaces
    MODEL_SEED = 7
    MODEL_SPLIT_SEED = 11
    NEURAL_PLAN = {"stage1": {"epochs": 4}, "stage2": {"epochs": 40}}
    GBT_PLAN = {"rounds": 12, "learning_rate": 0.3}
    QUERIES = 300
    TARGETS = ((215.0, 25.0), (430.0, 50.0), (520.0, 30.0))
    GRID = {"lr_min": 1e-4, "lr_max": 3e-2, "bs_min": 32.0, "bs_max": 2048.0, "points": 21}
    # largest true regret (oracle loss above the best lr, bs) of a recommendation
    REGRET_BOUND = 0.05

    def setup(self):
        os.makedirs(self.inputs, exist_ok=True)
        self.runs = os.path.join(self.inputs, "runs.jsonl")
        design = dataclasses.replace(SynthDesign.curve_default(), with_curves=False)
        self.objs = _write_dataset(OracleParams(), design, self.MODEL_SEED, self.runs)
        self.queries = self._queries()
        self.query_path = os.path.join(self.inputs, "queries.jsonl")
        _write_lines(self.query_path, self.queries)
        # the sweeps' base: the design's first adamw, wd 0.1 run at N=215, D=25
        base = next(o for o in self.objs if o["model_size_n"] == 215.0
                    and o["data_size_d"] == 25.0 and o["optimizer"] == "adamw"
                    and o["weight_decay"] == 0.1)
        self.base_path = os.path.join(self.inputs, "base.json")
        with open(self.base_path, "w", encoding="utf-8") as fh:
            json.dump(_strip(base), fh)

    def setup_once(self):
        """Train and save the two models. Done once per run: it costs seconds,
        and three of it in every run would not fit the benchmark's time budget."""
        self.models = i = os.path.join(self.work, "models")
        os.makedirs(i)
        for name, plan in (("neural.json", self.NEURAL_PLAN), ("gbt.json", self.GBT_PLAN)):
            with open(os.path.join(i, name), "w", encoding="utf-8") as fh:
                json.dump(plan, fh)
        self.fit_once(i, self.MODEL_SPLIT_SEED)
        for argv in (
            ("train", "--input", f"{i}/split", "--fits", f"{i}/fits",
             "--output", f"{i}/neural.zip", "--plan", f"{i}/neural.json"),
            ("train", "--input", f"{i}/split", "--fits", f"{i}/fits",
             "--output", f"{i}/model.gbt", "--method", "gbt", "--plan", f"{i}/gbt.json"),
        ):
            self.run(*argv, count=False)

    def _queries(self):
        """Configs inside the design's hyperparameter ranges, drawn from the seed:
        an in-distribution run's shape with lr, bs and wd redrawn."""
        orc_p = OracleParams()
        rng = np.random.default_rng(self.seed)
        design = SynthDesign.curve_default()
        templates = [o for o in self.objs if o["model_size_n"] <= oracle.OOD_THRESHOLD_N]
        out = []
        for k in range(self.QUERIES):
            o = _strip(templates[rng.integers(len(templates))])
            n, d = o["model_size_n"], o["data_size_d"]
            o["run_id"] = f"query-{k:04d}"
            o["peak_lr"] = float(orc_p.lr_opt(n, d) * math.exp(rng.uniform(
                min(design.lr_log_offsets), max(design.lr_log_offsets))))
            o["batch_size"] = float(orc_p.bs_opt(d) * math.exp(rng.uniform(
                min(design.bs_log_offsets), max(design.bs_log_offsets))))
            o["total_steps"] = float(max(1, round(d * 1e9 / (o["batch_size"] * 2048 * 4))))
            o["weight_decay"] = float(rng.choice(design.weight_decays))
            o["optimizer"] = str(rng.choice(design.optimizers))
            out.append(o)
        return out

    def _sweep_args(self, model, n, d, out):
        g = self.GRID
        return ("sweep", "--model", model, "--base", self.base_path, "--output", out,
                "--n", n, "--d", d, "--lr-min", g["lr_min"], "--lr-max", g["lr_max"],
                "--bs-min", g["bs_min"], "--bs-max", g["bs_max"],
                "--lr-points", g["points"], "--bs-points", g["points"])

    def run_round(self, d):
        run, i = self.run, self.models
        t = {}
        for kind, model in (("neural", f"{i}/neural.zip"), ("gbt", f"{i}/model.gbt")):
            t[f"predict_{kind}_s"] = run("predict", "--model", model, "--input",
                                        self.query_path, "--output", f"{d}/predict-{kind}.jsonl")
            t[f"sweep_{kind}_s"] = 0.0
            for n, dd in self.TARGETS:
                t[f"sweep_{kind}_s"] += run(*self._sweep_args(model, n, dd,
                                                              f"{d}/sweep-{kind}-{n:g}-{dd:g}"))
        failed = sum(1 for kind in ("neural", "gbt") for n, dd in self.TARGETS
                     if not self._in_grid(f"{d}/sweep-{kind}-{n:g}-{dd:g}"))
        grid = self.GRID["points"] ** 2 * len(self.TARGETS)
        rates = {"predict_neural_per_s": self.QUERIES / t["predict_neural_s"],
                 "predict_gbt_per_s": self.QUERIES / t["predict_gbt_s"],
                 "sweep_neural_points_per_s": grid / t["sweep_neural_s"],
                 "sweep_gbt_points_per_s": grid / t["sweep_gbt_s"]}
        return t, rates, failed

    def _refined(self, out):
        with open(os.path.join(out, "recommendation.json"), encoding="utf-8") as fh:
            r = json.load(fh)["refined"]
        return r["peak_lr"], r["batch_size"]

    def _in_grid(self, out):
        """A recommendation must lie inside the swept (lr, bs) box."""
        lr, bs = self._refined(out)
        g = self.GRID
        return (g["lr_min"] * (1 - 1e-12) <= lr <= g["lr_max"] * (1 + 1e-12)
                and g["bs_min"] * (1 - 1e-12) <= bs <= g["bs_max"] * (1 + 1e-12))

    def check(self, d):
        i = self.models
        errors = []
        if self._expected is None:
            errors += self.check_filter_and_split(self.objs, f"{i}/ingest", f"{i}/split")
        errors += self.check_baseline(f"{i}/fits", self.query_path, f"{d}/chinchilla.jsonl")
        configs = [config_from_obj(o) for o in self.queries]
        for kind, model in (("neural", f"{i}/neural.zip"), ("gbt", f"{i}/model.gbt")):
            got = [o["predicted_final_loss"] for o in _read_lines(f"{d}/predict-{kind}.jsonl")]
            want = load_predictor(model).predict_final_loss_batch(configs)
            if len(got) != len(want) or not np.allclose(got, want, rtol=1e-12, atol=0):
                errors.append(f"predict: per-config {kind} predictions differ from the "
                              f"batch path")
        orc = oracle.Oracle(self.runs + ".oracle.json")
        truth = [orc.config_loss(o) for o in self.queries]
        errors += self.check_beats_chinchilla(
            truth, _fits(f"{i}/fits"), self.queries,
            [("neural", f"{i}/neural.zip"), ("gbt", f"{i}/model.gbt")])
        with open(self.base_path, encoding="utf-8") as fh:
            base = json.load(fh)
        for kind in ("neural", "gbt"):
            for n, dd in self.TARGETS:
                out = f"{d}/sweep-{kind}-{n:g}-{dd:g}"
                with open(os.path.join(out, "surface.csv"), encoding="utf-8", newline="") as fh:
                    rows = sum(1 for _ in csv.reader(fh)) - 1
                if rows != self.GRID["points"] ** 2:
                    errors.append(f"sweep: {out} surface has {rows} points")
                if not self._in_grid(out):
                    continue  # counted as a failed operation
                lr, bs = self._refined(out)
                regret = orc.regret({**base, "model_size_n": n, "data_size_d": dd,
                                     "peak_lr": lr, "batch_size": bs})
                if regret > self.REGRET_BOUND:
                    errors.append(f"sweep: {kind} at N={n:g} D={dd:g} recommends "
                                  f"lr={lr:.3g} bs={bs:.4g}, true regret {regret:.4f} "
                                  f"> {self.REGRET_BOUND}")
        return errors


WORKLOADS = {w.name: w for w in (FinalBuild, CurveBuild, Query)}
