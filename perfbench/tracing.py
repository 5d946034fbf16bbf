"""Spans and counts around the program's public functions, installed from
the benchmark's own files.

``Tracer.install`` replaces each target with a wrapper that records a span
(name, start, end, parent) in memory and updates the layer's counters; every
module that imported the target by name gets the wrapper too. Spans are
written out once, at the end of the run. A layer's self time is its spans'
time less the time of the spans nested directly inside them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _add(key, amount):
    def count(acc, args, kwargs, result, dt):
        acc[key] += amount(args, kwargs, result)
    return count


def _parsed(acc, args, kwargs, result, dt):
    acc["ingest.records_parsed"] += len(result.records)
    acc["ingest.curve_points_parsed"] += sum(len(r.steps) for r in result.records if r.has_curve)


def _forward(acc, args, kwargs, result, dt):
    acc["regressor.forward_batch.rows"] += len(args[1])
    if kwargs.get("want_cache"):
        acc["regressor.train_forward.s"] += dt


def _sweep(acc, args, kwargs, result, dt):
    acc["select.grid_points"] += args[1].size()
    acc["select.skipped_points"] += len(result.skipped)


# (module, attribute or Class.method, span name, counter)
TARGETS = [
    ("losscast.ingest", "parse_runs", "ingest.parse_runs", _parsed),
    ("losscast.ingest", "smooth_curve", "ingest.smooth_curve", None),
    ("losscast.ingest", "filter_runs", "ingest.filter_runs",
     _add("ingest.rejected", lambda a, k, r: len(r[1]))),
    ("losscast.ingest", "split_dataset", "ingest.split_dataset", None),
    ("losscast.ingest", "record_to_obj", "ingest.record_to_obj", None),
    ("losscast.cli", "_write_jsonl", "cli.write_jsonl", None),
    ("losscast.cli", "load_predictor", "cli.load_predictor", None),
    ("losscast.lawfit", "fit_chinchilla", "lawfit.fit_chinchilla", None),
    ("losscast.lawfit", "ChinchillaPredictor.predict_final_loss", "lawfit.chinchilla_predict", None),
    ("losscast.schema", "Schema.canonicalize", "schema.canonicalize", None),
    ("losscast.features", "encode_batch", "features.encode_batch", None),
    ("losscast.features", "one_hot_matrix", "features.one_hot_matrix", None),
    ("losscast.regressor", "RegressorModel.forward_batch", "regressor.forward_batch", _forward),
    ("losscast.regressor", "RegressorModel.backward_batch", "regressor.backward_batch", None),
    ("losscast.regressor", "adamw_step", "regressor.adamw_step", None),
    ("losscast.regressor", "build_training_rows", "regressor.build_training_rows",
     _add("regressor.training_rows", lambda a, k, r: len(r[2]))),
    ("losscast.regressor", "TrainedPredictor.predict_final_loss", "regressor.predict_final_loss", None),
    ("losscast.regressor", "TrainedPredictor.predict_final_loss_batch", "regressor.predict_final_loss_batch", None),
    ("losscast.regressor", "TrainedPredictor.predict_curve", "regressor.predict_curve", None),
    ("losscast.regressor", "TrainedPredictor.save", "regressor.save", None),
    ("losscast.regressor", "TrainedPredictor.load", "regressor.load", None),
    ("losscast.gbt", "fit_gbt_arrays", "gbt.fit_gbt_arrays",
     _add("gbt.rounds", lambda a, k, r: r.n_trees())),
    ("losscast.gbt", "BoostedForest.predict", "gbt.forest_predict",
     _add("gbt.forest_predict.rows", lambda a, k, r: len(r))),
    ("losscast.gbt", "GBTPredictor.predict_final_loss", "gbt.predict_final_loss", None),
    ("losscast.gbt", "GBTPredictor.predict_final_loss_batch", "gbt.predict_final_loss_batch", None),
    ("losscast.gbt", "GBTPredictor.save", "gbt.save", None),
    ("losscast.gbt", "GBTPredictor.load", "gbt.load", None),
    ("losscast.select", "sweep", "select.sweep", _sweep),
    ("losscast.select", "refine_optimum", "select.refine_optimum", None),
    ("losscast.select", "recommend", "select.recommend",
     _add("select.refine_fallbacks", lambda a, k, r: int(r.refine_fallback))),
    ("losscast.metrics", "evaluate_split", "metrics.evaluate_split", None),
]

LAYERS = ("cli", "ingest", "lawfit", "schema", "features", "regressor", "gbt", "select", "metrics")


class Tracer:
    #: every per-layer figure ``summary`` gives, with its unit (set below)
    UNITS: dict[str, str] = {}

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            span[1], span[2] = t0, t1
        return result, t1 - t0

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._call(name, fn, args, kwargs)[0]

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, dt = self._call(name, fn, args, kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, result, dt)
            return result
        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.startswith("losscast")]
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    new = self._wrap(name, raw, counter)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            new = self._wrap(name, orig, counter)
            for m in modules:
                if getattr(m, attr, None) is orig:
                    self._undo.append((m, attr, orig))
                    setattr(m, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def mark(self) -> tuple[int, dict]:
        return len(self.spans), dict(self.counts)

    def summary(self, mark: tuple[int, dict]) -> dict[str, float]:
        """Per-layer figures for the spans and counts recorded since ``mark``."""
        first, counts0 = mark
        spans = self.spans[first:]
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for name, t0, t1, parent in spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= first:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        sweep_self = 0.0
        for i, (name, t0, t1, _) in enumerate(spans, start=first):
            own = (t1 - t0) - child[i]
            self_s[name.split(".")[0]] += own
            if name == "select.sweep":
                sweep_self += own
        c = defaultdict(float, {k: v - counts0.get(k, 0.0) for k, v in self.counts.items()})
        steps = calls["regressor.adamw_step"]
        rounds = c["gbt.rounds"]
        out = {
            "ingest.parse_runs.s": total["ingest.parse_runs"],
            "ingest.records_parsed": c["ingest.records_parsed"],
            "ingest.curve_points_parsed": c["ingest.curve_points_parsed"],
            "ingest.smooth_curve.s": total["ingest.smooth_curve"],
            "ingest.filter_runs.s": total["ingest.filter_runs"],
            "ingest.rejected": c["ingest.rejected"],
            "ingest.split_dataset.s": total["ingest.split_dataset"],
            "ingest.record_to_obj.s": total["ingest.record_to_obj"],
            "cli.write_jsonl.s": total["cli.write_jsonl"],
            "cli.load_predictor.s": total["cli.load_predictor"],
            "lawfit.fit_chinchilla.s": total["lawfit.fit_chinchilla"],
            "lawfit.fit_chinchilla.calls": calls["lawfit.fit_chinchilla"],
            "lawfit.chinchilla_predict.s": total["lawfit.chinchilla_predict"],
            "lawfit.chinchilla_predict.calls": calls["lawfit.chinchilla_predict"],
            "regressor.steps": steps,
            "regressor.step_ms": 1e3 * _per(
                c["regressor.train_forward.s"] + total["regressor.backward_batch"]
                + total["regressor.adamw_step"], steps),
            "regressor.forward_batch.s": total["regressor.forward_batch"],
            "regressor.backward_batch.s": total["regressor.backward_batch"],
            "regressor.adamw_step.s": total["regressor.adamw_step"],
            "regressor.build_training_rows.s": total["regressor.build_training_rows"],
            "regressor.training_rows": c["regressor.training_rows"],
            "regressor.forward_batch.calls": calls["regressor.forward_batch"],
            "regressor.forward_batch.rows_per_call": _per(
                c["regressor.forward_batch.rows"], calls["regressor.forward_batch"]),
            "regressor.save.s": total["regressor.save"],
            "regressor.load.s": total["regressor.load"],
            "gbt.rounds": rounds,
            "gbt.round_ms": 1e3 * _per(total["gbt.fit_gbt_arrays"], rounds),
            "gbt.fit_gbt_arrays.s": total["gbt.fit_gbt_arrays"],
            "gbt.forest_predict.s": total["gbt.forest_predict"],
            "gbt.forest_predict.calls": calls["gbt.forest_predict"],
            "gbt.forest_predict.rows_per_call": _per(
                c["gbt.forest_predict.rows"], calls["gbt.forest_predict"]),
            "gbt.load.s": total["gbt.load"],
            "schema.canonicalize.s": total["schema.canonicalize"],
            "schema.canonicalize.calls": calls["schema.canonicalize"],
            "features.encode_batch.s": total["features.encode_batch"],
            "features.encode_batch.calls": calls["features.encode_batch"],
            "features.one_hot_matrix.s": total["features.one_hot_matrix"],
            "select.sweep.self_s": sweep_self,
            "select.grid_points": c["select.grid_points"],
            "select.skipped_points": c["select.skipped_points"],
            "select.refine_optimum.s": total["select.refine_optimum"],
            "select.refine_fallbacks": c["select.refine_fallbacks"],
            "metrics.evaluate_split.s": total["metrics.evaluate_split"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["trace.spans"] = len(spans)
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


def _per(a, b):
    return a / b if b else 0.0


def _unit(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("rows_per_call"):
        return "rows"
    return "count"


Tracer.UNITS = {name: _unit(name) for name in Tracer().summary((0, {}))}
