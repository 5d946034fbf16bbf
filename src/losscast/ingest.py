"""Run-log ingestion: parsing, curve smoothing, stability filtering, and splits.

Input is line-delimited JSON, one run per line, with fields mirroring
RunConfig plus ``curve: [[step, loss], ...]``, ``final_loss``, ``finished``
and ``run_id``. Runs are smoothed with an EMA, diverged or unstable runs are
rejected, and the survivors are split into train / in-distribution validation
/ out-of-distribution validation. Models above the OOD size threshold never
appear in training; below it, whole (optimizer, N, D) groups are assigned to
one side so that near-duplicate runs cannot leak across the split.

The two per-curve loops live here: the EMA recurrence in ``smooth_curve`` and
the sliding-window slope scan of the instability filter. So does
``write_json``, the one writer of every JSON document the package saves.

``gc_paused`` switches CPython's cyclic garbage collector off for the loops
that build or consume many short-lived containers: the run-log line loop
(``_parse_lines``, behind ``parse_runs`` and ``read_kept_lines``), the CLI's
JSONL writer and the synthetic generator. A curve line decodes into about 800
``[step, loss]`` lists, so with the collector on the reader sets off about one
collection per line, each scanning the live heap. Those trees of lists,
floats and dicts hold no reference cycles, so reference counting frees them
and the collector would find nothing to reclaim.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, SplitError
from .schema import RunConfig, SchemaError

SMOOTHING_COEFF = 0.99
DIVERGENCE_LOSS = 4.0
GROUP_GAP = 0.3
SLOPE_WINDOW_FRAC = 0.05
SLOPE_LIMIT = 1e-3
OOD_THRESHOLD_N = 430.0
TRAIN_RATIO = 0.8

# rejection rule codes
RULE_UNFINISHED = "unfinished"
RULE_DIVERGED = "diverged"
RULE_UNSTABLE = "unstable"


@dataclass
class RunRecord:
    """One parsed run: its configuration, optional loss curve, and final loss.

    ``losses`` holds the raw logged values; ``smoothed`` the EMA-smoothed
    curve used everywhere downstream. When a curve is present, ``final_loss``
    is the smoothed curve's last value.
    """

    config: RunConfig
    run_id: str
    finished: bool = True
    steps: np.ndarray | None = None
    losses: np.ndarray | None = None
    smoothed: np.ndarray | None = None
    final_loss: float | None = None

    @property
    def has_curve(self) -> bool:
        return self.steps is not None


@dataclass
class ParseResult:
    """Parsed records plus (line number, message) for every malformed line."""

    records: list[RunRecord] = field(default_factory=list)
    malformed: list[tuple[int, str]] = field(default_factory=list)

    def __len__(self):
        return len(self.records)


@dataclass
class DatasetSplits:
    train: list[RunRecord]
    id_val: list[RunRecord]
    ood_val: list[RunRecord]
    ood_threshold_n: float = OOD_THRESHOLD_N
    ratio: float = TRAIN_RATIO
    seed: int = 0


def smooth_curve(losses, coeff: float = SMOOTHING_COEFF) -> np.ndarray:
    """Exponential moving average with s0 = x0.

    The recurrence is sequential, so it runs left to right over python floats,
    which round exactly as float64 scalars do and cost less per step.
    """
    x = np.asarray(losses, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot smooth an empty curve")
    if not 0.0 <= coeff < 1.0:
        raise ValueError("smoothing coefficient must lie in [0, 1)")
    vals = x.tolist()
    s = vals[0]
    out = [s]
    for v in vals[1:]:
        s = coeff * s + (1.0 - coeff) * v
        out.append(s)
    return np.array(out, dtype=np.float64)


def nd_key(config: RunConfig) -> tuple[float, float]:
    """(N, D) rounded to 0.1M / 0.1B; logs quantize these fields coarsely."""
    return (round(config.model_size_n, 1), round(config.data_size_d, 1))


def group_key(config: RunConfig) -> tuple[str, float, float]:
    return (config.optimizer,) + nd_key(config)


# -- parsing ------------------------------------------------------------------

_CONFIG_ALIASES = {
    "model_size_n": ("model_size_n", "model_size_N", "model_size"),
    "data_size_d": ("data_size_d", "data_size_D", "data_size"),
    "total_steps": ("total_steps",),
    "optimizer": ("optimizer",),
    "peak_lr": ("peak_lr", "lr", "learning_rate"),
    "batch_size": ("batch_size",),
    "num_layers": ("num_layers",),
    "num_heads": ("num_heads",),
    "hidden_dim": ("hidden_dim", "hidden_size"),
    "lr_schedule": ("lr_schedule", "schedule"),
    "min_lr": ("min_lr",),
    "min_lr_ratio": ("min_lr_ratio", "minlr_ratio"),
    "weight_decay": ("weight_decay", "wd"),
    "max_grad_norm": ("max_grad_norm", "grad_clip"),
    "beta1": ("beta1",),
    "beta2": ("beta2",),
}


def _lookup(obj: dict, canonical: str):
    for key in _CONFIG_ALIASES[canonical]:
        if key in obj:
            return obj[key]
    return None


def _number(name: str, value) -> float:
    """``value`` as a float; SchemaError naming the field when it is not a number or is a bool."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise SchemaError(f"field '{name}' must be a number, got {value!r}")


def config_from_obj(obj: dict) -> RunConfig:
    """The RunConfig of a log object; SchemaError naming the field for a
    missing field, a value of the wrong type or one the config refuses."""
    def num(name, default=None):
        v = _lookup(obj, name)
        return default if v is None else _number(name, v)

    warmup, warmup_is_ratio = 0.0, True
    if obj.get("warmup_ratio") is not None:
        warmup = _number("warmup_ratio", obj["warmup_ratio"])
    elif obj.get("warmup_steps") is not None:
        warmup, warmup_is_ratio = _number("warmup_steps", obj["warmup_steps"]), False
    elif obj.get("warmup") is not None:
        # bare "warmup" means steps when > 1, ratio otherwise
        warmup = _number("warmup", obj["warmup"])
        warmup_is_ratio = warmup <= 1.0

    beta1, beta2 = _lookup(obj, "beta1"), _lookup(obj, "beta2")
    if beta1 is None and obj.get("betas") is not None:
        betas = obj["betas"]
        if not (isinstance(betas, list) and len(betas) == 2):
            raise SchemaError(f"field 'betas' must be a pair of numbers, got {betas!r}")
        beta1, beta2 = betas

    epsilon = None
    if obj.get("epsilon") is not None:
        eps = _number("epsilon", obj["epsilon"])
        # raw stability constants are tiny; logged neg-log values are >= 0.5
        epsilon = RunConfig.epsilon_from_raw(eps) if 0 < eps < 0.5 else eps

    extras = obj.get("optimizer_extras")
    if extras is not None and not isinstance(extras, dict):
        raise SchemaError(f"field 'optimizer_extras' must be a JSON object, got {extras!r}")

    required = {}
    for name in ("model_size_n", "data_size_d", "total_steps", "peak_lr", "batch_size"):
        v = num(name)
        if v is None:
            raise SchemaError(f"missing required field '{name}'")
        required[name] = v
    optimizer = _lookup(obj, "optimizer")
    if not optimizer:
        raise SchemaError("missing required field 'optimizer'")

    return RunConfig(
        source=str(obj.get("source", "")),
        optimizer=str(optimizer),
        num_layers=num("num_layers", 0.0),
        num_heads=num("num_heads", 0.0),
        hidden_dim=num("hidden_dim", 0.0),
        lr_schedule=_lookup(obj, "lr_schedule"),
        min_lr=num("min_lr"),
        min_lr_ratio=num("min_lr_ratio"),
        weight_decay=num("weight_decay", 0.0),
        warmup=warmup,
        warmup_is_ratio=warmup_is_ratio,
        max_grad_norm=num("max_grad_norm", 0.0),
        beta1=None if beta1 is None else _number("beta1", beta1),
        beta2=None if beta2 is None else _number("beta2", beta2),
        epsilon=epsilon,
        optimizer_extras=dict(extras or {}),
        **required,
    )


def _parse_curve(raw) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("curve must be a nonempty list of [step, loss] pairs")
    steps, losses = arr[:, 0], arr[:, 1]
    if not np.all(np.diff(steps) > 0):
        raise ValueError("curve steps must be strictly increasing")
    if not (np.all(np.isfinite(losses)) and np.all(losses > 0)):
        raise ValueError("curve losses must be finite and positive")
    return steps, losses


def _unsmoothed_record(obj: dict, run_id: str) -> RunRecord:
    """Every check record_from_obj makes, without the EMA of a curve."""
    config = config_from_obj(obj)
    finished = bool(obj.get("finished", True))
    rec = RunRecord(
        config=config,
        run_id=str(obj.get("run_id") or run_id),
        finished=finished,
    )
    if obj.get("curve") is not None:
        rec.steps, rec.losses = _parse_curve(obj["curve"])
    elif obj.get("final_loss") is not None:
        rec.final_loss = float(obj["final_loss"])
        if not (math.isfinite(rec.final_loss) and rec.final_loss > 0):
            raise ValueError("final_loss must be finite and positive")
    elif finished:
        raise ValueError("finished run carries neither final_loss nor curve")
    return rec


def record_from_obj(obj: dict, run_id: str = "") -> RunRecord:
    """Build a RunRecord from one decoded log object."""
    rec = _unsmoothed_record(obj, run_id)
    if rec.has_curve:
        rec.smoothed = smooth_curve(rec.losses)
        rec.final_loss = float(rec.smoothed[-1])
    return rec


def config_to_obj(config: RunConfig) -> dict:
    """Dump a config in the canonical log format config_from_obj accepts."""
    obj = {
        "source": config.source,
        "model_size_n": config.model_size_n,
        "data_size_d": config.data_size_d,
        "total_steps": config.total_steps,
        "optimizer": config.optimizer,
        "peak_lr": config.peak_lr,
        "batch_size": config.batch_size,
    }
    for name in ("num_layers", "num_heads", "hidden_dim", "weight_decay",
                 "max_grad_norm"):
        v = getattr(config, name)
        if v:
            obj[name] = v
    if config.lr_schedule is not None:
        obj["lr_schedule"] = config.lr_schedule
    if config.min_lr is not None:
        obj["min_lr"] = config.min_lr
    if config.min_lr_ratio is not None:
        obj["min_lr_ratio"] = config.min_lr_ratio
    if config.warmup:
        obj["warmup_ratio" if config.warmup_is_ratio else "warmup_steps"] = config.warmup
    if config.beta1 is not None:
        obj["beta1"], obj["beta2"] = config.beta1, config.beta2
    if config.epsilon is not None:
        obj["epsilon"] = config.epsilon  # already in negated-log form, >= 0.5
    if config.optimizer_extras:
        obj["optimizer_extras"] = dict(config.optimizer_extras)
    return obj


def record_to_obj(record: RunRecord) -> dict:
    """Dump a record as one log object; round-trips through record_from_obj."""
    obj = config_to_obj(record.config)
    obj["run_id"] = record.run_id
    obj["finished"] = record.finished
    if record.has_curve:
        obj["curve"] = np.column_stack((record.steps, record.losses)).tolist()
    elif record.final_loss is not None:
        obj["final_loss"] = record.final_loss
    return obj


def write_json(path: str | os.PathLike, obj) -> None:
    """``obj`` as a JSON document: two-space indent, sorted keys, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def gc_paused():
    """Disable the cyclic garbage collector for the body, then restore the
    state it found, also when the body raises.

    For loops that make many acyclic containers, which reference counting
    frees; the collector's state is process-wide, so nested pauses leave it
    to the outermost one.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _parse_lines(path, build) -> tuple[list, list[tuple[int, str]]]:
    """The line loop of every run-log reader: ``build(obj, lineno, line)`` for
    each nonblank line that decodes to a JSON object.

    A line that fails to decode or to build is collected as (1-based line
    number, message) rather than aborting the read; more than half malformed
    raises FormatError.
    """
    items, malformed = [], []
    n_lines = 0
    with open(path, "r", encoding="utf-8") as fh, gc_paused():
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            n_lines += 1
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("line is not a JSON object")
                items.append(build(obj, lineno, line))
            except (ValueError, KeyError, TypeError, SchemaError) as exc:
                malformed.append((lineno, str(exc)))
    if n_lines and len(malformed) * 2 > n_lines:
        raise FormatError(
            f"{len(malformed)} of {n_lines} lines malformed in {path}; "
            f"first: line {malformed[0][0]}: {malformed[0][1]}"
        )
    return items, malformed


def parse_runs(path: str | os.PathLike) -> ParseResult:
    """Parse a line-delimited run-log file.

    Malformed lines are collected (with 1-based line numbers) rather than
    aborting the parse; more than half malformed raises FormatError.
    """
    records, malformed = _parse_lines(
        path, lambda obj, lineno, line: record_from_obj(obj, run_id=f"line{lineno}"))
    return ParseResult(records=records, malformed=malformed)


def read_kept_lines(
    path: str | os.PathLike,
) -> tuple[list[tuple[RunRecord, str]], list[tuple[int, str]]]:
    """Read ``ingest``'s kept-run file for splitting: (record, line) pairs,
    and (line number, message) for every malformed line.

    Each line gets parse_runs's checks and malformed-line policy, but its
    curve is not smoothed: the record carries only what splitting needs, and
    the line is kept as read so that it can be copied out unchanged. A line
    without a run_id is refused, since the id a reader would invent for it
    would appear in the split manifests but not in the copied line.
    """
    def build(obj, lineno, line):
        rec = _unsmoothed_record(obj, run_id="")
        if not obj.get("run_id"):
            raise FormatError(
                f"{path}: line {lineno} has no run_id; split copies lines as "
                f"they are, so each needs its own (ingest writes one)")
        return rec, line if line.endswith("\n") else line + "\n"

    return _parse_lines(path, build)


# -- filtering ----------------------------------------------------------------

def _slope_window(n_points: int) -> int:
    return int(math.ceil(SLOPE_WINDOW_FRAC * n_points))


def _max_window_slope(steps: np.ndarray, losses: np.ndarray, window: int) -> float:
    """Largest average slope over [i, i + window - 1]; -inf without a window."""
    if window < 2 or steps.size < window:
        return -np.inf
    w = window - 1
    dl = losses[w:] - losses[:-w]
    ds = steps[w:] - steps[:-w]
    return float(np.max(dl / ds))


def filter_runs(runs) -> tuple[list[RunRecord], list[tuple[RunRecord, str, str]]]:
    """Reject unfinished, diverged, and unstable runs.

    Rules, checked in order: (i) run not finished; (ii) final loss above the
    absolute divergence threshold, or more than a fixed gap above the best
    finished run at the same (N, D); (iii) the smoothed curve has some window
    of ceil(5% of logged points) whose average slope exceeds +0.001 per step.
    Returns (kept, rejected) with each rejection tagged by rule code + detail.
    """
    runs = list(runs)
    best_at_nd: dict[tuple[float, float], float] = {}
    for r in runs:
        if r.finished and r.final_loss is not None:
            key = nd_key(r.config)
            if key not in best_at_nd or r.final_loss < best_at_nd[key]:
                best_at_nd[key] = r.final_loss

    kept: list[RunRecord] = []
    rejected: list[tuple[RunRecord, str, str]] = []
    for r in runs:
        if not r.finished:
            rejected.append((r, RULE_UNFINISHED, "run did not finish"))
            continue
        loss = r.final_loss
        if loss is not None and loss > DIVERGENCE_LOSS:
            rejected.append(
                (r, RULE_DIVERGED, f"final loss {loss:.4f} > {DIVERGENCE_LOSS}")
            )
            continue
        best = best_at_nd.get(nd_key(r.config))
        if loss is not None and best is not None and loss > best + GROUP_GAP:
            rejected.append(
                (r, RULE_DIVERGED,
                 f"final loss {loss:.4f} exceeds group best {best:.4f} + {GROUP_GAP}")
            )
            continue
        if r.has_curve:
            window = _slope_window(len(r.smoothed))
            slope = _max_window_slope(r.steps, r.smoothed, window)
            if slope > SLOPE_LIMIT:
                rejected.append(
                    (r, RULE_UNSTABLE,
                     f"window slope {slope:.3e} > {SLOPE_LIMIT} per step")
                )
                continue
        kept.append(r)
    return kept, rejected


# -- splitting ----------------------------------------------------------------

def split_dataset(
    runs,
    ood_threshold_n: float = OOD_THRESHOLD_N,
    ratio: float = TRAIN_RATIO,
    seed: int = 0,
) -> DatasetSplits:
    """Split filtered runs into train / id_val / ood_val.

    Runs with N above the threshold all go to ood_val. The rest are grouped
    by (optimizer, N, D) and whole groups are dealt to train or id_val by a
    seeded permutation targeting ``ratio`` over groups, with both sides kept
    nonempty. A ratio outside the open interval (0, 1), NaN included, raises
    SplitError.
    """
    if not 0.0 < ratio < 1.0:
        raise SplitError(f"split ratio must lie in (0, 1), got {ratio!r}")
    runs = list(runs)
    ood = [r for r in runs if r.config.model_size_n > ood_threshold_n]
    rest = [r for r in runs if r.config.model_size_n <= ood_threshold_n]

    groups: dict[tuple, list[RunRecord]] = {}
    for r in rest:
        groups.setdefault(group_key(r.config), []).append(r)
    keys = sorted(groups)
    if len(keys) < 2:
        raise SplitError(
            f"need at least 2 (optimizer, N, D) groups below the OOD threshold, got {len(keys)}"
        )

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(keys))
    n_train = int(round(ratio * len(keys)))
    n_train = max(1, min(len(keys) - 1, n_train))
    train_keys = {keys[i] for i in perm[:n_train]}

    train: list[RunRecord] = []
    id_val: list[RunRecord] = []
    for key in keys:
        (train if key in train_keys else id_val).extend(groups[key])
    return DatasetSplits(
        train=train, id_val=id_val, ood_val=ood,
        ood_threshold_n=ood_threshold_n, ratio=ratio, seed=seed,
    )


def write_split_manifest(splits: DatasetSplits, out_dir: str | os.PathLike) -> list[str]:
    """Write one run_id file per split with a reproducibility header; returns paths.

    Rejection counts are not repeated here: ingest's ``rejected.jsonl`` holds them.
    """
    os.makedirs(out_dir, exist_ok=True)
    header = (
        f"# seed={splits.seed} ood_threshold_n={splits.ood_threshold_n:g} "
        f"ratio={splits.ratio:g}\n"
    )
    paths = []
    for name, records in (
        ("train", splits.train), ("id_val", splits.id_val), ("ood_val", splits.ood_val)
    ):
        path = os.path.join(out_dir, f"{name}.ids")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header)
            for r in records:
                fh.write(r.run_id + "\n")
        paths.append(path)
    return paths
