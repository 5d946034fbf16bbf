"""Neural residual regressor over configuration fields.

Each categorical field owns an embedding table; each numerical field is
mapped scalar -> d_e through a small two-layer feed-forward encoder (shared
shape, separate weights, evaluated for all fields at once via broadcasting).
The concatenated field embeddings feed an L-layer GELU trunk and a linear
head that predicts the residual of the observed loss against a Chinchilla
baseline. Training is plain minibatch MSE with an in-house AdamW (decoupled
weight decay), linear warmup then linear decay to zero, in two stages: stage
1 trains encoders and head with the trunk frozen, stage 2 trains everything,
optimizer state reset in between. All arithmetic is 64-bit; forward, backward
and the update rule are hand-written numpy.

Numerical slots are additionally standardized inside the model using training
-set statistics (stored as buffers in the checkpoint); canonical scale factors
alone leave fields on wildly different ranges, which stalls first-order
training at desk scale. Before standardizing, each numerical slot is clipped
into the [min, max] range it spanned in those same rows (also buffers), so the
residual never extrapolates: a config beyond the training range predicts the
residual of the range edge. Extrapolation in model and data size is the
Chinchilla baseline's job; the MLP only carries the configuration effects the
baseline cannot explain. Training rows lie inside the range, so clipping leaves
training untouched.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import ScopeError, TrainingError
from .features import encode_batch
from .ingest import DatasetSplits, RunRecord
from .lawfit import ChinchillaFit, ChinchillaPredictor, Scope
from .schema import CATEGORICAL, NUMERICAL, RunConfig, Schema, SchemaError

CHECKPOINT_FORMAT = "losscast-checkpoint-2"
MAX_CURVE_CHECKPOINTS = 30

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x / _SQRT2))


def gelu(x: np.ndarray) -> np.ndarray:
    return x * norm_cdf(x)


def gelu_grad(x: np.ndarray, cdf: np.ndarray | None = None) -> np.ndarray:
    if cdf is None:
        cdf = norm_cdf(x)
    return cdf + x * _INV_SQRT_2PI * np.exp(-0.5 * x * x)


@dataclass(frozen=True)
class Arch:
    d_emb: int = 32
    d_hid: int = 64
    trunk_layers: int = 4
    trunk_width: int = 256


@dataclass
class StagePlan:
    epochs: int
    peak_lr: float
    warmup_ratio: float | None = None
    warmup_steps: int | None = None

    def validate(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not self.peak_lr > 0:
            raise ValueError("peak_lr must be positive")
        if self.warmup_ratio is not None and not 0 <= self.warmup_ratio <= 1:
            raise ValueError("warmup_ratio must lie in [0, 1]")


@dataclass
class TrainPlan:
    """Two-stage schedule. Stage 1 trains encoders + head (trunk frozen);
    stage 2 trains all parameters. Absolute warmup_steps are capped at 10%
    of the stage's total steps."""

    stage1: StagePlan
    stage2: StagePlan
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01
    batch_size: int = 480
    seed: int = 0

    @classmethod
    def final_default(cls) -> "TrainPlan":
        return cls(
            stage1=StagePlan(epochs=20, peak_lr=6e-3, warmup_ratio=0.1),
            stage2=StagePlan(epochs=200, peak_lr=1.5e-3, warmup_steps=1000),
        )

    @classmethod
    def curve_default(cls) -> "TrainPlan":
        # curve datasets carry ~30 rows per run, so bigger batches and fewer
        # passes keep wall time in check; stage-2 epochs are capped at 200
        # because longer runs overfit in-distribution residuals and degrade
        # extrapolation to larger model sizes
        return cls(
            stage1=StagePlan(epochs=10, peak_lr=6e-3, warmup_ratio=0.1),
            stage2=StagePlan(epochs=200, peak_lr=1.5e-3, warmup_steps=1000),
            batch_size=960,
        )

    def validate(self):
        self.stage1.validate()
        self.stage2.validate()
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def parameter_shapes(schema: Schema, arch: Arch) -> tuple[dict, dict]:
    """Shapes of every parameter and buffer block of a model over this schema
    and arch, keyed as in ``RegressorModel.params`` and ``.buffers``."""
    de, dh, w = arch.d_emb, arch.d_hid, arch.trunk_width
    fn = sum(1 for s in schema.specs if s.kind == NUMERICAL)
    shapes: dict[str, tuple] = {}
    for s in schema.specs:
        if s.kind == CATEGORICAL:
            shapes[f"emb_{s.name}"] = (len(s.vocabulary), de)
    shapes.update(num_w1=(fn, dh), num_b1=(fn, dh), num_w2=(fn, dh, de), num_b2=(fn, de))
    d_in = len(schema.specs) * de
    for i in range(arch.trunk_layers):
        shapes[f"trunk_w{i}"] = (d_in, w)
        shapes[f"trunk_b{i}"] = (w,)
        d_in = w
    shapes.update(head_w=(w, 1), head_b=(1,))
    buffer_shapes = {k: (fn,) for k in ("num_mean", "num_std", "num_min", "num_max")}
    return shapes, buffer_shapes


class RegressorModel:
    """Parameter container plus hand-written forward/backward."""

    def __init__(self, schema: Schema, arch: Arch = Arch(), seed: int = 0):
        """A freshly initialised model: parameters drawn from ``seed``."""
        self._set_layout(schema, arch, seed)
        shapes, buffer_shapes = parameter_shapes(schema, arch)
        rng = np.random.default_rng(seed)
        de, dh = arch.d_emb, arch.d_hid
        p: dict[str, np.ndarray] = {}
        for s in self.cat_fields:
            lim = 1.0 / math.sqrt(de)
            p[f"emb_{s.name}"] = rng.uniform(-lim, lim, size=shapes[f"emb_{s.name}"])
        p["num_w1"] = rng.uniform(-1.0, 1.0, size=shapes["num_w1"])
        p["num_b1"] = np.zeros(shapes["num_b1"])
        p["num_w2"] = rng.uniform(-1.0 / math.sqrt(dh), 1.0 / math.sqrt(dh),
                                  size=shapes["num_w2"])
        p["num_b2"] = np.zeros(shapes["num_b2"])
        for i in range(arch.trunk_layers):
            w_shape = shapes[f"trunk_w{i}"]
            lim = 1.0 / math.sqrt(w_shape[0])
            p[f"trunk_w{i}"] = rng.uniform(-lim, lim, size=w_shape)
            p[f"trunk_b{i}"] = np.zeros(shapes[f"trunk_b{i}"])
        p["head_w"] = np.zeros(shapes["head_w"])
        p["head_b"] = np.zeros(shapes["head_b"])
        self.params = p
        self.buffers = {
            "num_mean": np.zeros(buffer_shapes["num_mean"]),
            "num_std": np.ones(buffer_shapes["num_std"]),
            "num_min": np.full(buffer_shapes["num_min"], -np.inf),
            "num_max": np.full(buffer_shapes["num_max"], np.inf),
        }

    @classmethod
    def from_arrays(cls, schema: Schema, arch: Arch, seed: int,
                    params: dict[str, np.ndarray],
                    buffers: dict[str, np.ndarray]) -> "RegressorModel":
        """A model over given arrays, with no random draw; the caller checks
        their keys and shapes against ``parameter_shapes``."""
        model = cls.__new__(cls)
        model._set_layout(schema, arch, seed)
        model.params = params
        model.buffers = buffers
        return model

    def _set_layout(self, schema: Schema, arch: Arch, seed: int):
        self.schema = schema
        self.arch = arch
        self.rng_seed = seed
        self.num_fields = [s for s in schema.specs if s.kind == NUMERICAL]
        self.cat_fields = [s for s in schema.specs if s.kind == CATEGORICAL]
        # schema-order layout of the trunk input: ("num", j) or ("cat", k) per field
        self.layout: list[tuple[str, int]] = []
        nj = ck = 0
        for s in schema.specs:
            if s.kind == NUMERICAL:
                self.layout.append(("num", nj))
                nj += 1
            else:
                self.layout.append(("cat", ck))
                ck += 1

    # -- bookkeeping -----------------------------------------------------

    def n_params(self) -> int:
        return int(sum(v.size for v in self.params.values()))

    def trunk_keys(self) -> list[str]:
        return [k for k in self.params if k.startswith("trunk_")]

    def stage1_keys(self) -> list[str]:
        return [k for k in self.params if not k.startswith("trunk_")]

    def set_standardization(self, x_num: np.ndarray):
        """Standardize numerical slots with these rows' mean and std, and hold
        later inputs to the [min, max] range the rows span."""
        self.buffers["num_mean"] = x_num.mean(axis=0)
        std = x_num.std(axis=0)
        self.buffers["num_std"] = np.where(std < 1e-8, 1.0, std)
        self.buffers["num_min"] = x_num.min(axis=0)
        self.buffers["num_max"] = x_num.max(axis=0)

    # -- forward / backward ------------------------------------------------

    def forward_batch(self, x_num, x_cat, want_cache: bool = False):
        self._check_shapes(x_num, x_cat)
        p = self.params
        buf = self.buffers
        x_num = np.clip(x_num, buf["num_min"], buf["num_max"])
        xs = (x_num - buf["num_mean"]) / buf["num_std"]
        pre1 = xs[:, :, None] * p["num_w1"][None, :, :] + p["num_b1"][None, :, :]
        cdf1 = norm_cdf(pre1)
        h1 = pre1 * cdf1
        # (F, B, H) @ (F, H, E) -> (F, B, E); stacked matmul hits BLAS per field
        enc = np.matmul(h1.transpose(1, 0, 2), p["num_w2"]).transpose(1, 0, 2)
        enc = enc + p["num_b2"][None, :, :]

        blocks = []
        for kind, j in self.layout:
            if kind == "num":
                blocks.append(enc[:, j, :])
            else:
                name = self.cat_fields[j].name
                blocks.append(p[f"emb_{name}"][x_cat[:, j]])
        z = np.concatenate(blocks, axis=1)

        pre_acts, cdfs, acts = [], [], [z]
        for i in range(self.arch.trunk_layers):
            a = acts[-1] @ p[f"trunk_w{i}"] + p[f"trunk_b{i}"]
            cdf = norm_cdf(a)
            pre_acts.append(a)
            cdfs.append(cdf)
            acts.append(a * cdf)
        out = (acts[-1] @ p["head_w"] + p["head_b"])[:, 0]
        if not want_cache:
            return out
        cache = {"xs": xs, "pre1": pre1, "cdf1": cdf1, "h1": h1, "x_cat": x_cat,
                 "pre_acts": pre_acts, "cdfs": cdfs, "acts": acts}
        return out, cache

    def backward_batch(self, out, targets, cache, skip: set[str] = frozenset()):
        """Gradients of mean squared error over the batch.

        ``skip`` names parameter blocks whose gradients are not needed
        (frozen); backpropagation still flows through them.
        """
        p = self.params
        b = out.shape[0]
        grads: dict[str, np.ndarray] = {}
        dout = (2.0 / b) * (out - targets)

        acts, pre_acts = cache["acts"], cache["pre_acts"]
        if "head_w" not in skip:
            grads["head_w"] = acts[-1].T @ dout[:, None]
            grads["head_b"] = np.array([dout.sum()])
        dz = dout[:, None] @ p["head_w"].T
        for i in reversed(range(self.arch.trunk_layers)):
            da = dz * gelu_grad(pre_acts[i], cache["cdfs"][i])
            if f"trunk_w{i}" not in skip:
                grads[f"trunk_w{i}"] = acts[i].T @ da
                grads[f"trunk_b{i}"] = da.sum(axis=0)
            dz = da @ p[f"trunk_w{i}"].T

        de = self.arch.d_emb
        dnum = np.empty((b, len(self.num_fields), de))
        for pos, (kind, j) in enumerate(self.layout):
            block = dz[:, pos * de:(pos + 1) * de]
            if kind == "num":
                dnum[:, j, :] = block
            else:
                name = self.cat_fields[j].name
                key = f"emb_{name}"
                if key not in skip:
                    g = np.zeros_like(p[key])
                    np.add.at(g, cache["x_cat"][:, j], block)
                    grads[key] = g

        if "num_w1" not in skip:
            dnum_f = dnum.transpose(1, 0, 2)        # (F, B, E)
            grads["num_w2"] = np.matmul(cache["h1"].transpose(1, 2, 0), dnum_f)
            grads["num_b2"] = dnum.sum(axis=0)
            dh1 = np.matmul(dnum_f, p["num_w2"].transpose(0, 2, 1)).transpose(1, 0, 2)
            dpre1 = dh1 * gelu_grad(cache["pre1"], cache["cdf1"])
            grads["num_w1"] = (cache["xs"][:, :, None] * dpre1).sum(axis=0)
            grads["num_b1"] = dpre1.sum(axis=0)
        return grads

    def _check_shapes(self, x_num, x_cat):
        if x_num.shape[1] != len(self.num_fields) or x_cat.shape[1] != len(self.cat_fields):
            raise ValueError(
                f"feature arrays ({x_num.shape[1]} numerical, {x_cat.shape[1]} "
                f"categorical) do not match the model's schema "
                f"({len(self.num_fields)}, {len(self.cat_fields)})"
            )
        for j, s in enumerate(self.cat_fields):
            hi = int(x_cat[:, j].max(initial=0))
            if hi >= len(s.vocabulary):
                raise ValueError(f"categorical index {hi} out of range for '{s.name}'")


# -- optimizer -------------------------------------------------------------------

def adamw_init_state(params: dict, keys) -> dict:
    return {
        "t": 0,
        "m": {k: np.zeros_like(params[k]) for k in keys},
        "v": {k: np.zeros_like(params[k]) for k in keys},
    }


def adamw_step(params, grads, state, lr, beta1=0.9, beta2=0.999,
               epsilon=1e-8, weight_decay=0.0):
    """Decoupled-weight-decay Adam update, applied in place to the state's keys.

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + lambda * p)
    """
    keys = list(state["m"])
    for k in keys:
        if not np.all(np.isfinite(grads[k])):
            raise TrainingError(f"non-finite gradient in parameter block '{k}'")
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for k in keys:
        g = grads[k]
        m = state["m"][k]
        v = state["v"][k]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        params[k] -= lr * (m_hat / (np.sqrt(v_hat) + epsilon) + weight_decay * params[k])
    return params, state


def lr_schedule(step: int, total_steps: int, peak_lr: float, warmup_steps: int) -> float:
    """Linear warmup to peak, then linear decay to exactly 0 at the last step."""
    if total_steps <= 0:
        return 0.0
    w = max(0, min(warmup_steps, total_steps - 1))
    if step < w:
        return peak_lr * (step + 1) / w
    if total_steps - 1 == w:
        return peak_lr
    return peak_lr * (total_steps - 1 - step) / (total_steps - 1 - w)


# -- training -----------------------------------------------------------------

@dataclass
class TrainReport:
    n_params: int = 0
    train_mse: list = field(default_factory=list)       # (stage, epoch, mse)
    val_mae: list = field(default_factory=list)         # (stage, epoch, mae)
    stage_final_mse: dict = field(default_factory=dict)
    aborted: bool = False
    abort_reason: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def build_training_rows(
    records: list[RunRecord],
    baseline: ChinchillaPredictor,
    schema: Schema,
    target_kind: str = "final",
    max_checkpoints: int = MAX_CURVE_CHECKPOINTS,
):
    """Feature arrays + residual targets for a record list.

    final mode: one row per record, target = final loss - baseline(N, D).
    curve mode: up to ``max_checkpoints`` evenly spaced smoothed-curve samples
    per record (plus a frac=1 row for curveless records), residuals taken
    against the baseline at the full (N, D).
    """
    fvs, ys = [], []
    records = [r for r in records if r.final_loss is not None]
    bases = baseline.predict_final_loss_batch([r.config for r in records])
    for r, base in zip(records, bases):
        if target_kind == "final":
            fvs.append(schema.canonicalize(r.config))
            ys.append(r.final_loss - base)
        elif target_kind == "curve":
            if r.has_curve:
                k = min(max_checkpoints, len(r.smoothed))
                idx = np.unique(np.round(np.linspace(0, len(r.smoothed) - 1, k)).astype(int))
                total = r.config.total_steps
                for i in idx:
                    frac = min(1.0, max(r.steps[i] / total, 1e-9))
                    fvs.append(schema.canonicalize(r.config, frac=frac))
                    ys.append(r.smoothed[i] - base)
            else:
                fvs.append(schema.canonicalize(r.config, frac=1.0))
                ys.append(r.final_loss - base)
        else:
            raise ValueError(f"unknown target_kind '{target_kind}'")
    x_num, x_cat = encode_batch(schema, fvs)
    return x_num, x_cat, np.asarray(ys, dtype=np.float64)


def _resolve_warmup(stage: StagePlan, total_steps: int) -> int:
    if stage.warmup_steps is not None:
        return min(stage.warmup_steps, int(0.1 * total_steps))
    if stage.warmup_ratio is not None:
        return int(round(stage.warmup_ratio * total_steps))
    return 0


def _run_stage(
    model: RegressorModel,
    stage: StagePlan,
    plan: TrainPlan,
    trainable: list[str],
    data,
    rng,
    report: TrainReport,
    stage_name: str,
    val=None,
):
    x_num, x_cat, y = data
    n = y.shape[0]
    bs = min(plan.batch_size, n)
    steps_per_epoch = math.ceil(n / bs)
    total = stage.epochs * steps_per_epoch
    if total == 0:
        return
    warmup = _resolve_warmup(stage, total)
    state = adamw_init_state(model.params, trainable)
    skip = set(model.params) - set(trainable)
    t = 0
    last_mse = math.nan
    for epoch in range(stage.epochs):
        perm = rng.permutation(n)
        sq_sum = 0.0
        for s0 in range(0, n, bs):
            sel = perm[s0:s0 + bs]
            out, cache = model.forward_batch(x_num[sel], x_cat[sel], want_cache=True)
            err = out - y[sel]
            loss = float(np.mean(err * err))
            if not math.isfinite(loss):
                report.aborted = True
                report.abort_reason = (
                    f"non-finite loss at {stage_name} epoch {epoch} step {t}; "
                    "parameters kept from the last finite step"
                )
                return
            sq_sum += loss * sel.shape[0]
            grads = model.backward_batch(out, y[sel], cache, skip=skip)
            try:
                adamw_step(
                    model.params, grads, state, lr_schedule(t, total, stage.peak_lr, warmup),
                    beta1=plan.beta1, beta2=plan.beta2,
                    epsilon=plan.epsilon, weight_decay=plan.weight_decay,
                )
            except TrainingError as exc:
                report.aborted = True
                report.abort_reason = f"{exc} at {stage_name} epoch {epoch} step {t}"
                return
            t += 1
        last_mse = sq_sum / n
        report.train_mse.append((stage_name, epoch, last_mse))
        if val is not None:
            vx_num, vx_cat, vy = val
            pred = model.forward_batch(vx_num, vx_cat)
            report.val_mae.append(
                (stage_name, epoch, float(np.mean(np.abs(pred - vy))))
            )
    report.stage_final_mse[stage_name] = last_mse


def train(
    splits: DatasetSplits,
    plan: TrainPlan,
    baselines: dict[Scope, ChinchillaFit],
    target_kind: str = "final",
    schema: Schema | None = None,
    arch: Arch = Arch(),
    max_checkpoints: int = MAX_CURVE_CHECKPOINTS,
) -> "TrainedPredictor":
    """Two-stage training on residual targets; baselines must come from
    splits.train only."""
    plan.validate()
    if schema is None:
        schema = Schema.default(include_frac=(target_kind == "curve"))
        schema = schema.with_vocab_from(
            r.config for r in splits.train + splits.id_val + splits.ood_val
        )
    baseline = ChinchillaPredictor(baselines)
    data = build_training_rows(
        splits.train, baseline, schema, target_kind, max_checkpoints
    )
    if data[2].size == 0:
        raise TrainingError("no usable training rows")
    val = None
    if splits.id_val:
        val = build_training_rows(
            splits.id_val, baseline, schema, target_kind, max_checkpoints
        )

    model = RegressorModel(schema, arch, seed=plan.seed)
    model.set_standardization(data[0])
    report = TrainReport(n_params=model.n_params())
    rng = np.random.default_rng(plan.seed + 1)

    trunk_before = {k: model.params[k].copy() for k in model.trunk_keys()}
    _run_stage(model, plan.stage1, plan, model.stage1_keys(), data, rng, report,
               "stage1", val)
    for k, v in trunk_before.items():
        if not np.array_equal(v, model.params[k]):
            raise TrainingError(f"trunk block '{k}' changed during stage 1")

    if not report.aborted:
        _run_stage(model, plan.stage2, plan, list(model.params), data, rng, report,
                   "stage2", val)
    return TrainedPredictor(
        model=model, baselines=dict(baselines), target_kind=target_kind, report=report
    )


# -- the trained predictor -----------------------------------------------------

class TrainedPredictor:
    """Regressor + its Chinchilla baselines; predicts losses, not residuals."""

    def __init__(self, model: RegressorModel, baselines: dict[Scope, ChinchillaFit],
                 target_kind: str, report: TrainReport):
        self.model = model
        self.baselines = baselines
        self.target_kind = target_kind
        self.report = report
        self._chinchilla = ChinchillaPredictor(baselines)

    def _residuals(self, configs: list[RunConfig], fracs: list) -> np.ndarray:
        """One forward pass over every (config, frac) row."""
        schema = self.model.schema
        fvs = [schema.canonicalize(c, frac=f) for c, f in zip(configs, fracs)]
        x_num, x_cat = encode_batch(schema, fvs)
        return self.model.forward_batch(x_num, x_cat)

    # residual-space queries
    def predict_residual(self, config: RunConfig, frac: float | None = None) -> float:
        if self.target_kind == "curve":
            frac = 1.0 if frac is None else frac
        elif frac is not None:
            raise ValueError("final-loss model takes no frac")
        return float(self._residuals([config], [frac])[0])

    def predict_final_loss(self, config: RunConfig) -> float:
        return float(self.predict_final_loss_batch([config])[0])

    def predict_final_loss_batch(self, configs: list[RunConfig]) -> np.ndarray:
        frac = 1.0 if self.target_kind == "curve" else None
        res = self._residuals(configs, [frac] * len(configs))
        return self._chinchilla.predict_final_loss_batch(configs) + res

    def predict_curve(self, config: RunConfig, fracs) -> list[tuple[int, float]]:
        if self.target_kind != "curve":
            raise ValueError("model was not trained for curve prediction")
        fracs = [float(f) for f in fracs]
        if any(not 0.0 < f <= 1.0 for f in fracs):
            raise ValueError("fracs must lie in (0, 1]")
        res = self._residuals([config] * len(fracs), fracs)
        base = self._chinchilla.predict_final_loss(config)
        return [
            (int(round(f * config.total_steps)), float(base + r))
            for f, r in zip(fracs, res)
        ]

    # -- checkpointing --------------------------------------------------------

    def save(self, path: str) -> None:
        """Deterministic checkpoint: identical predictor -> identical bytes."""
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "schema": self.model.schema.dump(),
            "schema_hash": self.model.schema.schema_hash(),
            "arch": dataclasses.asdict(self.model.arch),
            "rng_seed": self.model.rng_seed,
            "target_kind": self.target_kind,
            "n_params": self.model.n_params(),
            "param_keys": sorted(self.model.params),
            "buffer_keys": sorted(self.model.buffers),
            "baselines": [f.to_dict() for _, f in sorted(
                self.baselines.items(), key=lambda kv: (kv[0].source, kv[0].optimizer or "")
            )],
            "report": self.report.to_dict(),
        }
        stamp = (1980, 1, 1, 0, 0, 0)
        with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
            def put(name: str, payload: bytes):
                info = zipfile.ZipInfo(name, date_time=stamp)
                zf.writestr(info, payload)

            put("manifest.json", json.dumps(manifest, sort_keys=True, indent=1).encode())
            for key in sorted(self.model.params):
                buf = io.BytesIO()
                np.save(buf, self.model.params[key])
                put(f"params/{key}.npy", buf.getvalue())
            for key in sorted(self.model.buffers):
                buf = io.BytesIO()
                np.save(buf, self.model.buffers[key])
                put(f"buffers/{key}.npy", buf.getvalue())

    @classmethod
    def load(cls, path: str) -> "TrainedPredictor":
        with zipfile.ZipFile(path, "r") as zf:
            manifest = json.loads(zf.read("manifest.json"))
            if manifest.get("format") != CHECKPOINT_FORMAT:
                raise SchemaError(f"unknown checkpoint format {manifest.get('format')!r}")
            schema = Schema.from_dump(manifest["schema"])
            if schema.schema_hash() != manifest["schema_hash"]:
                raise SchemaError("checkpoint schema hash mismatch")
            check_schema_compatible(schema)
            arch = Arch(**manifest["arch"])
            shapes, buffer_shapes = parameter_shapes(schema, arch)
            model = RegressorModel.from_arrays(
                schema, arch, manifest["rng_seed"],
                params=_read_blocks(zf, "params", manifest["param_keys"], shapes),
                buffers=_read_blocks(zf, "buffers", manifest["buffer_keys"], buffer_shapes),
            )
            baselines = {}
            for d in manifest["baselines"]:
                fit = ChinchillaFit.from_dict(d)
                baselines[fit.scope] = fit
            report = TrainReport(**manifest["report"])
            report.train_mse = [tuple(x) for x in report.train_mse]
            report.val_mae = [tuple(x) for x in report.val_mae]
        return cls(model=model, baselines=baselines,
                   target_kind=manifest["target_kind"], report=report)


def _read_blocks(zf: zipfile.ZipFile, folder: str, keys: list[str],
                 want: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Arrays under ``folder/`` for exactly the keys and shapes of ``want``."""
    if sorted(keys) != sorted(want):
        raise SchemaError(
            f"checkpoint {folder} {sorted(keys)} do not match the model's {sorted(want)}"
        )
    out = {}
    for key in want:
        try:
            arr = np.load(io.BytesIO(zf.read(f"{folder}/{key}.npy")))
        except KeyError:
            raise SchemaError(f"checkpoint lacks '{folder}/{key}.npy'") from None
        if arr.shape != want[key]:
            raise SchemaError(
                f"checkpoint {folder} '{key}' has shape {arr.shape}, "
                f"the model expects {want[key]}"
            )
        out[key] = arr
    return out


def check_schema_compatible(schema: Schema) -> None:
    """A saved model (checkpoint or GBT dump) loads only if its field table
    (names, kinds, scale factors) matches the current one; vocabularies may
    extend the defaults."""
    current = Schema.default(include_frac=schema.include_frac)
    got = [(s.name, s.kind, s.scale_factor) for s in schema.specs]
    want = [(s.name, s.kind, s.scale_factor) for s in current.specs]
    if got != want:
        raise SchemaError(
            "saved field table does not match this build's schema "
            f"(version {schema.version} vs {current.version})"
        )
    for s, cur in zip(schema.specs, current.specs):
        if s.kind == CATEGORICAL and tuple(s.vocabulary[: len(cur.vocabulary)]) != cur.vocabulary:
            raise SchemaError(f"saved vocabulary for '{s.name}' conflicts with this build")
