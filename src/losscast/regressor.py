"""Neural residual regressor over configuration fields.

Each categorical field owns an embedding table; each numerical field is
mapped scalar -> d_e through a small two-layer feed-forward encoder (shared
shape, separate weights; the first layer evaluated for all fields at once).
The concatenated field embeddings feed an L-layer GELU trunk and a linear
head that predicts the residual of the observed loss against a Chinchilla
baseline. Training is plain minibatch MSE with an in-house AdamW (decoupled
weight decay), linear warmup then linear decay to zero, in two stages: stage
1 trains encoders and head with the trunk frozen, stage 2 trains everything,
optimizer state reset in between. All arithmetic is 64-bit; forward, backward
and the update rule are hand-written numpy.

A batch repeats few values per numerical field (a curve run's rows share one
config), so the encoder's elementwise part -- its first layer, GELU and, in
backward, the GELU derivative -- runs once per distinct value of each field
(by bit pattern). Then, one field at a time, a numerical field's activations
are gathered back to the batch and multiplied straight into its columns of the
trunk input, a categorical field's embedding rows are copied into its columns,
and backward fills each field's gradients from its columns of the trunk
input's gradient. Elementwise arithmetic and a field's own matmul give the
same bits as over all fields at once, and batch sums keep batch order, so
outputs, gradients and checkpoints are bit-identical to evaluating every row.
A training step writes into buffers the model keeps from step to step, with
every operation in its original order. It keeps only what backward reads: the
trunk input and each trunk layer's output and GELU derivative, the latter
computed in forward right after the layer's cdf. The layers' pre-activations
and cdfs share two buffers, and backward forms each layer's activation gradient
in the pre-activation's. A step's gradients are freed once AdamW has applied
them. An inference pass writes into its own buffers, freed when it returns,
holding the trunk input and two layer arrays: the pre-activation, and the cdf
that the layer's output overwrites. At an epoch's end, a validation pass with
no more rows than a step runs in the step's buffers; a larger one runs in its
own, after the step's are freed (the next step allocates them afresh). Either
way training holds the step's working set or the validation pass's, never
both. AdamW updates each parameter block a chunk of at most ``ADAMW_CHUNK``
elements at a time, in two chunk-sized scratch rows.

A prediction is a function of its config alone. OpenBLAS rounds a matmul by its
row count: a pass of a few rows takes other kernels than a larger one, and the
head's matrix-vector product rounds otherwise at a row count that is not a
multiple of 4. So every prediction pass (``TrainedPredictor._residuals``) is
padded with copies of its first row to a multiple of ``PAD_ROWS`` rows, and
the copies' outputs are dropped; a config then gets the same bits alone, in
any batch or in a whole file. Training and validation passes are not padded:
their row counts are fixed by the plan and the split, and the validation MAE
goes into the checkpoint manifest, so checkpoints keep the bytes they had.

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

from .errors import TrainingError
from .features import encode_batch
from .ingest import DatasetSplits, RunRecord
from .lawfit import ChinchillaPredictor
from .schema import NUMERICAL, RunConfig, Schema, SchemaError, check_types, read_saved

CHECKPOINT_FORMAT = "losscast-checkpoint-2"
MAX_CURVE_CHECKPOINTS = 30
# a prediction pass has a multiple of this many rows, padded if need be
PAD_ROWS = 8

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def norm_cdf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (1 + erf(x / sqrt 2)), written into ``out`` if given."""
    out = np.divide(x, _SQRT2, out=out)
    erf(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def gelu_grad(x: np.ndarray, cdf: np.ndarray, out: np.ndarray | None = None,
              work: np.ndarray | None = None) -> np.ndarray:
    """d/dx of x * norm_cdf(x), given ``cdf`` = norm_cdf(x): cdf + x * phi(x).
    Written into ``out`` if given; ``work``, of x's shape, is overwritten."""
    out = np.multiply(x, _INV_SQRT_2PI, out=out)
    work = np.multiply(x, -0.5, out=work)
    work *= x
    np.exp(work, out=work)
    out *= work
    out += cdf
    return out


def _distinct_per_field(xs: np.ndarray):
    """The distinct values of each column of ``xs`` by bit pattern, found for
    all columns in one sort, so -0.0 and +0.0 stay apart.

    Returns ``(values, field, index)``: the distinct values column after
    column, the column of each, and for every entry of ``xs`` the position of
    its value in ``values``."""
    bits = xs.view(np.int64)
    order = np.argsort(bits, axis=0)
    cols = np.arange(xs.shape[1])
    ranked = bits[order, cols].T                # each column sorted, as a row
    new = np.empty(ranked.shape, dtype=bool)    # first of its value in the row
    new[:, :1] = True
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=new[:, 1:])
    index = np.empty_like(order)
    index[order, cols] = (np.cumsum(new) - 1).reshape(new.shape).T
    return ranked[new].view(np.float64), np.nonzero(new)[0], index


class _Scratch:
    """Float64 work arrays by name (the trunk input and its gradient, the
    shared pre-activation and cdf, each layer's output and GELU derivative, one
    field's (batch, hidden) blocks), each reused from call to call, grown to the
    largest size asked of it and handed out as C-ordered views. The model's
    own instance serves its training steps and any validation pass with no
    more rows than a step; ``clear`` frees its arrays before a larger
    validation pass, and the next step allocates them afresh."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def clear(self):
        self._flat.clear()

    def __call__(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


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

    def __post_init__(self):
        check_types(self, ValueError)
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not self.peak_lr > 0:
            raise ValueError("peak_lr must be positive")
        if self.warmup_ratio is not None and self.warmup_steps is not None:
            raise ValueError("a stage takes warmup_ratio or warmup_steps, not both")
        if self.warmup_ratio is not None and not 0 <= self.warmup_ratio <= 1:
            raise ValueError("warmup_ratio must lie in [0, 1]")
        if self.warmup_steps is not None and self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")


@dataclass
class TrainPlan:
    """Two-stage schedule. Stage 1 trains encoders + head (trunk frozen);
    stage 2 trains all parameters. A stage warms up by warmup_ratio or by
    warmup_steps, not both; absolute warmup_steps are capped at 10% of the
    stage's total steps."""

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

    def __post_init__(self):
        check_types(self, ValueError)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def parameter_shapes(schema: Schema, arch: Arch) -> tuple[dict, dict]:
    """Shapes of every parameter and buffer block of a model over this schema
    and arch, keyed as in ``RegressorModel.params`` and ``.buffers``."""
    de, dh, w = arch.d_emb, arch.d_hid, arch.trunk_width
    fn = len(schema.numerical_fields())
    shapes: dict[str, tuple] = {}
    for s in schema.categorical_fields():
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
        self._scratch = _Scratch()
        self.num_fields = schema.numerical_fields()
        self.cat_fields = schema.categorical_fields()
        # the trunk input holds d_emb columns per field, in schema order
        cols = [slice(i * arch.d_emb, (i + 1) * arch.d_emb) for i in range(len(schema.specs))]
        self.num_cols = [c for c, s in zip(cols, schema.specs) if s.kind == NUMERICAL]
        self.cat_cols = [c for c, s in zip(cols, schema.specs) if s.kind != NUMERICAL]
        self.emb_keys = [f"emb_{s.name}" for s in self.cat_fields]

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

    def forward_batch(self, x_num, x_cat, want_cache: bool = False,
                      in_step_buffers: bool = False):
        """Predicted residuals of a batch. With ``want_cache``, also the cache
        ``backward_batch`` reads: the trunk input and each layer's output and
        GELU derivative, besides the encoder's per-value arrays. It holds the
        model's step buffers, so it is valid until the model's next forward
        pass with ``want_cache`` or ``in_step_buffers``. An inference pass
        holds the trunk input, one pre-activation and one cdf, which each
        layer's output overwrites; it works in buffers of its own, freed when
        it returns, or with ``in_step_buffers`` in the step's, which it grows
        to its rows if it has more than a step."""
        self._check_shapes(x_num, x_cat)
        p = self.params
        buf = self.buffers
        # a training pass works in buffers reused from step to step; an
        # inference pass (validation, prediction) in its own, freed on return,
        # unless it is told to borrow the step's
        work = self._scratch if want_cache or in_step_buffers else _Scratch()
        b, de = x_num.shape[0], self.arch.d_emb
        x_num = np.clip(x_num, buf["num_min"], buf["num_max"])
        xs = (x_num - buf["num_mean"]) / buf["num_std"]
        # the encoder's elementwise part runs once per distinct field value;
        # elementwise arithmetic gives each entry the same bits either way
        values, field, index = _distinct_per_field(xs)
        pre1 = values[:, None] * p["num_w1"][field] + p["num_b1"][field]
        cdf1 = norm_cdf(pre1)
        hidden = pre1 * cdf1

        # the trunk input, written field by field into each field's columns
        z = work("z", (b, len(self.schema.specs) * de))
        for ix, w2, b2, cols in zip(index.T, p["num_w2"], p["num_b2"], self.num_cols):
            # a fresh (batch, hidden) gather per field, so none outlives the
            # loop; every index is in range by construction, so take skips
            # the check
            enc = np.matmul(hidden.take(ix, axis=0, mode="clip"), w2, out=z[:, cols])
            enc += b2
        for ix, key, cols in zip(x_cat.T, self.emb_keys, self.cat_cols):
            z[:, cols] = p[key].take(ix, axis=0)

        # every layer's pre-activation and cdf share two buffers; a training
        # pass keeps each layer's output and GELU derivative for backward, an
        # inference pass writes each output over its cdf
        acts, dgelus = [z], []
        for i in range(self.arch.trunk_layers):
            w = p[f"trunk_w{i}"]
            pre = np.matmul(acts[-1], w, out=work("pre", (b, w.shape[1])))
            pre += p[f"trunk_b{i}"]
            cdf = norm_cdf(pre, out=work("cdf", pre.shape))
            act = cdf
            if want_cache:
                # the output's buffer is gelu_grad's scratch until it is written
                act = work(f"act{i}", pre.shape)
                dgelus.append(gelu_grad(pre, cdf, out=work(f"dgelu{i}", pre.shape),
                                        work=act))
            acts.append(np.multiply(pre, cdf, out=act))
        out = (acts[-1] @ p["head_w"] + p["head_b"])[:, 0]
        if not want_cache:
            return out
        cache = {"xs": xs, "pre1": pre1, "cdf1": cdf1, "h": hidden, "index": index,
                 "x_cat": x_cat, "acts": acts, "dgelus": dgelus}
        return out, cache

    def backward_batch(self, out, targets, cache, skip: set[str] = frozenset()):
        """Gradients of mean squared error over the batch.

        ``skip`` names parameter blocks whose gradients are not needed
        (frozen); backpropagation still flows through them. Each layer's
        activation gradient is its output gradient times the GELU derivative
        the forward pass cached, formed in the forward pass's pre-activation
        buffer. The cache is only read, so one cache can be differentiated
        more than once.
        """
        p = self.params
        work = self._scratch
        b = out.shape[0]
        grads: dict[str, np.ndarray] = {}
        dout = (2.0 / b) * (out - targets)

        acts, dgelus = cache["acts"], cache["dgelus"]
        if "head_w" not in skip:
            grads["head_w"] = acts[-1].T @ dout[:, None]
            grads["head_b"] = np.array([dout.sum()])
        # each layer reads dz once, into da, so its own dz can take dz's place;
        # da takes the forward pass's pre-activation buffer, which the cache
        # does not hold
        dz = np.matmul(dout[:, None], p["head_w"].T, out=work("dz", (b, p["head_w"].shape[0])))
        for i in reversed(range(self.arch.trunk_layers)):
            w = p[f"trunk_w{i}"]
            da = np.multiply(dz, dgelus[i], out=work("pre", dgelus[i].shape))
            if f"trunk_w{i}" not in skip:
                grads[f"trunk_w{i}"] = acts[i].T @ da
                grads[f"trunk_b{i}"] = da.sum(axis=0)
            dz = np.matmul(da, w.T, out=work("dz", (b, w.shape[0])))

        de, dh = self.arch.d_emb, self.arch.d_hid
        for ix, key, cols in zip(cache["x_cat"].T, self.emb_keys, self.cat_cols):
            if key not in skip:
                # bincount adds each row's gradient in batch order, as np.add.at does
                rows = p[key].shape[0]
                slot = (ix[:, None] * de + np.arange(de)).ravel()
                grads[key] = np.bincount(slot, weights=dz[:, cols].ravel(),
                                         minlength=rows * de).reshape(rows, de)

        if "num_w1" not in skip:
            gw1, gb1, gw2, gb2 = (np.empty(p[k].shape)
                                  for k in ("num_w1", "num_b1", "num_w2", "num_b2"))
            hidden, index, xs = cache["h"], cache["index"], cache["xs"]
            dgelu1 = gelu_grad(cache["pre1"], cache["cdf1"])
            h, dh1, dpre1 = (work(name, (b, dh)) for name in ("h", "dh1", "dpre1"))
            for j, cols in enumerate(self.num_cols):
                dnum = dz[:, cols]
                hidden.take(index[:, j], axis=0, out=h, mode="clip")
                np.matmul(h.T, dnum, out=gw2[j])
                np.sum(dnum, axis=0, out=gb2[j])
                np.matmul(dnum, p["num_w2"][j].T, out=dh1)
                dgelu1.take(index[:, j], axis=0, out=dpre1, mode="clip")
                dpre1 *= dh1
                # dh1 is spent, so its buffer takes the product
                np.sum(np.multiply(xs[:, j, None], dpre1, out=dh1), axis=0, out=gw1[j])
                np.sum(dpre1, axis=0, out=gb1[j])
            grads.update(num_w1=gw1, num_b1=gb1, num_w2=gw2, num_b2=gb2)
        return grads

    def _check_shapes(self, x_num, x_cat):
        if x_num.shape[1] != len(self.num_fields) or x_cat.shape[1] != len(self.cat_fields):
            raise ValueError(
                f"feature arrays ({x_num.shape[1]} numerical, {x_cat.shape[1]} "
                f"categorical) do not match the model's schema "
                f"({len(self.num_fields)}, {len(self.cat_fields)})"
            )
        lows, highs = x_cat.min(axis=0, initial=0), x_cat.max(axis=0, initial=0)
        for s, lo, hi in zip(self.cat_fields, lows.tolist(), highs.tolist()):
            for index in (lo, hi):
                if not 0 <= index < len(s.vocabulary):
                    raise ValueError(f"categorical index {index} out of range for '{s.name}'")


# -- optimizer -------------------------------------------------------------------

# AdamW updates each block this many elements at a time, so that a chunk's
# parameters, moments, gradient and scratch rows stay in cache between its
# dozen passes
ADAMW_CHUNK = 16_384


def _chunks(shape: tuple):
    """Basic-index tuples that cut a block of ``shape`` into pieces of at most
    ``ADAMW_CHUNK`` elements: runs of whole rows where a row fits, else each
    row cut the same way. Basic indexing makes every piece a view, whatever
    the block's memory layout, so an update of the piece is one of the block."""
    inner = math.prod(shape[1:])
    if inner <= ADAMW_CHUNK:
        rows = ADAMW_CHUNK // max(inner, 1)
        for r in range(0, shape[0], rows):
            yield (slice(r, r + rows),)
    else:
        for r in range(shape[0]):
            for rest in _chunks(shape[1:]):
                yield (r, *rest)


def adamw_init_state(params: dict, keys) -> dict:
    keys = list(keys)
    return {
        "t": 0,
        "m": {k: np.zeros_like(params[k]) for k in keys},
        "v": {k: np.zeros_like(params[k]) for k in keys},
        "work": np.empty((2, ADAMW_CHUNK)),     # scratch for one chunk's update
    }


def adamw_step(params, grads, state, lr, beta1=0.9, beta2=0.999,
               epsilon=1e-8, weight_decay=0.0):
    """Decoupled-weight-decay Adam update, applied in place to the state's keys,
    one chunk of each block at a time.

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
        block = params[k]
        for ix in _chunks(block.shape):
            g = grads[k][ix]
            m = state["m"][k][ix]
            v = state["v"][k][ix]
            p = block[ix]
            step, tmp = (w[:g.size].reshape(g.shape) for w in state["work"])
            m *= beta1
            m += np.multiply(g, 1.0 - beta1, out=tmp)
            v *= beta2
            np.multiply(g, 1.0 - beta2, out=tmp)
            tmp *= g
            v += tmp
            np.divide(m, bc1, out=step)     # m_hat
            np.divide(v, bc2, out=tmp)      # v_hat
            np.sqrt(tmp, out=tmp)
            tmp += epsilon
            step /= tmp
            step += np.multiply(p, weight_decay, out=tmp)
            step *= lr
            p -= step
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


def training_schema(splits: DatasetSplits, include_frac: bool = False) -> Schema:
    """The schema both residual models train on: the default field table, with
    categorical vocabularies widened by the configs of all three splits, so
    every validation config encodes."""
    return Schema.default(include_frac).with_vocab_from(
        r.config for r in splits.train + splits.id_val + splits.ood_val
    )


def build_training_rows(
    records: list[RunRecord],
    baseline: ChinchillaPredictor,
    schema: Schema,
):
    """Feature arrays + residual targets for a record list; the schema decides
    the row kind.

    plain schema: one row per record, target = final loss - baseline(N, D).
    frac schema: up to ``MAX_CURVE_CHECKPOINTS`` evenly spaced smoothed-curve
    samples per record (plus a frac=1 row for curveless records), residuals
    taken against the baseline at the full (N, D).
    """
    configs, fracs, ys = [], [], []
    records = [r for r in records if r.final_loss is not None]
    bases = baseline.predict_final_loss_batch([r.config for r in records])
    for r, base in zip(records, bases):
        if schema.include_frac and r.has_curve:
            k = min(MAX_CURVE_CHECKPOINTS, len(r.smoothed))
            idx = np.unique(np.round(np.linspace(0, len(r.smoothed) - 1, k)).astype(int))
            total = r.config.total_steps
            for i in idx:
                configs.append(r.config)
                fracs.append(min(1.0, max(r.steps[i] / total, 1e-9)))
                ys.append(r.smoothed[i] - base)
        else:
            configs.append(r.config)
            fracs.append(1.0 if schema.include_frac else None)
            ys.append(r.final_loss - base)
    x_num, x_cat = encode_batch(schema, configs, fracs)
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
            # applied; freed now, so the next backward does not allocate
            # beside them
            del grads
            t += 1
        last_mse = sq_sum / n
        report.train_mse.append((stage_name, epoch, last_mse))
        # the last cache holds views of the step's buffers; it and the last
        # outputs are dead now
        del out, cache
        if val is not None:
            vx_num, vx_cat, vy = val
            # a validation pass no larger than a step fits in the step's
            # buffers; a larger one gets its own, and the step's are freed
            # first, so that training never holds both
            fits = vy.shape[0] <= bs
            if not fits:
                model._scratch.clear()
            pred = model.forward_batch(vx_num, vx_cat, in_step_buffers=fits)
            report.val_mae.append(
                (stage_name, epoch, float(np.mean(np.abs(pred - vy))))
            )
    report.stage_final_mse[stage_name] = last_mse


def train(
    splits: DatasetSplits,
    plan: TrainPlan,
    baseline: ChinchillaPredictor,
    target_kind: str = "final",
    arch: Arch = Arch(),
) -> "TrainedPredictor":
    """Two-stage training on residual targets; the baseline must be fit on
    splits.train only. ``target_kind`` "curve" trains on a frac schema."""
    if target_kind not in ("final", "curve"):
        raise ValueError(f"unknown target_kind '{target_kind}'")
    schema = training_schema(splits, include_frac=(target_kind == "curve"))
    data = build_training_rows(splits.train, baseline, schema)
    if data[2].size == 0:
        raise TrainingError("no usable training rows")
    val = None
    if splits.id_val:
        val = build_training_rows(splits.id_val, baseline, schema)

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
    del trunk_before

    if not report.aborted:
        _run_stage(model, plan.stage2, plan, list(model.params), data, rng, report,
                   "stage2", val)
    return TrainedPredictor(model=model, baseline=baseline, report=report)


# -- the trained predictor -----------------------------------------------------

def _target_kind(schema: Schema) -> str:
    """A model over a frac schema predicts curves; any other, final losses."""
    return "curve" if schema.include_frac else "final"


class TrainedPredictor:
    """Regressor + its Chinchilla baselines; predicts losses, not residuals.
    Its kind (curve or final loss) is its schema's."""

    def __init__(self, model: RegressorModel, baseline: ChinchillaPredictor,
                 report: TrainReport):
        self.model = model
        self.baseline = baseline
        self.report = report

    def _residuals(self, configs: list[RunConfig], fracs: list | None = None) -> np.ndarray:
        """One forward pass over every (config, frac) row, padded with copies
        of the first row to a multiple of ``PAD_ROWS`` rows; the copies'
        outputs are dropped."""
        x_num, x_cat = encode_batch(self.model.schema, configs, fracs)
        n = x_num.shape[0]
        rows = np.zeros(n + -n % PAD_ROWS, dtype=np.intp)
        rows[:n] = np.arange(n)
        return self.model.forward_batch(x_num.take(rows, axis=0),
                                        x_cat.take(rows, axis=0))[:n]

    def predict_final_loss(self, config: RunConfig) -> float:
        return float(self.predict_final_loss_batch([config])[0])

    def predict_final_loss_batch(self, configs: list[RunConfig]) -> np.ndarray:
        return self.baseline.predict_final_loss_batch(configs) + self._residuals(configs)

    def predict_curve(self, configs: list[RunConfig],
                      fracs) -> list[list[tuple[int, float]]]:
        """Each config's (step, loss) points at the training-progress ratios
        ``fracs``, from one forward pass over every (config, frac) row."""
        if not self.model.schema.include_frac:
            raise ValueError("model was not trained for curve prediction")
        fracs = [float(f) for f in fracs]
        res = self._residuals([c for c in configs for _ in fracs], fracs * len(configs))
        bases = self.baseline.predict_final_loss_batch(configs)
        return [
            [(int(round(f * c.total_steps)), float(base + r)) for f, r in zip(fracs, row)]
            for c, base, row in zip(configs, bases, res.reshape(len(configs), len(fracs)))
        ]

    # -- checkpointing --------------------------------------------------------

    def save(self, path: str) -> None:
        """Deterministic checkpoint: identical predictor -> identical bytes."""
        manifest = {
            "format": CHECKPOINT_FORMAT,
            **self.model.schema.to_saved(),
            "arch": dataclasses.asdict(self.model.arch),
            "rng_seed": self.model.rng_seed,
            "target_kind": _target_kind(self.model.schema),
            "n_params": self.model.n_params(),
            "param_keys": sorted(self.model.params),
            "buffer_keys": sorted(self.model.buffers),
            "baselines": self.baseline.dump(),
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
            manifest = read_saved(
                _read_entry(zf, "manifest.json"),
                ("format", "schema", "schema_hash", "arch", "rng_seed", "baselines",
                 "report", "param_keys", "buffer_keys"),
                "checkpoint manifest",
            )
            if manifest["format"] != CHECKPOINT_FORMAT:
                raise SchemaError(f"unknown checkpoint format {manifest['format']!r}")
            schema = Schema.from_saved(manifest)
            if manifest.get("target_kind") != _target_kind(schema):
                raise SchemaError(
                    f"checkpoint target_kind {manifest.get('target_kind')!r} does not "
                    f"match its schema, which makes a {_target_kind(schema)!r} model"
                )
            baseline = ChinchillaPredictor.from_dump(manifest["baselines"])
            _check_header(manifest)
            arch = Arch(**manifest["arch"])
            shapes, buffer_shapes = parameter_shapes(schema, arch)
            model = RegressorModel.from_arrays(
                schema, arch, manifest["rng_seed"],
                params=_read_blocks(zf, "params", manifest["param_keys"], shapes),
                buffers=_read_blocks(zf, "buffers", manifest["buffer_keys"], buffer_shapes),
            )
            report = TrainReport(**manifest["report"])
            report.train_mse = [tuple(x) for x in report.train_mse]
            report.val_mae = [tuple(x) for x in report.val_mae]
        return cls(model=model, baseline=baseline, report=report)


def _field_names(cls) -> list[str]:
    return sorted(f.name for f in dataclasses.fields(cls))


def _check_header(manifest: dict):
    """The manifest's arch, rng_seed and report, as ``save`` writes them."""
    arch = manifest["arch"]
    if (not isinstance(arch, dict) or sorted(arch) != _field_names(Arch)
            or not all(type(v) is int and v > 0 for v in arch.values())):
        raise SchemaError(
            f"checkpoint arch {arch!r} is not {_field_names(Arch)} as positive integers")
    if type(manifest["rng_seed"]) is not int:
        raise SchemaError(f"checkpoint rng_seed {manifest['rng_seed']!r} is not an integer")
    report = manifest["report"]
    if not isinstance(report, dict) or sorted(report) != _field_names(TrainReport):
        raise SchemaError(
            f"checkpoint report does not hold exactly {_field_names(TrainReport)}")


def _read_entry(zf: zipfile.ZipFile, name: str) -> bytes:
    try:
        return zf.read(name)
    except KeyError:
        raise SchemaError(f"checkpoint lacks '{name}'") from None


def _read_blocks(zf: zipfile.ZipFile, folder: str, keys: list[str],
                 want: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Arrays under ``folder/`` for exactly the keys and shapes of ``want``."""
    if sorted(keys) != sorted(want):
        raise SchemaError(
            f"checkpoint {folder} {sorted(keys)} do not match the model's {sorted(want)}"
        )
    out = {}
    for key in want:
        arr = np.load(io.BytesIO(_read_entry(zf, f"{folder}/{key}.npy")))
        if arr.shape != want[key]:
            raise SchemaError(
                f"checkpoint {folder} '{key}' has shape {arr.shape}, "
                f"the model expects {want[key]}"
            )
        out[key] = arr
    return out

