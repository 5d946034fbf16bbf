"""Synthetic ground-truth oracle: run logs drawn from a known loss function.

The oracle loss is a Chinchilla surface plus an analytic configuration
penalty, so every downstream component has an exact answer to test against:

    loss(config) = E + A/N^a + B/D^b
                 + delta' Q delta            delta = (ln lr - ln lr*(N, D),
                                                      ln bs - ln bs*(D))
                 + offset[optimizer]
                 + wd_curv[optimizer] * (ln wd - ln wd_center[optimizer])^2

with lr*(N, D) = c N^alpha_lr D^beta_lr and bs*(D) = d D^gamma_bs. The
argmin over (lr, bs) at fixed everything-else is exactly (lr*, bs*), and the
noiseless frontier recovers the generating power laws.

Loss curves interpolate from an early-training anchor down to the final loss,

    loss(frac) = L_f + (L_0 - L_f) (1 - frac)^p + bump(frac)

where L_0 is the oracle loss evaluated at 1% of the data and the bump is a
transient warmup excursion that vanishes at frac = 1 and decays after its
peak, so curves are monotone non-increasing past the warmup region.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .ingest import RunRecord, config_to_obj, record_from_obj
from .schema import RunConfig

#: warmup-bump peak location, as a fraction of training
BUMP_FRAC = 0.06
#: early-training anchor: L_0 evaluates the oracle at this fraction of D
ANCHOR_DATA_FRAC = 0.01
#: floor applied to weight decay inside the log penalty
WD_FLOOR = 1e-4

_SEQ_TOKENS = 2048 * 4  # tokens per sequence-batch unit tying D to steps


@dataclass
class OracleParams:
    """Generating parameters; serialized beside every synthetic dataset."""

    e: float = 1.7
    a: float = 6.2
    b: float = 1.8
    alpha: float = 0.32
    beta: float = 0.28
    lr_c: float = 3.2e-3
    lr_alpha: float = -0.25
    lr_beta: float = 0.10
    bs_d: float = 96.0
    bs_gamma: float = 0.50
    curvature: tuple = ((0.025, 0.004), (0.004, 0.010))
    optimizer_effects: dict = field(
        default_factory=lambda: {
            "adamw": {"offset": 0.0, "wd_center": 0.1, "wd_curv": 0.02},
            "lion": {"offset": 0.015, "wd_center": 0.6, "wd_curv": 0.02},
        }
    )
    noise_sigma: float = 0.005
    curve_bump_amp: float = 0.10
    curve_decay_p: float = 1.8

    def __post_init__(self):
        q = np.asarray(self.curvature, dtype=np.float64)
        if q.shape != (2, 2) or abs(q[0, 1] - q[1, 0]) > 1e-12:
            raise ValueError("curvature must be a symmetric 2x2 matrix")
        if np.any(np.linalg.eigvalsh(q) <= 0):
            raise ValueError("curvature must be positive definite")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")

    def lr_opt(self, n, d):
        return self.lr_c * np.power(n, self.lr_alpha) * np.power(d, self.lr_beta)

    def bs_opt(self, d):
        return self.bs_d * np.power(d, self.bs_gamma)

    def chinchilla(self, n, d):
        return self.e + self.a / np.power(n, self.alpha) + self.b / np.power(d, self.beta)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["curvature"] = [list(row) for row in self.curvature]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "OracleParams":
        data = dict(data)
        data["curvature"] = tuple(tuple(row) for row in data["curvature"])
        return cls(**data)


def _penalty(params: OracleParams, config: RunConfig, d_eff: float | None = None) -> float:
    d = config.data_size_d if d_eff is None else d_eff
    q = np.asarray(params.curvature)
    dx = math.log(config.peak_lr) - math.log(params.lr_opt(config.model_size_n, d))
    dy = math.log(config.batch_size) - math.log(params.bs_opt(d))
    pen = q[0, 0] * dx * dx + 2.0 * q[0, 1] * dx * dy + q[1, 1] * dy * dy

    eff = params.optimizer_effects.get(config.optimizer)
    if eff is not None:
        pen += eff["offset"]
        if eff["wd_curv"] > 0:
            wd = max(config.weight_decay, WD_FLOOR)
            pen += eff["wd_curv"] * (math.log(wd) - math.log(eff["wd_center"])) ** 2
    return pen


def oracle_loss(params: OracleParams, config: RunConfig) -> float:
    """Deterministic ground-truth final loss for a configuration."""
    return float(
        params.chinchilla(config.model_size_n, config.data_size_d)
        + _penalty(params, config)
    )


def oracle_curve(params: OracleParams, config: RunConfig, fracs) -> np.ndarray:
    """Ground-truth loss at intermediate fractions of training."""
    f = np.asarray(fracs, dtype=np.float64)
    l_final = oracle_loss(params, config)
    d0 = ANCHOR_DATA_FRAC * config.data_size_d
    l_zero = float(params.chinchilla(config.model_size_n, d0)) + _penalty(
        params, config, d_eff=d0
    )
    main = l_final + (l_zero - l_final) * np.power(1.0 - f, params.curve_decay_p)
    bump = (
        params.curve_bump_amp
        * (1.0 - f)
        * (f / BUMP_FRAC)
        * np.exp(1.0 - f / BUMP_FRAC)
    )
    return main + bump


# -- design / generation ---------------------------------------------------------

#: default model shapes: N (millions) -> (layers, heads, hidden)
_ARCH = {
    130.0: (12, 8, 512),
    215.0: (16, 10, 640),
    268.0: (18, 12, 768),
    300.0: (20, 12, 768),
    430.0: (24, 14, 896),
    520.0: (26, 16, 1024),
    1073.0: (32, 20, 1280),
}

ID_SIZES = tuple(
    (n, d) for n in (130.0, 215.0, 268.0, 300.0, 430.0) for d in (10.0, 25.0, 50.0)
)
OOD_SIZES = ((520.0, 25.0), (520.0, 50.0), (1073.0, 50.0))


@dataclass
class SynthDesign:
    """Cross-product sweep specification for synthetic datasets."""

    sizes: tuple = ID_SIZES + OOD_SIZES
    optimizers: tuple = ("adamw", "lion")
    lr_log_offsets: tuple = tuple(np.linspace(-0.8, 0.8, 7).round(12))
    bs_log_offsets: tuple = (-0.6, 0.0, 0.6)
    weight_decays: tuple = (0.03, 0.1, 0.3, 0.6)
    with_curves: bool = False
    curve_points: int = 800

    def n_runs(self) -> int:
        return (
            len(self.sizes) * len(self.optimizers) * len(self.lr_log_offsets)
            * len(self.bs_log_offsets) * len(self.weight_decays)
        )

    @classmethod
    def curve_default(cls) -> "SynthDesign":
        return cls(
            lr_log_offsets=(-0.6, 0.0, 0.6),
            bs_log_offsets=(-0.5, 0.5),
            weight_decays=(0.1, 0.6),
            with_curves=True,
        )


def _arch_for(n: float) -> tuple[int, int, int]:
    if n in _ARCH:
        return _ARCH[n]
    layers = int(round(8 + 8 * math.log10(n / 50.0)))
    hidden = 64 * int(round(math.sqrt(n * 1e6 / (12 * layers)) / 64.0))
    return layers, max(4, layers // 2), max(hidden, 256)


def _design_configs(params: OracleParams, design: SynthDesign):
    for n, d in design.sizes:
        layers, heads, hidden = _arch_for(n)
        for opt in design.optimizers:
            for lr_off in design.lr_log_offsets:
                for bs_off in design.bs_log_offsets:
                    for wd in design.weight_decays:
                        lr = float(params.lr_opt(n, d) * math.exp(lr_off))
                        bs = float(params.bs_opt(d) * math.exp(bs_off))
                        steps = max(1.0, round(d * 1e9 / (bs * _SEQ_TOKENS)))
                        yield RunConfig(
                            source="synthetic",
                            model_size_n=n,
                            data_size_d=d,
                            total_steps=steps,
                            optimizer=opt,
                            peak_lr=lr,
                            batch_size=bs,
                            num_layers=layers,
                            num_heads=heads,
                            hidden_dim=hidden,
                            lr_schedule="cosine",
                            min_lr_ratio=0.1,
                            weight_decay=wd,
                            warmup=0.01,
                            warmup_is_ratio=True,
                            max_grad_norm=1.0,
                            beta1=0.9,
                            beta2=0.95,
                            epsilon=8.0,
                        )


def generate_synthetic_objects(
    params: OracleParams, design: SynthDesign | None = None, seed: int = 0
) -> list[dict]:
    """Raw log objects (one per run) in the line-delimited input format."""
    design = design or SynthDesign()
    rng = np.random.default_rng(seed)
    objs = []
    for i, config in enumerate(_design_configs(params, design)):
        obj = config_to_obj(config)
        obj["run_id"] = f"synth-{i:05d}"
        obj["finished"] = True
        true_loss = oracle_loss(params, config)
        if design.with_curves:
            k = design.curve_points
            fracs = np.arange(1, k + 1) / k
            curve = oracle_curve(params, config, fracs)
            if params.noise_sigma > 0:
                curve = curve + rng.normal(0.0, params.noise_sigma, size=k)
            steps = np.round(fracs * config.total_steps).astype(np.int64)
            prev = 0
            for j in range(k):  # enforce strictly increasing integer steps
                if steps[j] <= prev:
                    steps[j] = prev + 1
                prev = int(steps[j])
            obj["curve"] = [[int(s), float(v)] for s, v in zip(steps, curve)]
        else:
            noise = float(rng.normal(0.0, params.noise_sigma)) if params.noise_sigma else 0.0
            obj["final_loss"] = true_loss + noise
        objs.append(obj)
    return objs


def generate_synthetic_runs(
    params: OracleParams, design: SynthDesign | None = None, seed: int = 0
) -> list[RunRecord]:
    objs = generate_synthetic_objects(params, design, seed)
    return [record_from_obj(obj) for obj in objs]


def write_synthetic_dataset(
    params: OracleParams,
    design: SynthDesign | None,
    seed: int,
    out_path: str | os.PathLike,
) -> tuple[str, str]:
    """Write runs as line-delimited JSON plus an OracleParams sidecar."""
    objs = generate_synthetic_objects(params, design, seed)
    out_path = str(out_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    sidecar = out_path + ".oracle.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(params.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_path, sidecar


class OraclePredictor:
    """Predictor backed by the generating loss function itself."""

    def __init__(self, params: OracleParams):
        self.params = params

    def predict_final_loss(self, config: RunConfig) -> float:
        return oracle_loss(self.params, config)

    def predict_final_loss_batch(self, configs: list[RunConfig]) -> np.ndarray:
        # a plain loop over the closed form: this is the reference
        return np.array([oracle_loss(self.params, c) for c in configs], dtype=np.float64)

    def predict_curve(self, config: RunConfig, fracs):
        losses = oracle_curve(self.params, config, fracs)
        return [
            (int(round(f * config.total_steps)), float(v))
            for f, v in zip(np.asarray(fracs, dtype=np.float64), losses)
        ]
