"""Ground truth for the benchmark's checks, written apart from the program.

The synthetic runs come from the closed form stated in the docstring of
``losscast.synth``:

    loss = E + A/N^a + B/D^b + delta' Q delta + offset[opt]
           + wd_curv[opt] * (ln wd - ln wd_center[opt])^2
    delta = (ln lr - ln lr*(N, D), ln bs - ln bs*(D))
    lr*(N, D) = c N^alpha_lr D^beta_lr        bs*(D) = d D^gamma_bs

The parameters are read from the ``.oracle.json`` sidecar written beside
each dataset. The run filter's rules are restated from the docstring of
``losscast.ingest.filter_runs``, and curves are smoothed here with
``scipy.signal.lfilter`` rather than the program's kernel.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.signal import lfilter

SMOOTHING = 0.99          # EMA coefficient, s_t = c s_{t-1} + (1 - c) x_t
DIVERGENCE_LOSS = 4.0     # absolute divergence threshold
GROUP_GAP = 0.3           # allowed gap above the best run at the same (N, D)
SLOPE_WINDOW_FRAC = 0.05  # window of ceil(5%) of the logged points
SLOPE_LIMIT = 1e-3        # largest average slope per step a kept run may show
OOD_THRESHOLD_N = 430.0   # models above this size are held out


class Oracle:
    def __init__(self, sidecar_path: str):
        with open(sidecar_path, encoding="utf-8") as fh:
            self.p = json.load(fh)

    def lr_opt(self, n, d):
        p = self.p
        return p["lr_c"] * n ** p["lr_alpha"] * d ** p["lr_beta"]

    def bs_opt(self, d):
        return self.p["bs_d"] * d ** self.p["bs_gamma"]

    def loss(self, n, d, lr, bs, optimizer, wd) -> float:
        p = self.p
        (q00, q01), (_, q11) = p["curvature"]
        dx = math.log(lr) - math.log(self.lr_opt(n, d))
        dy = math.log(bs) - math.log(self.bs_opt(d))
        eff = p["optimizer_effects"][optimizer]
        return (p["e"] + p["a"] / n ** p["alpha"] + p["b"] / d ** p["beta"]
                + q00 * dx * dx + 2 * q01 * dx * dy + q11 * dy * dy
                + eff["offset"]
                + eff["wd_curv"] * (math.log(wd) - math.log(eff["wd_center"])) ** 2)

    def config_loss(self, obj: dict) -> float:
        return self.loss(obj["model_size_n"], obj["data_size_d"], obj["peak_lr"],
                         obj["batch_size"], obj["optimizer"], obj["weight_decay"])

    def regret(self, obj: dict) -> float:
        """True loss of a config above the best (lr, bs) at its (N, D)."""
        n, d = obj["model_size_n"], obj["data_size_d"]
        best = self.loss(n, d, self.lr_opt(n, d), self.bs_opt(d),
                         obj["optimizer"], obj["weight_decay"])
        return self.config_loss(obj) - best


def chinchilla(fit: dict, n: float, d: float) -> float:
    """E + A/N^alpha + B/D^beta from one written fit file."""
    return fit["E"] + fit["A"] / n ** fit["alpha"] + fit["B"] / d ** fit["beta"]


def ema(losses) -> np.ndarray:
    x = np.asarray(losses, dtype=np.float64)
    c = SMOOTHING
    rest = lfilter([1.0 - c], [1.0, -c], x[1:], zi=[c * x[0]])[0]
    return np.concatenate([x[:1], rest])


def expected_rejections(objs: list[dict]) -> dict[str, str]:
    """run_id -> rule for every raw run the filter must reject."""
    final = {}
    for o in objs:
        if o.get("curve") is not None:
            final[o["run_id"]] = float(ema(np.asarray(o["curve"])[:, 1])[-1])
        else:
            final[o["run_id"]] = o.get("final_loss")
    best: dict[tuple, float] = {}
    for o in objs:
        key = (round(o["model_size_n"], 1), round(o["data_size_d"], 1))
        loss = final[o["run_id"]]
        if o.get("finished", True) and loss is not None:
            best[key] = min(best.get(key, math.inf), loss)
    out = {}
    for o in objs:
        rid, loss = o["run_id"], final[o["run_id"]]
        key = (round(o["model_size_n"], 1), round(o["data_size_d"], 1))
        if not o.get("finished", True):
            out[rid] = "unfinished"
        elif loss is not None and (loss > DIVERGENCE_LOSS or loss > best[key] + GROUP_GAP):
            out[rid] = "diverged"
        elif o.get("curve") is not None and _max_window_slope(np.asarray(o["curve"])) > SLOPE_LIMIT:
            out[rid] = "unstable"
    return out


def _max_window_slope(curve: np.ndarray) -> float:
    steps, smooth = curve[:, 0], ema(curve[:, 1])
    w = math.ceil(SLOPE_WINDOW_FRAC * len(steps)) - 1
    if w < 1:
        return -math.inf
    return float(np.max((smooth[w:] - smooth[:-w]) / (steps[w:] - steps[:-w])))
