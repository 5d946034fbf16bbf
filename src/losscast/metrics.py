"""Prediction quality metrics and loss-surface export.

MAE, RMSE, and Spearman rank correlation (average ranks for ties) over
paired prediction/truth arrays, plus a thin-plate-spline interpolation of
swept (lr, batch) loss surfaces onto a regular grid for contour plotting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Metrics:
    mae: float
    rmse: float
    spearman_rho: float  # NaN when either side has zero rank variance
    n: int

    def to_dict(self) -> dict:
        return {
            "mae": self.mae,
            "rmse": self.rmse,
            "spearman_rho": self.spearman_rho,
            "n": self.n,
        }


def average_ranks(x) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank span."""
    x = np.asarray(x, dtype=np.float64)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg = (upper - counts + 1 + upper) / 2.0
    return avg[inverse]


def spearman_rho(pred, truth) -> float:
    rp = average_ranks(pred)
    rt = average_ranks(truth)
    rp = rp - rp.mean()
    rt = rt - rt.mean()
    denom = np.sqrt((rp * rp).sum() * (rt * rt).sum())
    if denom == 0.0:
        return float("nan")
    return float((rp * rt).sum() / denom)


def compute_metrics(pred, truth) -> Metrics:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(
            f"need matching 1-d arrays, got {pred.shape} vs {truth.shape}"
        )
    if pred.size == 0:
        raise ValueError("empty prediction set")
    if not (np.isfinite(pred).all() and np.isfinite(truth).all()):
        raise ValueError("non-finite values in metric inputs")
    err = pred - truth
    return Metrics(
        mae=float(np.abs(err).mean()),
        rmse=float(np.sqrt((err * err).mean())),
        spearman_rho=spearman_rho(pred, truth),
        n=int(pred.size),
    )


def evaluate_split(predictor, records) -> Metrics:
    """Score a predictor against the recorded final losses of a split."""
    records = list(records)
    if not records:
        raise ValueError("empty split")
    configs = [r.config for r in records]
    truth = np.array([r.final_loss for r in records], dtype=np.float64)
    pred = np.asarray(predictor.predict_final_loss_batch(configs), dtype=np.float64)
    return compute_metrics(pred, truth)


@dataclass
class ContourGrid:
    """Regular (lr, bs) grid of interpolated losses, pre and post smoothing."""

    log_lr: np.ndarray     # (resolution,)
    log_bs: np.ndarray     # (resolution,)
    z: np.ndarray          # (resolution, resolution) smoothed, rows follow log_lr
    z_unsmoothed: np.ndarray

    @property
    def lr(self) -> np.ndarray:
        return np.exp(self.log_lr)

    @property
    def bs(self) -> np.ndarray:
        return np.exp(self.log_bs)

    def rows(self):
        """Yields (lr, bs, smoothed loss) for every grid node."""
        for i, llr in enumerate(self.log_lr):
            for j, lbs in enumerate(self.log_bs):
                yield float(np.exp(llr)), float(np.exp(lbs)), float(self.z[i, j])


def fit_rbf_surface(surface):
    """Thin-plate-spline interpolant over (log lr, log bs) -> loss samples.

    Exact duplicates are collapsed; duplicates with conflicting losses are an
    error since the interpolant must reproduce its samples.
    """
    # imported here: every command imports this module, and only the contour
    # export needs scipy.interpolate, which is slow to load
    from scipy.interpolate import RBFInterpolator

    seen = {}
    for lr, bs, loss in surface:
        key = (float(lr), float(bs))
        loss = float(loss)
        if key in seen and abs(seen[key] - loss) > 1e-12:
            raise ValueError(f"conflicting losses at lr={key[0]} bs={key[1]}")
        seen[key] = loss
    if len(seen) < 4:
        raise ValueError(f"need at least 4 distinct surface points, got {len(seen)}")
    pts = np.log(np.array(list(seen.keys()), dtype=np.float64))
    vals = np.array(list(seen.values()), dtype=np.float64)
    return RBFInterpolator(pts, vals, kernel="thin_plate_spline", degree=1)


def export_contour_data(surface, resolution: int = 50, sigma_cells: float = 1.0) -> ContourGrid:
    """Interpolate a swept surface onto a regular grid and smooth it.

    The grid spans the sample bounding box in (log lr, log bs); smoothing is
    a Gaussian blur with sigma of ``sigma_cells`` grid cells.
    """
    from scipy.ndimage import gaussian_filter

    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    rbf = fit_rbf_surface(surface)
    pts = np.array([(np.log(lr), np.log(bs)) for lr, bs, _ in surface])
    log_lr = np.linspace(pts[:, 0].min(), pts[:, 0].max(), resolution)
    log_bs = np.linspace(pts[:, 1].min(), pts[:, 1].max(), resolution)
    mesh = np.stack(np.meshgrid(log_lr, log_bs, indexing="ij"), axis=-1)
    z_raw = rbf(mesh.reshape(-1, 2)).reshape(resolution, resolution)
    z = gaussian_filter(z_raw, sigma=sigma_cells)
    return ContourGrid(log_lr=log_lr, log_bs=log_bs, z=z, z_unsmoothed=z_raw)
