"""Metrics (MAE/RMSE/Spearman) and the contour-grid surface export."""

import numpy as np
import pytest
from scipy import stats

from losscast.metrics import (
    average_ranks,
    compute_metrics,
    evaluate_split,
    export_contour_data,
    fit_rbf_surface,
    spearman_rho,
)
from conftest import make_config


def test_average_ranks_split_ties_evenly():
    assert average_ranks([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5.0, 5.0, 5.0]).tolist() == [2.0, 2.0, 2.0]
    assert average_ranks([3.0, 1.0, 2.0]).tolist() == [3.0, 1.0, 2.0]


def test_spearman_hand_values():
    assert spearman_rho([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)
    assert spearman_rho([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0)
    assert spearman_rho([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)


def test_spearman_matches_textbook_formula_on_permutations(rng):
    # distinct values: rho = 1 - 6 sum(d^2) / (n (n^2 - 1))
    for n in (4, 9, 25):
        a = rng.permutation(n).astype(np.float64)
        b = rng.permutation(n).astype(np.float64)
        d = average_ranks(a) - average_ranks(b)
        expected = 1.0 - 6.0 * (d * d).sum() / (n * (n * n - 1))
        assert spearman_rho(a, b) == pytest.approx(expected, abs=1e-12)


def test_spearman_matches_scipy_with_ties(rng):
    for _ in range(40):
        n = int(rng.integers(5, 40))
        a = rng.integers(0, 6, size=n).astype(np.float64)
        b = a + rng.integers(-2, 3, size=n)
        if np.unique(a).size < 2 or np.unique(b).size < 2:
            continue
        expected = stats.spearmanr(a, b).statistic
        assert spearman_rho(a, b) == pytest.approx(expected, abs=1e-12)


def test_spearman_is_nan_when_one_side_is_constant():
    assert np.isnan(spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    assert np.isnan(spearman_rho([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]))


def test_compute_metrics_hand_values():
    m = compute_metrics([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    assert m.mae == pytest.approx(1.0)
    assert m.rmse == pytest.approx(np.sqrt(5.0 / 3.0))
    assert np.isnan(m.spearman_rho)  # constant truth has no rank variance
    assert m.n == 3
    d = m.to_dict()
    assert d["mae"] == m.mae and d["n"] == 3


def test_compute_metrics_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compute_metrics([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        compute_metrics([[1.0, 2.0]], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        compute_metrics([], [])
    with pytest.raises(ValueError):
        compute_metrics([1.0, np.nan], [1.0, 2.0])
    with pytest.raises(ValueError):
        compute_metrics([1.0, 2.0], [1.0, np.inf])


class _Rec:
    def __init__(self, config, final_loss):
        self.config = config
        self.final_loss = final_loss


class _PerConfig:
    def predict_final_loss(self, config):
        return config.peak_lr * 1000.0

    def predict_final_loss_batch(self, configs):
        return [self.predict_final_loss(c) for c in configs]


class _Batched(_PerConfig):
    def predict_final_loss_batch(self, configs):
        return [config.peak_lr * 1000.0 + 0.5 for config in configs]


def _toy_split():
    return [
        _Rec(make_config(peak_lr=1e-3), 1.0),
        _Rec(make_config(peak_lr=2e-3), 2.0),
        _Rec(make_config(peak_lr=4e-3), 3.5),
    ]


def test_evaluate_split_scores_per_config_predictions():
    m = evaluate_split(_PerConfig(), _toy_split())
    assert m.mae == pytest.approx(0.5 / 3.0)
    assert m.spearman_rho == pytest.approx(1.0)
    assert m.n == 3


def test_evaluate_split_prefers_the_batch_endpoint():
    # the batch path shifts every prediction by +0.5; the scalar path would not
    m = evaluate_split(_Batched(), _toy_split())
    assert m.mae == pytest.approx((0.5 + 0.5 + 1.0) / 3.0)


def test_evaluate_split_rejects_empty():
    with pytest.raises(ValueError):
        evaluate_split(_PerConfig(), [])


# -- contour export ------------------------------------------------------------------

def _affine(lr, bs):
    return 2.0 + 0.3 * np.log(lr) - 0.1 * np.log(bs)


def _affine_surface(rng, n=20):
    lrs = np.exp(rng.uniform(np.log(1e-4), np.log(1e-2), size=n))
    bss = np.exp(rng.uniform(np.log(32.0), np.log(2048.0), size=n))
    return [(lr, bs, _affine(lr, bs)) for lr, bs in zip(lrs, bss)]


def test_rbf_reproduces_its_samples(rng):
    surface = [
        (lr, bs, 3.0 + 0.2 * np.log(lr) ** 2 + 0.1 * np.log(bs) ** 2)
        for lr in (1e-4, 1e-3, 1e-2)
        for bs in (64.0, 256.0, 1024.0)
    ]
    rbf = fit_rbf_surface(surface)
    pts = np.log([[lr, bs] for lr, bs, _ in surface])
    vals = np.array([z for _, _, z in surface])
    assert rbf(pts) == pytest.approx(vals, abs=1e-9)


def test_rbf_reproduces_affine_surfaces_everywhere(rng):
    # the spline's degree-1 polynomial tail makes planes exact, which pins
    # down the interpolant far better than sample reproduction alone
    rbf = fit_rbf_surface(_affine_surface(rng))
    queries = np.column_stack([
        rng.uniform(np.log(2e-4), np.log(5e-3), size=30),
        rng.uniform(np.log(64.0), np.log(1024.0), size=30),
    ])
    expected = 2.0 + 0.3 * queries[:, 0] - 0.1 * queries[:, 1]
    assert rbf(queries) == pytest.approx(expected, abs=1e-8)


def test_rbf_collapses_exact_duplicates(rng):
    surface = _affine_surface(rng, n=8)
    rbf = fit_rbf_surface(surface + [surface[0]])
    pt = np.log([[surface[0][0], surface[0][1]]])
    assert rbf(pt)[0] == pytest.approx(surface[0][2], abs=1e-9)


def test_rbf_rejects_conflicting_duplicates(rng):
    surface = _affine_surface(rng, n=8)
    lr, bs, z = surface[0]
    with pytest.raises(ValueError, match="conflicting"):
        fit_rbf_surface(surface + [(lr, bs, z + 0.1)])


def test_rbf_needs_four_distinct_points():
    pts = [(1e-3, 64.0, 1.0), (2e-3, 64.0, 1.1), (1e-3, 128.0, 1.2)]
    with pytest.raises(ValueError, match="4 distinct"):
        fit_rbf_surface(pts)


def test_contour_grid_shape_and_bounds(rng):
    surface = _affine_surface(rng)
    grid = export_contour_data(surface, resolution=21)
    assert grid.z.shape == (21, 21) and grid.z_unsmoothed.shape == (21, 21)
    assert np.isfinite(grid.z).all()
    log_lrs = np.log([lr for lr, _, _ in surface])
    log_bss = np.log([bs for _, bs, _ in surface])
    assert grid.log_lr[0] == pytest.approx(log_lrs.min())
    assert grid.log_lr[-1] == pytest.approx(log_lrs.max())
    assert grid.log_bs[0] == pytest.approx(log_bss.min())
    assert grid.log_bs[-1] == pytest.approx(log_bss.max())
    assert grid.lr == pytest.approx(np.exp(grid.log_lr))
    assert grid.bs == pytest.approx(np.exp(grid.log_bs))


def test_contour_unsmoothed_matches_the_plane(rng):
    grid = export_contour_data(_affine_surface(rng), resolution=11)
    expected = 2.0 + 0.3 * grid.log_lr[:, None] - 0.1 * grid.log_bs[None, :]
    assert grid.z_unsmoothed == pytest.approx(expected, abs=1e-8)


def test_contour_smoothing_toggle(rng):
    surface = [
        (lr, bs, 3.0 + 0.2 * np.log(lr) ** 2 + 0.1 * np.log(bs) ** 2)
        for lr in np.geomspace(1e-4, 1e-2, 4)
        for bs in np.geomspace(64.0, 1024.0, 4)
    ]
    sharp = export_contour_data(surface, resolution=15, sigma_cells=0.0)
    assert np.array_equal(sharp.z, sharp.z_unsmoothed)
    blurred = export_contour_data(surface, resolution=15, sigma_cells=1.5)
    assert not np.array_equal(blurred.z, blurred.z_unsmoothed)


def test_contour_rows_enumerate_every_node(rng):
    grid = export_contour_data(_affine_surface(rng), resolution=5)
    rows = list(grid.rows())
    assert len(rows) == 25
    lr, bs, z = rows[0]
    assert lr == pytest.approx(np.exp(grid.log_lr[0]))
    assert bs == pytest.approx(np.exp(grid.log_bs[0]))
    assert z == pytest.approx(grid.z[0, 0])


def test_contour_rejects_tiny_resolution(rng):
    with pytest.raises(ValueError):
        export_contour_data(_affine_surface(rng), resolution=1)
