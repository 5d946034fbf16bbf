"""Grid sweeps and quadratic refinement of the (lr, batch) optimum."""

import dataclasses

import numpy as np
import pytest

from losscast.errors import SchemaError, SweepError
from losscast.select import (
    RefinedPoint,
    SweepGrid,
    recommend,
    refine_optimum,
    sweep,
)
from conftest import make_config


class QuadraticPredictor:
    """Exact quadratic bowl in (log lr, log bs) with a known vertex."""

    # curvatures kept gentle so the default 13x9 grid leaves at least six
    # points inside the 1% near-optimal band that refinement needs
    def __init__(self, lr0=3e-3, bs0=500.0, cxx=0.05, cxy=0.01, cyy=0.04,
                 floor=2.0):
        self.lr0, self.bs0 = lr0, bs0
        self.cxx, self.cxy, self.cyy, self.floor = cxx, cxy, cyy, floor

    def predict_final_loss(self, config):
        x = np.log(config.peak_lr / self.lr0)
        y = np.log(config.batch_size / self.bs0)
        return self.floor + self.cxx * x * x + self.cxy * x * y + self.cyy * y * y

    def predict_final_loss_batch(self, configs):
        return [self.predict_final_loss(c) for c in configs]


def lr_bs_grid(**kw):
    return SweepGrid.lr_bs(make_config(), **kw)


def test_sweep_orders_ascending_and_is_exhaustive():
    grid = lr_bs_grid(n_lr=5, n_bs=4)
    result = sweep(QuadraticPredictor(), grid)
    losses = [l for _, l, _ in result.entries]
    assert losses == sorted(losses)
    assert len(result.entries) + len(result.skipped) == grid.size() == 20
    assert not result.skipped


def test_sweep_ties_break_on_grid_index():
    class Flat:
        def predict_final_loss(self, config):
            return 1.0

        def predict_final_loss_batch(self, configs):
            return [self.predict_final_loss(c) for c in configs]

    result = sweep(Flat(), lr_bs_grid(n_lr=3, n_bs=3))
    assert [i for _, _, i in result.entries] == list(range(9))


def test_sweep_skips_invalid_points_and_records_them():
    grid = SweepGrid(
        axes=[("peak_lr", [1e-3, -5.0, 2e-3])],  # RunConfig refuses the middle one
        base_config=make_config(),
    )
    result = sweep(QuadraticPredictor(), grid)
    assert len(result.entries) == 2
    assert len(result.skipped) == 1 and result.skipped[0][0] == 1


def test_sweep_all_invalid_raises():
    grid = SweepGrid(axes=[("peak_lr", [-1.0, -2.0])], base_config=make_config())
    with pytest.raises(SweepError, match="first: point 0: field 'peak_lr' must be positive"):
        sweep(QuadraticPredictor(), grid)


def test_swept_lr_keeps_min_lr_ratio_consistent():
    base = make_config(min_lr=1e-4, min_lr_ratio=0.1)
    # a point that is not a number is skipped by name, not multiplied
    grid = SweepGrid(axes=[("peak_lr", [1e-3, "abc", 4e-3])], base_config=base)
    result = sweep(QuadraticPredictor(), grid)
    assert len(result.entries) == 2
    for cfg, _, _ in result.entries:
        assert cfg.min_lr == pytest.approx(0.1 * cfg.peak_lr)
    assert result.skipped == [(1, "field 'peak_lr' must be a number, got 'abc'")]


# -- refinement --------------------------------------------------------------------

def quad_surface(pred, n=40, spread=0.5, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n):
        lr = pred.lr0 * np.exp(rng.uniform(-spread, spread))
        bs = pred.bs0 * np.exp(rng.uniform(-spread, spread))
        pts.append((lr, bs, pred.predict_final_loss(
            make_config(peak_lr=lr, batch_size=bs))))
    return pts


def test_exact_quadratic_vertex_recovered_to_1e6():
    pred = QuadraticPredictor()
    ref = refine_optimum(quad_surface(pred), near_frac=1e9)
    assert not ref.fallback
    assert abs(np.log(ref.lr) - np.log(pred.lr0)) < 1e-6
    assert abs(np.log(ref.bs) - np.log(pred.bs0)) < 1e-6


def test_symmetric_bowl_vertex_is_the_center():
    pred = QuadraticPredictor(cxy=0.0, cxx=0.25, cyy=0.25)
    ref = refine_optimum(quad_surface(pred, seed=5), near_frac=1e9)
    assert ref.lr == pytest.approx(pred.lr0, rel=1e-9)
    assert ref.bs == pytest.approx(pred.bs0, rel=1e-9)


def test_flat_surface_falls_back_flagged():
    pts = [(1e-3 * (1 + i), 100.0 + j, 2.0) for i in range(4) for j in range(4)]
    ref = refine_optimum(pts)
    assert ref.fallback and "positive definite" in ref.reason


def test_vertex_outside_the_swept_box_falls_back_to_the_grid():
    # the bowl's vertex sits at lr = 1.0, far above the swept 1e-4..3e-2
    grid = lr_bs_grid()
    surface = [(lr, bs, 3.0 + 0.002 * np.log(lr) ** 2 + 0.002 * np.log(bs / 300.0) ** 2)
               for lr in grid.axes[0][1] for bs in grid.axes[1][1]]
    ref = refine_optimum(surface)
    assert ref.fallback and ref.reason == "vertex outside the swept box"
    best = min(surface, key=lambda p: p[2])
    assert (ref.lr, ref.bs) == (best[0], best[1])


def test_too_few_near_optimal_points_fall_back():
    pred = QuadraticPredictor()
    pts = quad_surface(pred, n=30, spread=2.0)
    # push all but a handful far from the floor so <6 survive the 1% cut
    near = [p for p in pts if p[2] <= 1.01 * min(q[2] for q in pts)]
    if len(near) >= 6:
        pts = [p for p in pts if p[2] > 1.01 * min(q[2] for q in pts)][:20]
        pts.append((pred.lr0, pred.bs0, pred.floor))
    ref = refine_optimum(pts)
    assert ref.fallback and "near-optimal" in ref.reason


# -- recommend ----------------------------------------------------------------------

def test_recommend_hits_a_quadratic_vertex():
    pred = QuadraticPredictor()
    rec = recommend(pred, 215.0, 25.0, base_config=make_config())
    assert not rec.refine_fallback
    assert rec.refined_point[0] == pytest.approx(pred.lr0, rel=1e-4)
    assert rec.refined_point[1] == pytest.approx(pred.bs0, rel=1e-4)
    assert rec.refined_loss <= rec.best_grid_loss
    assert rec.relative_loss <= 0.0 + 1e-12


def test_recommend_respects_constraints():
    pred = QuadraticPredictor()
    rec = recommend(pred, 215.0, 25.0, base_config=make_config(),
                    constraints={"batch_size": 128.0})
    assert all(c.batch_size == 128.0 for c, _ in rec.predicted_surface)
    assert rec.refine_fallback  # only lr swept; nothing to refine over
    assert rec.refined_config.batch_size == 128.0


def test_recommend_sets_target_sizes_on_every_config():
    pred = QuadraticPredictor()
    rec = recommend(pred, 520.0, 50.0, base_config=make_config())
    assert all(c.model_size_n == 520.0 and c.data_size_d == 50.0
               for c, _ in rec.predicted_surface)


def test_refinement_never_regresses_past_the_grid():
    class Spiky(QuadraticPredictor):
        """Quadratic on the grid, but hostile between grid points."""

        def __init__(self):
            super().__init__()
            self.grid_lrs = None

        def predict_final_loss(self, config):
            base = super().predict_final_loss(config)
            if self.grid_lrs is not None and \
                    not any(abs(config.peak_lr - g) < 1e-15 for g in self.grid_lrs):
                return base + 10.0  # punish any off-grid query
            return base

    pred = Spiky()
    grid = lr_bs_grid()
    pred.grid_lrs = [v for v in grid.axes[0][1]]
    rec = recommend(pred, 215.0, 25.0, grid=grid)
    assert rec.refine_fallback and "regressed" in rec.refine_reason
    assert rec.refined_config == rec.best_grid_config
    assert rec.refined_loss == rec.best_grid_loss


def test_recommend_summary_is_json_friendly():
    import json
    rec = recommend(QuadraticPredictor(), 215.0, 25.0, base_config=make_config())
    text = json.dumps(rec.summary(), sort_keys=True)
    assert "refined" in text and "best_grid" in text


class CountingPredictor(QuadraticPredictor):
    """Counts batch calls; any per-config call is an error."""

    def __init__(self):
        super().__init__()
        self.batch_calls = []

    def predict_final_loss(self, config):
        raise AssertionError("sweeps must predict through the batch method")

    def predict_final_loss_batch(self, configs):
        self.batch_calls.append(len(configs))
        return [QuadraticPredictor.predict_final_loss(self, c) for c in configs]


def test_sweep_predicts_each_grid_in_one_batch_call():
    pred = CountingPredictor()
    grid = SweepGrid(
        axes=[("peak_lr", [1e-3, -5.0, 2e-3, 4e-3])],  # RunConfig refuses one point
        base_config=make_config(),
    )
    result = sweep(pred, grid)
    assert pred.batch_calls == [3]
    assert [i for i, _ in result.skipped] == [1]


def test_recommend_predicts_at_most_twice():
    pred = CountingPredictor()
    rec = recommend(pred, 215.0, 25.0, base_config=make_config())
    assert not rec.refine_fallback
    assert pred.batch_calls == [13 * 9, 1]
    pred.batch_calls.clear()
    recommend(pred, 215.0, 25.0, base_config=make_config(),
              constraints={"batch_size": 128.0})
    assert pred.batch_calls == [13]


def test_a_predictor_refusal_refuses_the_sweep_in_one_call():
    class RejectsOneLr(CountingPredictor):
        def predict_final_loss_batch(self, configs):
            losses = super().predict_final_loss_batch(configs)
            if any(c.peak_lr == 2e-3 for c in configs):
                raise ValueError("cannot score lr 2e-3")
            return losses

    pred = RejectsOneLr()
    grid = SweepGrid(axes=[("peak_lr", [1e-3, 2e-3, -5.0, 4e-3])],
                     base_config=make_config())
    with pytest.raises(ValueError, match="cannot score lr 2e-3"):
        sweep(pred, grid)
    assert pred.batch_calls == [3]


@pytest.mark.parametrize("make", [
    lambda: SweepGrid(axes=[("nosuch", [1.0])], base_config=make_config()),
    lambda: lr_bs_grid().fix("nosuch", 3),
], ids=["axis", "fix"])
def test_a_grid_refuses_a_field_a_config_does_not_have(make):
    with pytest.raises(SchemaError, match="unknown config field 'nosuch'"):
        make()
