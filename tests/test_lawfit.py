"""Scaling-law fitting: the Chinchilla form, frontier power laws, baselines."""

import functools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from losscast import lawfit
from losscast.errors import FitError, ScopeError
from losscast.ingest import record_from_obj
from losscast.lawfit import (
    HUBER_DELTA,
    ChinchillaFit,
    ChinchillaPredictor,
    FrontierPoint,
    Scope,
    _chinchilla_starts,
    _huber_objective,
    _nelder_mead_lockstep,
    fit_baselines,
    fit_chinchilla,
    fit_power_law,
    load_fits,
    predict_chinchilla,
    residual_target,
    save_fits,
    select_best_per_group,
)
from conftest import make_config


def cfit(e=2.0, a=400.0, b=100.0, alpha=0.5, beta=0.5):
    return ChinchillaFit(e=e, a=a, b=b, alpha=alpha, beta=beta,
                         scope=Scope("lab"), objective=0.0, n_points=0)


def run(final_loss, run_id, **cfg_over):
    cfg = make_config(source="lab", **cfg_over)
    return record_from_obj({
        "source": cfg.source, "model_size_n": cfg.model_size_n,
        "data_size_d": cfg.data_size_d, "total_steps": cfg.total_steps,
        "optimizer": cfg.optimizer, "peak_lr": cfg.peak_lr,
        "batch_size": cfg.batch_size, "final_loss": final_loss,
        "run_id": run_id,
    })


# -- prediction -----------------------------------------------------------------

def test_predict_by_hand():
    # 2 + 400/sqrt(100) + 100/sqrt(25) = 2 + 40 + 20
    fit = cfit()
    assert predict_chinchilla(fit, 100.0, 25.0) == pytest.approx(62.0, rel=1e-12)


def test_predict_broadcasts():
    fit = cfit()
    ns = np.array([100.0, 400.0])
    got = predict_chinchilla(fit, ns, 25.0)
    np.testing.assert_allclose(got, [62.0, 42.0], rtol=1e-12)


def test_predict_monotone_in_n_and_d():
    fit = cfit(alpha=0.3, beta=0.4)
    ns = np.geomspace(10, 1000, 30)
    assert np.all(np.diff(predict_chinchilla(fit, ns, 25.0)) < 0)
    ds = np.geomspace(1, 100, 30)
    assert np.all(np.diff(predict_chinchilla(fit, 100.0, ds)) < 0)


def test_predict_zero_coefficients_drop_terms():
    fit = cfit(a=0.0)
    assert predict_chinchilla(fit, 100.0, 25.0) == pytest.approx(22.0, rel=1e-12)
    fit = cfit(a=0.0, b=0.0)
    assert predict_chinchilla(fit, 7.0, 3.0) == pytest.approx(2.0, rel=1e-12)


def test_predict_rejects_nonpositive_sizes():
    with pytest.raises(ValueError):
        predict_chinchilla(cfit(), 0.0, 25.0)
    with pytest.raises(ValueError):
        predict_chinchilla(cfit(), 100.0, -1.0)


def test_residual_round_trip():
    fit = cfit()
    loss = 63.5
    r = residual_target(loss, fit, 100.0, 25.0)
    assert r == pytest.approx(1.5, rel=1e-12)
    assert predict_chinchilla(fit, 100.0, 25.0) + r == pytest.approx(loss)


# -- fitting ----------------------------------------------------------------------

def frontier_from(fit, ns, ds):
    pts = []
    for n in ns:
        for d in ds:
            cfg = make_config(source="lab", model_size_n=n, data_size_d=d)
            pts.append(FrontierPoint(n=n, d=d,
                                     best_loss=float(predict_chinchilla(fit, n, d)),
                                     best_config=cfg))
    return pts


def test_fit_recovers_noiseless_parameters():
    truth = ChinchillaFit(e=1.7, a=6.2, b=1.8, alpha=0.32, beta=0.28,
                          scope=Scope("lab"), objective=0.0, n_points=0)
    pts = frontier_from(truth, np.geomspace(100, 500, 5), np.geomspace(10, 50, 4))
    fit = fit_chinchilla(pts, scope=Scope("lab"))
    for name in ("e", "a", "b", "alpha", "beta"):
        got, want = getattr(fit, name), getattr(truth, name)
        assert got == pytest.approx(want, rel=1e-3), name


def test_fit_is_deterministic():
    truth = cfit(e=1.5, a=8.0, b=2.5, alpha=0.4, beta=0.3)
    pts = frontier_from(truth, [100, 200, 400], [10, 25, 50])
    f1 = fit_chinchilla(pts, scope=Scope("lab"))
    f2 = fit_chinchilla(pts, scope=Scope("lab"))
    assert (f1.e, f1.a, f1.b, f1.alpha, f1.beta) == (f2.e, f2.a, f2.b, f2.alpha, f2.beta)


def test_fit_needs_enough_spread():
    truth = cfit()
    with pytest.raises(FitError):
        fit_chinchilla(frontier_from(truth, [100], [10, 25, 50]))  # one N value
    with pytest.raises(FitError):
        fit_chinchilla(frontier_from(truth, [100, 200], [25])[:4])  # under 5 points


# -- the lockstep multi-start fit against scipy as the oracle ------------------------

def scalar_objective(theta, log_n, log_d, log_loss, delta):
    """The Huber-on-log objective at one point, as a plain 1-D evaluation."""
    log_e, log_a, log_b, alpha, beta = theta
    pred = np.logaddexp(np.logaddexp(log_e, log_a - alpha * log_n), log_b - beta * log_d)
    r = pred - log_loss
    a = np.abs(r)
    return float(np.sum(np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))))


def minimal_frontier():
    truth = cfit(e=1.7, a=6.2, b=1.8, alpha=0.32, beta=0.28)
    return [pt for n, d in ((100.0, 10.0), (200.0, 10.0), (300.0, 25.0),
                            (100.0, 50.0), (300.0, 50.0))
            for pt in frontier_from(truth, [n], [d])]


def grid_frontier():
    truth = cfit(e=1.5, a=8.0, b=2.5, alpha=0.4, beta=0.3)
    return frontier_from(truth, [100.0, 200.0, 400.0], [10.0, 25.0, 50.0])


def noisy_grid_frontier():
    pts = frontier_from(cfit(e=1.69, a=6.4, b=1.9, alpha=0.33, beta=0.27),
                        [100.0, 215.0, 380.0, 450.0], [2.0, 10.0, 60.0])
    noise = np.random.default_rng(3).normal(0.0, 0.01, size=len(pts))
    for p, eps in zip(pts, noise):
        p.best_loss += float(eps)
    return pts


FRONTIERS = {"minimal-5": minimal_frontier, "grid": grid_frontier,
             "noisy-grid": noisy_grid_frontier}


@functools.cache
def against_scipy(name):
    """Per start: the lockstep (x, fun) and scipy's Nelder-Mead result."""
    pts = FRONTIERS[name]()
    ns = np.array([p.n for p in pts])
    ds = np.array([p.d for p in pts])
    losses = np.array([p.best_loss for p in pts])
    args = (np.log(ns), np.log(ds), np.log(losses), HUBER_DELTA)
    starts = _chinchilla_starts(ns, ds, losses)
    xs, funs = _nelder_mead_lockstep(lambda theta: _huber_objective(theta, *args), starts)
    oracle = [
        minimize(scalar_objective, x0, args=args, method="Nelder-Mead",
                 options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-14})
        for x0 in starts
    ]
    return {"points": pts, "starts": starts, "xs": xs, "funs": funs, "oracle": oracle}


def test_start_grid_is_fifty_starts_in_nested_order():
    starts = against_scipy("grid")["starts"]
    assert starts.shape == (50, 5)
    # alpha0 outermost, then beta0, then the E fraction
    assert starts[:10, 3].tolist() == [0.1] * 10
    assert starts[:10, 4].tolist() == [0.1, 0.1, 0.3, 0.3, 0.5, 0.5, 0.7, 0.7, 0.9, 0.9]
    assert starts[0, 0] < starts[1, 0]  # E fraction 0.5 before 0.9


@pytest.mark.parametrize("name", sorted(FRONTIERS))
def test_lockstep_matches_scipy_nelder_mead_start_by_start(name):
    case = against_scipy(name)
    for i, res in enumerate(case["oracle"]):
        assert np.array_equal(case["xs"][i], res.x), i
        assert case["funs"][i] == res.fun, i


def test_starts_retire_at_their_own_iteration_or_at_the_cap():
    # the start-by-start comparison covers both ways a start retires
    nits = [res.nit for res in against_scipy("noisy-grid")["oracle"]]
    assert len(set(nits)) > 10
    assert max(nits) < 4000
    assert max(res.nit for res in against_scipy("minimal-5")["oracle"]) == 4000


@pytest.mark.parametrize("name", sorted(FRONTIERS))
def test_fit_returns_the_first_start_with_the_lowest_objective(name):
    case = against_scipy(name)
    best, best_fun = None, math.inf
    for i, res in enumerate(case["oracle"]):
        if res.fun < best_fun:
            best, best_fun = i, res.fun
    fit = fit_chinchilla(case["points"])
    x = case["oracle"][best].x
    assert fit.objective == best_fun
    assert (fit.e, fit.a, fit.b) == (math.exp(x[0]), math.exp(x[1]), math.exp(x[2]))
    assert (fit.alpha, fit.beta) == (x[3], x[4])


def test_fit_breaks_ties_to_the_first_start_and_skips_nan(monkeypatch):
    xs = np.arange(250.0).reshape(50, 5) / 1000.0
    funs = np.full(50, 5.0)
    funs[0] = np.nan
    funs[[7, 9]] = 1.0
    monkeypatch.setattr(lawfit, "_nelder_mead_lockstep", lambda f, x0: (xs, funs))
    fit = fit_chinchilla(grid_frontier())
    assert fit.objective == 1.0
    assert (fit.alpha, fit.beta) == (xs[7, 3], xs[7, 4])
    funs[:] = np.nan
    with pytest.raises(FitError):
        fit_chinchilla(grid_frontier())


def test_batched_objective_equals_one_point_evaluations():
    rng = np.random.default_rng(0)
    for n_points in (5, 8, 17, 130):
        log_n = np.log(rng.uniform(50, 1000, n_points))
        log_d = np.log(rng.uniform(1, 100, n_points))
        log_loss = np.log(rng.uniform(1.8, 4.0, n_points))
        theta = np.column_stack([rng.normal(0.5, 0.2, 40), rng.normal(2.0, 1.0, 40),
                                 rng.normal(1.0, 1.0, 40), rng.uniform(0.0, 1.0, 40),
                                 rng.uniform(0.0, 1.0, 40)])
        got = _huber_objective(theta, log_n, log_d, log_loss, HUBER_DELTA)
        want = [scalar_objective(t, log_n, log_d, log_loss, HUBER_DELTA) for t in theta]
        assert got.tolist() == want, n_points


# -- frontier selection -------------------------------------------------------------

def test_best_per_group_picks_minimum_and_breaks_ties_by_run_id():
    runs = [
        run(3.2, "b", peak_lr=1e-3),
        run(3.0, "c", peak_lr=2e-3),
        run(3.0, "a", peak_lr=3e-3),
        run(2.8, "d", model_size_n=430.0),
    ]
    pts = select_best_per_group(runs)
    by_nd = {(p.n, p.d): p for p in pts}
    assert len(pts) == 2
    best = by_nd[(215.0, 25.0)]
    assert best.best_loss == 3.0 and best.best_config.peak_lr == 3e-3  # "a" < "c"


def test_power_law_recovers_exact_relationship():
    c, al, be = 3.2e-3, -0.25, 0.10
    d_bs, gamma = 96.0, 0.5
    pts = []
    for n in (130.0, 215.0, 300.0):
        for d in (10.0, 25.0):
            cfg = make_config(model_size_n=n, data_size_d=d,
                              peak_lr=c * n ** al * d ** be,
                              batch_size=d_bs * d ** gamma)
            pts.append(FrontierPoint(n=n, d=d, best_loss=3.0, best_config=cfg))
    fit = fit_power_law(pts)
    assert fit.c == pytest.approx(c, rel=1e-10)
    assert fit.alpha_lr == pytest.approx(al, rel=1e-10)
    assert fit.beta_lr == pytest.approx(be, rel=1e-10)
    assert fit.d == pytest.approx(d_bs, rel=1e-10)
    assert fit.gamma_bs == pytest.approx(gamma, rel=1e-10)
    assert fit.lr_opt(215.0, 25.0) == pytest.approx(c * 215 ** al * 25 ** be)
    assert fit.bs_opt(25.0) == pytest.approx(d_bs * 5.0)


def test_power_law_constant_optimum_gives_zero_exponents():
    pts = []
    for n in (130.0, 215.0, 300.0):
        for d in (10.0, 25.0):
            cfg = make_config(model_size_n=n, data_size_d=d,
                              peak_lr=7e-4, batch_size=256.0)
            pts.append(FrontierPoint(n=n, d=d, best_loss=3.0, best_config=cfg))
    fit = fit_power_law(pts)
    assert fit.alpha_lr == pytest.approx(0.0, abs=1e-12)
    assert fit.beta_lr == pytest.approx(0.0, abs=1e-12)
    assert fit.c == pytest.approx(7e-4, rel=1e-12)


def test_power_law_rejects_degenerate_designs():
    pts = [FrontierPoint(n=n, d=25.0, best_loss=3.0,
                         best_config=make_config(model_size_n=n))
           for n in (130.0, 215.0, 300.0)]
    with pytest.raises(FitError):
        fit_power_law(pts)  # D never varies: rank-deficient design
    with pytest.raises(FitError):
        fit_power_law(pts[:2])


# -- baselines and scoping ------------------------------------------------------------

def grid_runs(source="lab", optimizer="adamw", lr_count=3):
    runs = []
    truth = ChinchillaFit(e=1.7, a=6.2, b=1.8, alpha=0.32, beta=0.28,
                          scope=None, objective=0.0, n_points=0)
    for n in (100.0, 170.0, 250.0, 400.0):
        for d in (10.0, 25.0):
            base = float(predict_chinchilla(truth, n, d))
            for j in range(lr_count):
                runs.append(run(base + 0.05 * j, f"{source}-{optimizer}-{n}-{d}-{j}",
                                model_size_n=n, data_size_d=d,
                                optimizer=optimizer, peak_lr=1e-3 * (1 + j)))
    return runs


def test_fit_baselines_per_source_and_optimizer():
    runs = grid_runs(optimizer="adamw") + grid_runs(optimizer="lion")
    plain = fit_baselines(runs)
    assert set(plain) == {Scope("lab")}
    split = fit_baselines(runs, per_optimizer=True)
    assert set(split) == {Scope("lab", "adamw"), Scope("lab", "lion")}


def test_predictor_scope_preference_and_errors():
    runs = grid_runs()
    fits = fit_baselines(runs)
    pred = ChinchillaPredictor(fits)
    cfg = make_config(source="lab", model_size_n=100.0, data_size_d=10.0)
    assert pred.fit_for(cfg).scope == Scope("lab")
    with pytest.raises(ScopeError):
        pred.predict_final_loss(make_config(source="elsewhere"))


def test_save_load_round_trip(tmp_path):
    runs = grid_runs()
    fits = fit_baselines(runs)
    paths = save_fits(fits, tmp_path)
    loaded = load_fits(paths)
    for scope, fit in fits.items():
        got = loaded[scope]
        assert got.to_dict() == fit.to_dict()
