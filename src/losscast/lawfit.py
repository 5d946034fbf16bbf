"""Scaling-law baselines: Chinchilla-form loss fits and hyperparameter power laws.

The Chinchilla form  l(N, D) = E + A/N^alpha + B/D^beta  is fit to frontier
points (best run per (N, D)) by minimizing a Huber loss on log predictions,
with a multi-start Nelder-Mead over (log E, log A, log B, alpha, beta). The
50 starts advance in lockstep on one (starts, 6, 5) simplex array: each
iteration evaluates the batched objective once over every active start's
candidate points, and each start retires on its own under scipy's stopping
test. Constants and operation order are scipy's, so every start ends bitwise
where scipy.optimize.minimize(method="Nelder-Mead") would; scipy serves only
as the test oracle for it.
Predictions are evaluated in log space as a log-sum-exp of the three terms.
Optimal learning rate and batch size follow power laws
  lr*(N, D) = c * N^a * D^b      bs*(D) = d * D^g
fit by ordinary least squares on logs. N is in millions of parameters, D in
billions of tokens throughout.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, ScopeError
from .ingest import RunRecord, nd_key
from .schema import RunConfig

HUBER_DELTA = 1e-3
ALPHA_STARTS = (0.1, 0.3, 0.5, 0.7, 0.9)
E_FRACTION_STARTS = (0.5, 0.9)


@dataclass(frozen=True)
class Scope:
    """Which runs a fit covers: a source, optionally narrowed to one optimizer."""

    source: str
    optimizer: str | None = None

    def contains(self, config: RunConfig) -> bool:
        if config.source != self.source:
            return False
        return self.optimizer is None or config.optimizer == self.optimizer

    def tag(self) -> str:
        return self.source if self.optimizer is None else f"{self.source}.{self.optimizer}"


@dataclass
class ChinchillaFit:
    e: float
    a: float
    b: float
    alpha: float
    beta: float
    scope: Scope
    objective: float = math.nan
    n_points: int = 0

    def to_dict(self) -> dict:
        return {
            "form": "chinchilla",
            "E": self.e, "A": self.a, "B": self.b,
            "alpha": self.alpha, "beta": self.beta,
            "scope": {"source": self.scope.source, "optimizer": self.scope.optimizer},
            "objective": self.objective,
            "n_points": self.n_points,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChinchillaFit":
        return cls(
            e=d["E"], a=d["A"], b=d["B"], alpha=d["alpha"], beta=d["beta"],
            scope=Scope(d["scope"]["source"], d["scope"]["optimizer"]),
            objective=d.get("objective", math.nan),
            n_points=d.get("n_points", 0),
        )


@dataclass
class PowerLawFit:
    c: float
    alpha_lr: float
    beta_lr: float
    d: float
    gamma_bs: float
    scope: Scope | None = None

    def lr_opt(self, n, d):
        return self.c * np.power(n, self.alpha_lr) * np.power(d, self.beta_lr)

    def bs_opt(self, d):
        return self.d * np.power(d, self.gamma_bs)

    def to_dict(self) -> dict:
        return {
            "form": "power_law",
            "c": self.c, "alpha_lr": self.alpha_lr, "beta_lr": self.beta_lr,
            "d": self.d, "gamma_bs": self.gamma_bs,
            "scope": None if self.scope is None else
                {"source": self.scope.source, "optimizer": self.scope.optimizer},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PowerLawFit":
        scope = data.get("scope")
        return cls(
            c=data["c"], alpha_lr=data["alpha_lr"], beta_lr=data["beta_lr"],
            d=data["d"], gamma_bs=data["gamma_bs"],
            scope=None if scope is None else Scope(scope["source"], scope["optimizer"]),
        )


@dataclass
class FrontierPoint:
    n: float
    d: float
    best_loss: float
    best_config: RunConfig
    run_id: str = ""


# -- frontier selection --------------------------------------------------------

def select_best_per_group(runs, scope: Scope | None = None) -> list[FrontierPoint]:
    """Lowest-final-loss run per (N, D) within scope; ties break on run_id."""
    best: dict[tuple[float, float], RunRecord] = {}
    for r in runs:
        if r.final_loss is None:
            continue
        if scope is not None and not scope.contains(r.config):
            continue
        key = nd_key(r.config)
        cur = best.get(key)
        if (
            cur is None
            or r.final_loss < cur.final_loss
            or (r.final_loss == cur.final_loss and r.run_id < cur.run_id)
        ):
            best[key] = r
    return [
        FrontierPoint(n=key[0], d=key[1], best_loss=best[key].final_loss,
                      best_config=best[key].config, run_id=best[key].run_id)
        for key in sorted(best)
    ]


# -- Chinchilla fit --------------------------------------------------------------

def predict_chinchilla(fit: ChinchillaFit, n, d):
    """E + A/N^alpha + B/D^beta, evaluated via log-sum-exp."""
    n = np.asarray(n, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if np.any(n <= 0) or np.any(d <= 0):
        raise ValueError("N and D must be positive")
    log_e = math.log(fit.e)
    log_a = math.log(fit.a) if fit.a > 0 else -math.inf
    log_b = math.log(fit.b) if fit.b > 0 else -math.inf
    base = log_e + np.zeros(np.broadcast(n, d).shape)
    acc = np.logaddexp(
        np.logaddexp(base, log_a - fit.alpha * np.log(n)),
        log_b - fit.beta * np.log(d),
    )
    out = np.exp(acc)
    return float(out) if out.ndim == 0 else out


def residual_target(p, fit: ChinchillaFit, n, d):
    """Observed loss minus the baseline prediction at (N, D)."""
    return p - predict_chinchilla(fit, n, d)


def _huber_objective(theta, log_n, log_d, log_loss, delta) -> np.ndarray:
    """Huber loss of the log-space Chinchilla form, one value per row of theta.

    theta is (m, 5): rows of (log E, log A, log B, alpha, beta). Each row's sum
    runs over a contiguous row of residuals, so it is the same pairwise sum
    that a single 1-D evaluation makes.
    """
    log_e, log_a, log_b, alpha, beta = (theta[:, k:k + 1] for k in range(5))
    pred = np.logaddexp(
        np.logaddexp(log_e, log_a - alpha * log_n),
        log_b - beta * log_d,
    )
    r = pred - log_loss
    a = np.abs(r)
    return np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta)).sum(axis=1)


# Nelder-Mead constants and stopping test, as in scipy.optimize.minimize
# (method="Nelder-Mead", not adaptive) with the options below.
NM_RHO, NM_CHI, NM_PSI, NM_SIGMA = 1, 2, 0.5, 0.5
NM_NONZDELT, NM_ZDELT = 0.05, 0.00025
NM_MAXITER, NM_XATOL, NM_FATOL = 4000, 1e-10, 1e-14


def _sort_simplices(sim: np.ndarray, fsim: np.ndarray):
    """Order each start's vertices by value, as scipy's per-simplex argsort does."""
    ind = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, ind], fsim[rows, ind]


def _nelder_mead_lockstep(f, x0: np.ndarray):
    """Nelder-Mead from every row of x0 at once, on a (starts, k+1, k) simplex array.

    ``f`` maps (m, k) points to (m,) values. Each iteration evaluates the
    reflection, expansion and both contractions of every active start in one
    call, picks each start's branch by mask, shrinks only the starts that need
    it, and re-sorts each simplex. A start retires on its own when it meets the
    xatol/fatol test or the iteration cap. Every operation follows scipy's
    order, so each start's (x, fun) is bitwise what
    ``scipy.optimize.minimize(f1, x0[i], method="Nelder-Mead", options=
    {"maxiter": NM_MAXITER, "xatol": NM_XATOL, "fatol": NM_FATOL})`` returns
    for the one-point objective ``f1``.
    """
    n_starts, k = x0.shape
    sim = np.repeat(x0[:, None, :], k + 1, axis=1)
    diag = np.arange(k)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + NM_NONZDELT) * x0, NM_ZDELT)
    fsim = f(sim.reshape(-1, k)).reshape(n_starts, k + 1)
    # scipy sorts the initial simplex twice; argsort is not stable, so the
    # second sort may reorder ties
    sim, fsim = _sort_simplices(*_sort_simplices(sim, fsim))

    x_out = np.empty((n_starts, k))
    f_out = np.empty(n_starts)
    active = np.arange(n_starts)
    for _ in range(1, NM_MAXITER):
        done = (
            (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= NM_XATOL)
            & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= NM_FATOL)
        )
        if done.any():
            x_out[active[done]] = sim[done, 0]
            f_out[active[done]] = fsim[done].min(axis=1)
            keep = ~done
            active, sim, fsim = active[keep], sim[keep], fsim[keep]
            if active.size == 0:
                break

        xbar = np.add.reduce(sim[:, :-1], 1) / k
        worst = sim[:, -1]
        # reflection, expansion, outside and inside contraction
        cand = np.stack([
            (1 + NM_RHO) * xbar - NM_RHO * worst,
            (1 + NM_RHO * NM_CHI) * xbar - NM_RHO * NM_CHI * worst,
            (1 + NM_PSI * NM_RHO) * xbar - NM_PSI * NM_RHO * worst,
            (1 - NM_PSI) * xbar + NM_PSI * worst,
        ])
        fcand = f(cand.reshape(-1, k)).reshape(4, -1)
        fxr, fxe, fxc, fxcc = fcand

        expand = fxr < fsim[:, 0]
        contract = ~expand & ~(fxr < fsim[:, -2])
        outside = contract & (fxr < fsim[:, -1])
        inside = contract & ~outside
        pick = np.where(expand & (fxe < fxr), 1, np.where(outside, 2, np.where(inside, 3, 0)))
        shrink = (outside & ~(fxc <= fxr)) | (inside & ~(fxcc < fsim[:, -1]))
        shrinking = shrink.any()
        if shrinking:  # from the simplex before its worst vertex is replaced
            best = sim[shrink, :1]
            shrunk = best + NM_SIGMA * (sim[shrink, 1:] - best)
        rows = np.arange(len(active))
        sim[:, -1] = cand[pick, rows]
        fsim[:, -1] = fcand[pick, rows]
        if shrinking:
            sim[shrink, 1:] = shrunk
            fsim[shrink, 1:] = f(shrunk.reshape(-1, k)).reshape(-1, k)
        sim, fsim = _sort_simplices(sim, fsim)

    x_out[active] = sim[:, 0]
    f_out[active] = fsim.min(axis=1)
    return x_out, f_out


def _chinchilla_starts(ns, ds, losses) -> np.ndarray:
    """The start grid, one row per (alpha0, beta0, E fraction) in nested order."""
    l_min = float(losses.min())
    starts = []
    for a0 in ALPHA_STARTS:
        for b0 in ALPHA_STARTS:
            for q in E_FRACTION_STARTS:
                e0 = q * l_min
                resid = np.maximum(losses - e0, 1e-6)
                a_coef = max(0.5 * float(np.mean(resid * ns**a0)), 1e-8)
                b_coef = max(0.5 * float(np.mean(resid * ds**b0)), 1e-8)
                starts.append([math.log(e0), math.log(a_coef), math.log(b_coef), a0, b0])
    return np.array(starts)


def fit_chinchilla(
    points: list[FrontierPoint],
    scope: Scope | None = None,
    delta: float = HUBER_DELTA,
) -> ChinchillaFit:
    """Multi-start simplex fit of the Chinchilla form on frontier points.

    Requires at least 5 points spanning at least 2 distinct N and 2 distinct D.
    The returned optimum is the first start with the lowest objective, so it
    never exceeds any start's objective.
    """
    if len(points) < 5:
        raise FitError(f"need at least 5 frontier points, got {len(points)}")
    ns = np.array([p.n for p in points], dtype=np.float64)
    ds = np.array([p.d for p in points], dtype=np.float64)
    losses = np.array([p.best_loss for p in points], dtype=np.float64)
    if len(set(ns.tolist())) < 2 or len(set(ds.tolist())) < 2:
        raise FitError("frontier must span at least 2 distinct N and 2 distinct D")
    if np.any(losses <= 0):
        raise FitError("frontier losses must be positive")

    log_n, log_d, log_loss = np.log(ns), np.log(ds), np.log(losses)
    xs, funs = _nelder_mead_lockstep(
        lambda theta: _huber_objective(theta, log_n, log_d, log_loss, delta),
        _chinchilla_starts(ns, ds, losses),
    )
    best = int(np.argmin(np.where(np.isnan(funs), np.inf, funs)))
    best_obj = float(funs[best])
    if not math.isfinite(best_obj):
        raise FitError("chinchilla fit failed to converge from any start")
    log_e, log_a, log_b, alpha, beta = xs[best]
    return ChinchillaFit(
        e=math.exp(log_e), a=math.exp(log_a), b=math.exp(log_b),
        alpha=float(alpha), beta=float(beta),
        scope=scope or Scope("unscoped"),
        objective=best_obj, n_points=len(points),
    )


# -- power-law fit ---------------------------------------------------------------

def fit_power_law(frontier: list[FrontierPoint], scope: Scope | None = None) -> PowerLawFit:
    """OLS on logs of the frontier configs' (lr, batch size) against (N, D)."""
    if len(frontier) < 3:
        raise FitError(f"need at least 3 frontier points, got {len(frontier)}")
    ns = np.array([p.n for p in frontier])
    ds = np.array([p.d for p in frontier])
    lrs = np.array([p.best_config.peak_lr for p in frontier])
    bss = np.array([p.best_config.batch_size for p in frontier])
    if len(set(ns.tolist())) < 2 or len(set(ds.tolist())) < 2:
        raise FitError("frontier must span at least 2 distinct N and 2 distinct D")
    if np.any(lrs <= 0) or np.any(bss <= 0):
        raise FitError("frontier configs must carry positive lr and batch size")

    x_lr = np.column_stack([np.ones(len(ns)), np.log(ns), np.log(ds)])
    if np.linalg.matrix_rank(x_lr) < 3:
        raise FitError("log N and log D are collinear; learning-rate law unidentifiable")
    coef_lr, *_ = np.linalg.lstsq(x_lr, np.log(lrs), rcond=None)

    x_bs = np.column_stack([np.ones(len(ds)), np.log(ds)])
    if np.linalg.matrix_rank(x_bs) < 2:
        raise FitError("log D is constant; batch-size law unidentifiable")
    coef_bs, *_ = np.linalg.lstsq(x_bs, np.log(bss), rcond=None)

    return PowerLawFit(
        c=math.exp(coef_lr[0]), alpha_lr=float(coef_lr[1]), beta_lr=float(coef_lr[2]),
        d=math.exp(coef_bs[0]), gamma_bs=float(coef_bs[1]),
        scope=scope,
    )


# -- scoped fitting and the baseline predictor -----------------------------------

def fit_baselines(
    train_runs: list[RunRecord],
    per_optimizer: bool = False,
    delta: float = HUBER_DELTA,
) -> dict[Scope, ChinchillaFit]:
    """One Chinchilla fit per source (optionally per (source, optimizer)).

    Scopes with too few frontier points to fit are skipped rather than fatal,
    but at least one scope must succeed.
    """
    scopes: list[Scope] = []
    sources = sorted({r.config.source for r in train_runs})
    for src in sources:
        if per_optimizer:
            opts = sorted({r.config.optimizer for r in train_runs if r.config.source == src})
            scopes.extend(Scope(src, opt) for opt in opts)
        else:
            scopes.append(Scope(src))

    fits: dict[Scope, ChinchillaFit] = {}
    for scope in scopes:
        points = select_best_per_group(train_runs, scope)
        try:
            fits[scope] = fit_chinchilla(points, scope=scope, delta=delta)
        except FitError:
            continue
    if not fits:
        raise FitError("no scope had enough frontier points for a Chinchilla fit")
    return fits


class ChinchillaPredictor:
    """Configuration-agnostic baseline: predicts purely from (source, N, D).

    Lookup prefers an optimizer-scoped fit when one exists, then falls back
    to the source-level fit.
    """

    def __init__(self, fits: dict[Scope, ChinchillaFit]):
        if not fits:
            raise ScopeError("predictor needs at least one fit")
        self.fits = dict(fits)

    def fit_for(self, config: RunConfig) -> ChinchillaFit:
        keyed = Scope(config.source, config.optimizer)
        if keyed in self.fits:
            return self.fits[keyed]
        plain = Scope(config.source)
        if plain in self.fits:
            return self.fits[plain]
        raise ScopeError(f"no baseline fit covers source '{config.source}'")

    def predict_final_loss(self, config: RunConfig) -> float:
        return float(self.predict_final_loss_batch([config])[0])

    def predict_final_loss_batch(self, configs: list[RunConfig]) -> np.ndarray:
        """One ``predict_chinchilla`` call per fit scope over its configs."""
        groups: dict[int, tuple[ChinchillaFit, list[int]]] = {}
        for i, config in enumerate(configs):
            fit = self.fit_for(config)
            groups.setdefault(id(fit), (fit, []))[1].append(i)
        out = np.empty(len(configs), dtype=np.float64)
        for fit, idx in groups.values():
            n = [configs[i].model_size_n for i in idx]
            d = [configs[i].data_size_d for i in idx]
            out[idx] = predict_chinchilla(fit, n, d)
        return out


def save_fits(fits, out_dir: str | os.PathLike) -> list[str]:
    """One human-readable JSON parameter file per scope; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    items = fits.items() if isinstance(fits, dict) else [(f.scope, f) for f in fits]
    for scope, fit in items:
        tag = scope.tag() if scope is not None else "unscoped"
        path = os.path.join(out_dir, f"{fit.to_dict()['form']}_{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fit.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def load_fits(paths) -> dict[Scope, ChinchillaFit | PowerLawFit]:
    fits: dict[Scope, ChinchillaFit | PowerLawFit] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        fit: ChinchillaFit | PowerLawFit
        if data.get("form") == "power_law":
            fit = PowerLawFit.from_dict(data)
        else:
            fit = ChinchillaFit.from_dict(data)
        fits[fit.scope or Scope("unscoped")] = fit
    return fits
