"""Hyperparameter selection: exhaustive grid sweeps over a predictor plus
quadratic refinement of the (learning rate, batch size) optimum in log space.

The sweep enumerates a cross-product grid of candidate values, predicts the
final loss for every valid derived configuration in one batch call, and sorts
ascending. Only the points whose derived configuration ``RunConfig`` refuses
when it is built are skipped, each with its reason; when none is left, the
SweepError names the first. A predictor that refuses the batch refuses the
sweep with its own error. Every grid axis and pinned field must name a
``RunConfig`` field.

The near-optimal points (within 1% of the minimum) then feed a least-squares
quadratic in (log lr, log bs); if the quadratic is positive definite and its
analytic vertex lies inside the swept box, the vertex is the refined optimum,
re-queried from the predictor and kept only when it does not regress past 1%
of the grid minimum.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SweepError
from .schema import RunConfig, SchemaError

NEAR_OPT_FRAC = 0.01
REFINE_SAFETY_FRAC = 0.01
MIN_QUAD_POINTS = 6
_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _check_field(name: str) -> None:
    if name not in _CONFIG_FIELDS:
        raise SchemaError(f"unknown config field '{name}'; a RunConfig has "
                          + ", ".join(_CONFIG_FIELDS))


@dataclass
class SweepGrid:
    """Cross-product grid: ordered (field, values) axes over a base config."""

    axes: list[tuple[str, list]]
    base_config: RunConfig

    def __post_init__(self):
        names = [name for name, _ in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("grid axes must name distinct fields")
        for name, values in self.axes:
            _check_field(name)
            if len(values) == 0:
                raise ValueError(f"axis '{name}' is empty")

    def size(self) -> int:
        return math.prod(len(v) for _, v in self.axes)

    def points(self):
        """Yields (grid_index, {field: value}) in row-major axis order."""
        names = [name for name, _ in self.axes]
        for i, combo in enumerate(itertools.product(*(v for _, v in self.axes))):
            yield i, dict(zip(names, combo))

    def fix(self, name: str, value) -> "SweepGrid":
        """Remove an axis and pin its field on the base config."""
        _check_field(name)
        axes = [(n, v) for n, v in self.axes if n != name]
        base = dataclasses.replace(self.base_config, **{name: value})
        return SweepGrid(axes=axes, base_config=base)

    @classmethod
    def lr_bs(
        cls,
        base_config: RunConfig,
        lr_range: tuple[float, float] = (1e-4, 3e-2),
        bs_range: tuple[float, float] = (32.0, 2048.0),
        n_lr: int = 13,
        n_bs: int = 9,
    ) -> "SweepGrid":
        """Log-spaced learning-rate x batch-size grid."""
        return cls(
            axes=[
                ("peak_lr", [float(v) for v in np.geomspace(*lr_range, n_lr)]),
                ("batch_size", [float(v) for v in np.geomspace(*bs_range, n_bs)]),
            ],
            base_config=base_config,
        )


@dataclass
class SweepResult:
    entries: list          # (config, predicted_loss, grid_index) ascending by loss
    skipped: list          # (grid_index, message)
    grid: SweepGrid

    @property
    def surface(self) -> list:
        return [(cfg, loss) for cfg, loss, _ in self.entries]

    def best(self):
        return self.entries[0]


def _fields(config: RunConfig) -> dict:
    """A config's fields by name, the base that ``_derive_config`` builds on."""
    return {name: getattr(config, name) for name in _CONFIG_FIELDS}


def _derive_config(fields: dict, assignment: dict) -> RunConfig:
    """The config of one grid point: the base config's ``fields`` with
    ``assignment`` applied, checked as it is built."""
    if "peak_lr" in assignment:
        ratio = assignment.get("min_lr_ratio", fields["min_lr_ratio"])
        if assignment.get("min_lr", fields["min_lr"]) is not None and ratio is not None:
            # the ratio is the sweep-invariant form; recompute the absolute rate,
            # unless a value is not a number, which the config names when built
            try:
                assignment = {**assignment, "min_lr": ratio * assignment["peak_lr"]}
            except TypeError:
                pass
    return RunConfig(**{**fields, **assignment})


def sweep(predictor, grid: SweepGrid) -> SweepResult:
    """Exhaustively evaluate the grid in one batch prediction. Points whose
    derived config is refused are recorded in ``skipped`` and left out;
    an error the predictor raises for the batch is raised unchanged."""
    derived, skipped = [], []
    base = _fields(grid.base_config)
    for i, assignment in grid.points():
        try:
            derived.append((i, _derive_config(base, assignment)))
        except (SchemaError, ValueError) as exc:
            skipped.append((i, str(exc)))
    if not derived:
        i, reason = skipped[0]
        raise SweepError(f"all {grid.size()} grid points invalid; first: point {i}: {reason}")
    losses = predictor.predict_final_loss_batch([cfg for _, cfg in derived])
    entries = [(cfg, float(loss), i) for (i, cfg), loss in zip(derived, losses)]
    entries.sort(key=lambda e: (e[1], e[2]))
    return SweepResult(entries=entries, skipped=skipped, grid=grid)


@dataclass
class RefinedPoint:
    lr: float
    bs: float
    fallback: bool
    reason: str = ""


def refine_optimum(surface, near_frac: float = NEAR_OPT_FRAC) -> RefinedPoint:
    """Quadratic refinement over near-optimal (lr, bs, loss) samples.

    Fits loss ~ quadratic in (log lr, log bs) on points with
    loss <= (1 + near_frac) * min and returns the analytic vertex when the
    quadratic is positive definite and the vertex lies inside the bounding
    box of all samples; otherwise falls back to the best sample, flagged with
    the reason.
    """
    pts = [(float(lr), float(bs), float(loss)) for lr, bs, loss in surface]
    if not pts:
        raise ValueError("empty surface")
    best = min(pts, key=lambda p: p[2])
    cut = (1.0 + near_frac) * best[2]
    near = [p for p in pts if p[2] <= cut]
    if len(near) < MIN_QUAD_POINTS:
        return RefinedPoint(best[0], best[1], True,
                            f"only {len(near)} near-optimal points (need {MIN_QUAD_POINTS})")

    x = np.log([p[0] for p in near])
    y = np.log([p[1] for p in near])
    z = np.array([p[2] for p in near])
    design = np.column_stack([np.ones_like(x), x, y, x * x, x * y, y * y])
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    _, c1, c2, c3, c4, c5 = coef
    det = 4.0 * c3 * c5 - c4 * c4
    # curvature indistinguishable from zero (flat or rank-deficient fits)
    # must not produce a runaway vertex
    tol = 1e-10 * max(1.0, float(np.abs(z).max()))
    if not (c3 > tol and det > tol * tol):
        return RefinedPoint(best[0], best[1], True, "quadratic not positive definite")
    vx = (-2.0 * c5 * c1 + c4 * c2) / det
    vy = (-2.0 * c3 * c2 + c4 * c1) / det
    # beyond the samples the quadratic is extrapolation, and a predictor flat
    # there (trees, input-clipped MLPs) cannot refute it
    log_lr = np.log([p[0] for p in pts])
    log_bs = np.log([p[1] for p in pts])
    if not (log_lr.min() <= vx <= log_lr.max() and log_bs.min() <= vy <= log_bs.max()):
        return RefinedPoint(best[0], best[1], True, "vertex outside the swept box")
    return RefinedPoint(float(np.exp(vx)), float(np.exp(vy)), False)


@dataclass
class Recommendation:
    best_grid_config: RunConfig
    best_grid_loss: float
    refined_point: tuple[float, float]
    refined_config: RunConfig
    refined_loss: float
    relative_loss: float          # (refined - grid best) / grid best on the predicted surface
    predicted_surface: list       # (config, predicted loss) ascending
    skipped: list
    refine_fallback: bool
    refine_reason: str = ""

    def summary(self) -> dict:
        return {
            "best_grid": {
                "peak_lr": self.best_grid_config.peak_lr,
                "batch_size": self.best_grid_config.batch_size,
                "predicted_loss": self.best_grid_loss,
            },
            "refined": {
                "peak_lr": self.refined_point[0],
                "batch_size": self.refined_point[1],
                "predicted_loss": self.refined_loss,
                "fallback": self.refine_fallback,
                "reason": self.refine_reason,
            },
            "relative_loss": self.relative_loss,
            "n_surface": len(self.predicted_surface),
            "n_skipped": len(self.skipped),
        }


def recommend(
    predictor,
    n: float,
    d: float,
    grid: SweepGrid | None = None,
    constraints: dict | None = None,
    base_config: RunConfig | None = None,
) -> Recommendation:
    """Sweep + refine at a target (N, D) under optional fixed-field constraints.

    ``base_config`` supplies the non-swept fields (source, optimizer, ...);
    when a ready-made grid is given its base_config is used instead.
    """
    if grid is None:
        if base_config is None:
            raise ValueError("need either a grid or a base_config")
        grid = SweepGrid.lr_bs(base_config)
    grid = SweepGrid(
        axes=grid.axes,
        base_config=dataclasses.replace(
            grid.base_config, model_size_n=float(n), data_size_d=float(d)
        ),
    )
    for name, value in (constraints or {}).items():
        grid = grid.fix(name, value)

    result = sweep(predictor, grid)
    best_cfg, best_loss, _ = result.best()

    axis_names = {name for name, _ in grid.axes}
    refinable = {"peak_lr", "batch_size"} & axis_names
    if refinable == {"peak_lr", "batch_size"}:
        # hold other axes at their best values, refine over the (lr, bs) plane
        others = axis_names - refinable
        plane = [
            (c.peak_lr, c.batch_size, loss)
            for c, loss, _ in result.entries
            if all(getattr(c, o) == getattr(best_cfg, o) for o in others)
        ]
        ref = refine_optimum(plane)
    else:
        ref = RefinedPoint(best_cfg.peak_lr, best_cfg.batch_size, True,
                           "lr/bs not both swept")

    refined_cfg, refined_loss = best_cfg, best_loss
    fallback, reason = ref.fallback, ref.reason
    if not ref.fallback:
        try:
            cand = _derive_config(
                _fields(best_cfg), {"peak_lr": ref.lr, "batch_size": ref.bs}
            )
            cand_loss = float(predictor.predict_final_loss_batch([cand])[0])
            if cand_loss <= (1.0 + REFINE_SAFETY_FRAC) * best_loss:
                refined_cfg, refined_loss = cand, cand_loss
            else:
                fallback, reason = True, (
                    f"refined point regressed ({cand_loss:.6f} > "
                    f"{(1 + REFINE_SAFETY_FRAC) * best_loss:.6f})"
                )
        except (SchemaError, ValueError) as exc:
            fallback, reason = True, f"refined config invalid: {exc}"

    return Recommendation(
        best_grid_config=best_cfg,
        best_grid_loss=best_loss,
        refined_point=(refined_cfg.peak_lr, refined_cfg.batch_size),
        refined_config=refined_cfg,
        refined_loss=refined_loss,
        relative_loss=(refined_loss - best_loss) / best_loss,
        predicted_surface=result.surface,
        skipped=result.skipped,
        refine_fallback=fallback,
        refine_reason=reason,
    )
