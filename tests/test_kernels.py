"""The hot loops (EMA smoothing and slope scan in ingest, split search and
forest traversal in gbt) against brute-force re-implementations."""

import os
import subprocess
import sys

import numpy as np
import pytest

import losscast
from losscast.gbt import _best_split, _forest_predict
from losscast.ingest import _max_window_slope, smooth_curve


def ema_reference(x, coeff):
    out = np.empty_like(np.asarray(x, dtype=np.float64))
    out[0] = x[0]
    for t in range(1, len(x)):
        out[t] = coeff * out[t - 1] + (1.0 - coeff) * x[t]
    return out


def max_slope_reference(steps, losses, window):
    if window < 2 or len(losses) < window:
        return -np.inf
    w = window - 1
    best = -np.inf
    for i in range(len(losses) - w):
        best = max(best, (losses[i + w] - losses[i]) / (steps[i + w] - steps[i]))
    return best


def best_split_reference(x, y, min_leaf):
    # same tie policy as the kernel: ascending features, ascending cuts,
    # strictly-greater gain to switch
    n = len(y)
    total = np.cumsum(y)[-1]
    base = total * total / n
    best = (-1, 0.0, 0.0, 0)
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs, ys = x[order, f], y[order]
        pre = np.cumsum(ys)
        for k in range(min_leaf, n - min_leaf + 1):
            if xs[k - 1] == xs[k]:
                continue
            ls = pre[k - 1]
            rs = total - ls
            gain = ls * ls / k + rs * rs / (n - k) - base
            if gain > best[2]:
                best = (f, 0.5 * (xs[k - 1] + xs[k]), gain, k)
    return best


def presorted_split(x, y, min_leaf):
    """The split kernel on a node holding every row of x, with each column's
    row list presorted by a stable argsort."""
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1, kind="stable")
    return _best_split(xt, y, np.arange(len(y)), order, min_leaf)


def test_ema_matches_reference(rng):
    for size in (1, 2, 7, 300, 800):
        x = rng.normal(size=size)
        for coeff in (0.0, 0.5, 0.99, 0.999):
            got = smooth_curve(x, coeff)
            want = ema_reference(x, coeff)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (size, coeff)


def test_ema_constant_is_identity():
    x = np.full(50, 3.25)
    np.testing.assert_array_equal(smooth_curve(x, 0.99), x)


def test_ema_two_points():
    got = smooth_curve(np.array([1.0, 2.0]), 0.99)
    np.testing.assert_allclose(got, [1.0, 0.99 * 1.0 + 0.01 * 2.0], rtol=0, atol=0)


def test_max_slope_matches_reference(rng):
    for size in (1, 2, 5, 40, 200):
        steps = np.cumsum(rng.integers(1, 20, size=size)).astype(np.float64)
        losses = rng.normal(size=size)
        for window in (1, 2, 3, size // 2 + 1, size + 3):
            got = _max_window_slope(steps, losses, window)
            want = max_slope_reference(steps, losses, window)
            assert got == want, (size, window)


def test_max_slope_monotone_decrease_is_negative():
    steps = np.arange(10, dtype=np.float64)
    losses = 5.0 - 0.5 * steps
    assert _max_window_slope(steps, losses, 3) == pytest.approx(-0.5)


def test_best_split_exhaustive_oracle(rng):
    # oracle enumerates every (feature, cut) pair with direct SSE arithmetic
    for trial in range(20):
        n = int(rng.integers(8, 40))
        x = rng.normal(size=(n, 3))
        if trial % 3 == 0:
            x = np.round(x, 1)  # force ties / duplicate values
        y = rng.normal(size=n)
        min_leaf = int(rng.integers(1, 4))
        got = presorted_split(x, y, min_leaf)
        want = best_split_reference(x, y, min_leaf)
        assert got[0] == want[0], trial
        if got[0] >= 0:
            assert got[1] == pytest.approx(want[1], abs=0)
            assert got[2] == pytest.approx(want[2], rel=1e-12)
            assert got[3] == want[3]


def test_best_split_simple_step():
    x = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    f, thr, gain, n_left = presorted_split(x, y, 1)
    assert f == 0 and thr == 0.5 and n_left == 2
    assert gain == pytest.approx(0.0 + 4.0 / 2 - 4.0 / 4)  # 0^2/2 + 2^2/2 - 2^2/4


def test_best_split_constant_feature_finds_nothing():
    x = np.zeros((10, 2))
    y = np.arange(10.0)
    assert presorted_split(x, y, 1)[0] == -1


def test_forest_predict_matches_python_walk(rng):
    # one manual stump: feature 0 <= 0.5 -> -1 else +2, plus a leaf-only tree
    feature = np.array([0, -1, -1, -1], dtype=np.int64)
    threshold = np.array([0.5, 0.0, 0.0, 0.0])
    left = np.array([1, -1, -1, -1], dtype=np.int64)
    right = np.array([2, -1, -1, -1], dtype=np.int64)
    value = np.array([0.0, -1.0, 2.0, 0.25])
    offsets = np.array([0, 3], dtype=np.int64)
    x = rng.normal(size=(50, 2))
    got = _forest_predict(x, feature, threshold, left, right, value, offsets)
    want = np.where(x[:, 0] <= 0.5, -1.0, 2.0) + 0.25
    np.testing.assert_array_equal(got, want)


def test_imports_load_no_numba_and_no_unused_scipy():
    # scipy.signal would cost every command more start-up time than its lfilter
    # could save in the EMA; scipy.interpolate and scipy.ndimage serve only the
    # contour export, which imports them itself; numba is not a dependency
    src = os.path.dirname(os.path.dirname(losscast.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, losscast.cli, losscast.gbt, losscast.ingest; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'numba' or m.split('.')[:2] in "
            "(['scipy', 'signal'], ['scipy', 'interpolate'], ['scipy', 'ndimage'])))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
