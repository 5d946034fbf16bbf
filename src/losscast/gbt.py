"""Gradient-boosted regression trees on the same residual targets.

Squared-error boosting with exact greedy split search (variance-reduction
criterion over every feature and threshold), depth-limited trees, mean-value
leaves and shrinkage. Categorical fields enter as one-hot indicator columns.
Split ties break toward the lowest feature index, then the lowest threshold,
so a fixed dataset always yields an identical forest.

Boosting runs over the design columns that vary on the training rows only:
a constant column has no boundary, so it can never win a split, and dropping
it changes nothing. Each kept column is argsorted once per fit, stably, and a
split stably partitions every sorted row list of the node, so each node sees
its rows in the (value, row) order a fresh stable sort would give. That is the
column-block layout of exact greedy in XGBoost (Chen & Guestrin 2016). Chosen
features are stored in full-design coordinates, so ``.gbt`` dumps,
``n_features`` and prediction see the full one-hot design.

The two hot loops live here: ``_best_split`` scans every kept feature of a
node and ``_forest_predict`` routes a batch of rows through the flattened
forest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError
from .features import design_column_names, encode_batch, one_hot_matrix
from .ingest import DatasetSplits
from .lawfit import ChinchillaPredictor
from .regressor import build_training_rows, training_schema
from .schema import RunConfig, Schema, check_types, read_saved


@dataclass
class GBTParams:
    rounds: int = 500
    max_depth: int = 6
    learning_rate: float = 0.05
    min_leaf: int = 5

    def __post_init__(self):
        check_types(self, ValueError)
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")


def _best_split(xt: np.ndarray, y: np.ndarray, rows: np.ndarray, order: np.ndarray,
                min_leaf: int):
    """(feature, threshold, gain, n_left) of a node's best split; feature -1 if none.

    ``xt`` is the design transposed to (features, n) and ``y`` the full target.
    The node holds ``rows`` in ascending order, and ``order[f]`` lists the same
    rows sorted by feature f with ties in row order, which is what a stable
    argsort of the node's own column gives. Candidate boundaries sit between
    distinct consecutive sorted values; gain is the SSE reduction
    ls^2/nl + rs^2/nr - total^2/n. Ties break toward the lowest feature index,
    then the lowest threshold: ``argmax`` takes the first maximum of a sorted
    column, and a later feature must be strictly better. ``total`` is the last
    prefix sum over the node's rows in row order, not ``np.sum`` (which sums
    pairwise), so every sum accumulates left to right and the splits, and with
    them the ``.gbt`` dumps, stay bitwise fixed.
    """
    n = rows.size
    total = float(np.cumsum(y[rows])[-1])
    base = total * total / n
    best_feat = -1
    best_thr = 0.0
    best_gain = 0.0
    best_nl = 0
    if n < 2 * min_leaf:
        return best_feat, best_thr, best_gain, best_nl
    ks = np.arange(min_leaf, n - min_leaf + 1)
    xs = np.take_along_axis(xt, order, axis=1)
    prefix = np.cumsum(y[order], axis=1)
    ls = prefix[:, ks - 1]
    rs = total - ls
    gains = ls * ls / ks + rs * rs / (n - ks) - base
    gains[xs[:, ks - 1] == xs[:, ks]] = -np.inf
    for f, j in enumerate(np.argmax(gains, axis=1)):
        if gains[f, j] > best_gain:
            best_gain = float(gains[f, j])
            best_feat = f
            k = int(ks[j])
            best_thr = 0.5 * (xs[f, k - 1] + xs[f, k])
            best_nl = k
    return best_feat, best_thr, best_gain, best_nl


def _forest_predict(x, feature, threshold, left, right, value, offsets) -> np.ndarray:
    """Sum of per-tree leaf values, walking all rows one tree level at a time.

    ``offsets[t]`` is the root index of tree t, internal nodes have
    feature >= 0, and rows go left when x[feature] <= threshold.
    """
    n = x.shape[0]
    out = np.zeros(n, dtype=np.float64)
    rows = np.arange(n)
    for t in range(offsets.size):
        idx = np.full(n, offsets[t], dtype=np.int64)
        active = feature[idx] >= 0
        while np.any(active):
            cur = idx[active]
            go_left = x[rows[active], feature[cur]] <= threshold[cur]
            idx[active] = np.where(go_left, left[cur], right[cur])
            active = feature[idx] >= 0
        out += value[idx]
    return out


_NODE_ROW = np.dtype([("feature", np.int64), ("threshold", np.float64),
                      ("left", np.int64), ("right", np.int64), ("value", np.float64)])


@dataclass
class BoostedForest:
    """Flattened forest: parallel node arrays, one root offset per tree.

    Internal nodes have feature >= 0 and route x[feature] <= threshold to
    ``left``. Leaves have feature == -1 and carry their value. Prediction is
    base_score + learning_rate * sum of per-tree leaf values.
    """

    base_score: float
    learning_rate: float
    n_features: int
    feature: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    threshold: np.ndarray = field(default_factory=lambda: np.zeros(0, np.float64))
    left: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    right: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    value: np.ndarray = field(default_factory=lambda: np.zeros(0, np.float64))
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def n_trees(self) -> int:
        return int(self.offsets.size)

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"design matrix has {x.shape[1] if x.ndim == 2 else '?'} features, "
                f"forest expects {self.n_features}"
            )
        out = np.full(x.shape[0], self.base_score, dtype=np.float64)
        if self.n_trees():
            out += self.learning_rate * _forest_predict(
                x, self.feature, self.threshold, self.left, self.right,
                self.value, self.offsets,
            )
        return out

    # -- textual dump ------------------------------------------------------

    def dump_text(self) -> str:
        lines = [
            f"forest base_score={self.base_score!r} learning_rate={self.learning_rate!r} "
            f"n_features={self.n_features} n_trees={self.n_trees()} n_nodes={self.feature.size}"
        ]
        for t in range(self.n_trees()):
            lines.append(f"tree {t} root={int(self.offsets[t])}")
        for i in range(self.feature.size):
            if self.feature[i] < 0:
                lines.append(f"node {i} leaf value={float(self.value[i])!r}")
            else:
                lines.append(
                    f"node {i} feature={int(self.feature[i])} "
                    f"threshold={float(self.threshold[i])!r} "
                    f"left={int(self.left[i])} right={int(self.right[i])}"
                )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BoostedForest":
        """Parse a ``dump_text`` forest and check it.

        Every tree and node must be defined exactly once, as many as the header
        says; features lie in [-1, n_features); roots index nodes, and children
        come after their parent, as in a preorder dump, so every walk ends at a
        leaf. Anything else raises SchemaError.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        roots: dict[int, int] = {}
        nodes: dict[int, tuple[int, float, int, int, float]] = {}
        try:
            head = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
            n_features = int(head["n_features"])
            n_trees = int(head["n_trees"])
            n_nodes = int(head["n_nodes"])
            for ln in lines[1:]:
                parts = ln.split()
                kind, i = parts[0], int(parts[1])
                table = {"tree": roots, "node": nodes}[kind]
                if i in table:
                    raise SchemaError(f"GBT dump defines {kind} {i} twice")
                if kind == "tree":
                    roots[i] = int(parts[2].split("root=", 1)[1])
                elif parts[2] == "leaf":
                    nodes[i] = (-1, 0.0, -1, -1, float(ln.split("value=", 1)[1]))
                else:
                    kv = dict(p.split("=", 1) for p in parts[2:])
                    nodes[i] = (int(kv["feature"]), float(kv["threshold"]),
                                int(kv["left"]), int(kv["right"]), 0.0)
            base_score = float(head["base_score"])
            learning_rate = float(head["learning_rate"])
        except (IndexError, KeyError, ValueError) as exc:
            raise SchemaError(f"malformed GBT dump: {exc!r}") from None

        for kind, table, count in (("tree", roots, n_trees), ("node", nodes, n_nodes)):
            if len(table) != count:
                raise SchemaError(f"GBT dump has {len(table)} {kind}s, header says {count}")
            missing = sorted(set(range(count)) - table.keys())
            if missing:
                raise SchemaError(f"GBT dump never defines {kind} {missing[0]}")
        for t, root in roots.items():
            if not 0 <= root < n_nodes:
                raise SchemaError(f"GBT dump tree {t} has root {root} outside [0, {n_nodes})")
        for i, (feat, _, left, right, _) in nodes.items():
            if not -1 <= feat < n_features:
                raise SchemaError(
                    f"GBT dump node {i} has feature {feat} outside [-1, {n_features})")
            if feat >= 0 and not (i < left < n_nodes and i < right < n_nodes):
                raise SchemaError(
                    f"GBT dump node {i} has children {left}, {right} outside ({i}, {n_nodes})")

        return cls.from_nodes(base_score, learning_rate, n_features,
                              [nodes[i] for i in range(n_nodes)],
                              [roots[t] for t in range(n_trees)])

    @classmethod
    def from_nodes(cls, base_score: float, learning_rate: float, n_features: int,
                   nodes: list[tuple[int, float, int, int, float]],
                   roots: list[int]) -> "BoostedForest":
        """Forest from preorder ``(feature, threshold, left, right, value)`` node
        rows with forest-wide child indices, and the root index of each tree."""
        table = np.array(nodes, dtype=_NODE_ROW)
        return cls(base_score=base_score, learning_rate=learning_rate,
                   n_features=n_features,
                   **{name: np.ascontiguousarray(table[name]) for name in _NODE_ROW.names},
                   offsets=np.array(roots, dtype=np.int64))


class _ForestBuilder:
    """Grows every tree of one fit into a single preorder node table.

    A tree's root is the table length when it starts, so child indices are
    forest-wide from the outset. Features are stored in full-design
    coordinates. After each tree, ``leaf_of_row`` holds every row's leaf value.
    """

    def __init__(self, xt, cols, min_leaf):
        self.xt = xt
        self.cols = cols
        self.min_leaf = min_leaf
        self.leaf_of_row = np.zeros(xt.shape[1], dtype=np.float64)
        self.nodes: list[tuple[int, float, int, int, float] | None] = []
        self.roots: list[int] = []

    def add_tree(self, y, order, max_depth) -> None:
        self.y = y
        self.roots.append(self._build(np.arange(y.size), order, max_depth))

    def _build(self, rows, order, depth_left) -> int:
        idx = len(self.nodes)
        self.nodes.append(None)  # the parent's row precedes its subtrees
        if depth_left == 0 or rows.size < 2 * self.min_leaf:
            return self._close_leaf(idx, rows)
        feat, thr, gain, _ = _best_split(self.xt, self.y, rows, order, self.min_leaf)
        if feat < 0 or gain <= 0.0:
            return self._close_leaf(idx, rows)
        # boolean filtering keeps each sorted list sorted and the rows ascending
        go_left = self.xt[feat] <= thr
        row_left, order_left = go_left[rows], go_left[order]
        n_feat = order.shape[0]
        left = self._build(rows[row_left], order[order_left].reshape(n_feat, -1),
                           depth_left - 1)
        right = self._build(rows[~row_left], order[~order_left].reshape(n_feat, -1),
                            depth_left - 1)
        self.nodes[idx] = (int(self.cols[feat]), float(thr), left, right, 0.0)
        return idx

    def _close_leaf(self, idx, rows) -> int:
        v = float(np.mean(self.y[rows]))
        self.leaf_of_row[rows] = v
        self.nodes[idx] = (-1, 0.0, -1, -1, v)
        return idx


def fit_gbt_arrays(x: np.ndarray, y: np.ndarray, params: GBTParams = GBTParams()) -> BoostedForest:
    """Boost on a prepared design matrix. Returns the forest and nothing else;
    training MSE per round is recoverable from predictions if needed. The split
    search sees only the varying columns, presorted once (module docstring)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be (n, d) and y (n,) with matching n")
    n = y.shape[0]
    if n == 0:
        raise ValueError("empty dataset")
    if n < 2 * params.min_leaf:
        raise ValueError(f"need at least {2 * params.min_leaf} examples, got {n}")

    cols = np.flatnonzero(np.any(x != x[0], axis=0))
    xt = np.ascontiguousarray(x[:, cols].T)
    order = np.argsort(xt, axis=1, kind="stable")
    base = float(np.mean(y))
    residual = y - base
    builder = _ForestBuilder(xt, cols, params.min_leaf)
    for _ in range(params.rounds):
        builder.add_tree(residual, order, params.max_depth)
        residual = residual - params.learning_rate * builder.leaf_of_row
    return BoostedForest.from_nodes(base, params.learning_rate, x.shape[1],
                                    builder.nodes, builder.roots)


class GBTPredictor:
    """Boosted-forest analog of the neural predictor: baseline + residual."""

    def __init__(self, forest: BoostedForest, schema: Schema, baseline: ChinchillaPredictor):
        self.forest = forest
        self.schema = schema
        self.baseline = baseline

    def _residuals(self, configs: list[RunConfig]) -> np.ndarray:
        """One forest pass over every config's design row."""
        x_num, x_cat = encode_batch(self.schema, configs)
        return self.forest.predict(one_hot_matrix(self.schema, x_num, x_cat))

    def predict_final_loss(self, config: RunConfig) -> float:
        return float(self.predict_final_loss_batch([config])[0])

    def predict_final_loss_batch(self, configs: list[RunConfig]) -> np.ndarray:
        return self.baseline.predict_final_loss_batch(configs) + self._residuals(configs)

    def save(self, path: str) -> None:
        header = {
            **self.schema.to_saved(),
            "columns": design_column_names(self.schema),
            "baselines": self.baseline.dump(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("#losscast-gbt-1 " + json.dumps(header, sort_keys=True,
                                                     separators=(",", ":")) + "\n")
            fh.write(self.forest.dump_text())

    @classmethod
    def load(cls, path: str) -> "GBTPredictor":
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first.startswith("#losscast-gbt-1 "):
                raise SchemaError("not a losscast GBT dump")
            header = read_saved(first.split(" ", 1)[1],
                                ("schema", "schema_hash", "columns", "baselines"),
                                "GBT dump header")
            forest = BoostedForest.from_text(fh.read())
        schema = Schema.from_saved(header)
        if header["columns"] != design_column_names(schema):
            raise SchemaError("GBT dump columns do not match its schema's design")
        if forest.n_features != len(header["columns"]):
            raise SchemaError(
                f"GBT forest has {forest.n_features} features, "
                f"its header {len(header['columns'])} columns"
            )
        baseline = ChinchillaPredictor.from_dump(header["baselines"])
        return cls(forest=forest, schema=schema, baseline=baseline)


def fit_gbt(
    splits: DatasetSplits,
    baseline: ChinchillaPredictor,
    params: GBTParams = GBTParams(),
) -> GBTPredictor:
    """Fit on residual targets of splits.train; the baseline must be fit on
    splits.train only. Every split widens the vocabularies, as in neural
    training, so validation configs encode."""
    schema = training_schema(splits)
    x_num, x_cat, y = build_training_rows(splits.train, baseline, schema)
    x = one_hot_matrix(schema, x_num, x_cat)
    forest = fit_gbt_arrays(x, y, params)
    return GBTPredictor(forest=forest, schema=schema, baseline=baseline)
