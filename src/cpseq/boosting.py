"""Gradient-boosted depth-limited trees on logistic loss.

A small reference classifier over integer count features (the bigram
fingerprints), exposing ``fit`` / ``predict_proba`` so the conformal layer can
swap in any probabilistic binary classifier with the same surface. Split
finding is histogram-based and exploits the sparsity of count features: each
node's histograms are accumulated over the nonzero entries only, and splits
are searched only over the columns that hold a nonzero somewhere in the
training matrix (at most 400 of the 2048 fingerprint buckets, one per residue
bigram), which picks the same splits, bit for bit, as a search over every
column.

Trees are fixed-depth heap arrays from ``fit`` to file, and loading checks
them. Prediction evaluates every tree on a block of rows with a few numpy
gathers; leaf values are added in tree order, so margins equal those of a
node-by-node walk bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .tables import json_field, read_json

_BIN_COUNT = 16  # count features are clipped into bins 0..15 for split search
_PROB_EPS = 1e-12  # keeps predicted probabilities strictly inside (0, 1)
_MIN_CHILD_HESSIAN = 1e-6
_MIN_GAIN = 1e-12
_BLOCK_CELLS = 2**13  # (tree, row) pairs evaluated together; bounds the work arrays


@dataclass(frozen=True)
class ClassifierConfig:
    n_rounds: int = 200
    learning_rate: float = 0.3
    max_depth: int = 2
    subsample: float = 1.0
    reg_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0 < self.subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be >= 0")


def _sigmoid(margin: np.ndarray) -> np.ndarray:
    out = np.empty_like(margin, dtype=np.float64)
    pos = margin >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-margin[pos]))
    e = np.exp(margin[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class _SparseBins:
    """Nonzero (row, column, bin) triplets of the clipped training matrix.

    Count features are overwhelmingly zero, so per-node gradient histograms are
    accumulated over nonzeros only; the zero bin is recovered from node totals.
    Columns with no nonzero can never split (every row would go left), so the
    histograms cover only ``columns``, the ascending columns that hold a
    nonzero, and a triplet's column is its position in that array.
    """

    def __init__(self, X: np.ndarray):
        self.rows, feats = np.nonzero(X)
        self.columns, ids = np.unique(feats, return_inverse=True)
        values = np.minimum(X[self.rows, feats], _BIN_COUNT - 1).astype(np.int64)
        self.flat = ids * _BIN_COUNT + values

    def histograms(self, node_mask, g, h):
        """Per-(used column, bin) sums of gradients, hessians and counts in a node."""
        size = len(self.columns) * _BIN_COUNT
        member = node_mask[self.rows]
        rows = self.rows[member]
        flat = self.flat[member]
        G = np.bincount(flat, weights=g[rows], minlength=size).reshape(-1, _BIN_COUNT)
        H = np.bincount(flat, weights=h[rows], minlength=size).reshape(-1, _BIN_COUNT)
        C = np.bincount(flat, minlength=size).reshape(-1, _BIN_COUNT).astype(np.float64)
        g_tot = g[node_mask].sum()
        h_tot = h[node_mask].sum()
        c_tot = float(node_mask.sum())
        G[:, 0] = g_tot - G.sum(axis=1)
        H[:, 0] = h_tot - H.sum(axis=1)
        C[:, 0] = c_tot - C.sum(axis=1)
        return G, H, C, g_tot, h_tot


def _best_split(G, H, C, g_tot, h_tot, reg_lambda):
    """Pick (histogram row, threshold, gain) maximizing the usual boosting gain; gain is -inf when none is usable."""
    if len(G) == 0:
        return 0, 0, -np.inf
    GL = np.cumsum(G, axis=1)[:, :-1]
    HL = np.cumsum(H, axis=1)[:, :-1]
    CL = np.cumsum(C, axis=1)[:, :-1]
    GR = g_tot - GL
    HR = h_tot - HL
    CR = C.sum(axis=1, keepdims=True) - CL
    parent = g_tot * g_tot / (h_tot + reg_lambda)
    gain = GL**2 / (HL + reg_lambda) + GR**2 / (HR + reg_lambda) - parent
    usable = (CL >= 1) & (CR >= 1) & (HL >= _MIN_CHILD_HESSIAN) & (HR >= _MIN_CHILD_HESSIAN)
    gain = np.where(usable, gain, -np.inf)
    idx = int(np.argmax(gain))
    row, threshold = divmod(idx, _BIN_COUNT - 1)
    return row, threshold, float(gain.flat[idx])


class _Trees(NamedTuple):
    """Boosted trees as fixed-depth heap arrays, the one format from ``fit`` to file.

    Internal node ``i`` has children ``2i + 1`` (taken when ``X[:, f] <= t``)
    and ``2i + 2``; bottom leaf ``j`` is heap node ``2**depth - 1 + j``. Below
    a leaf above the bottom level, the internal nodes are placeholder splits
    (feature 0, threshold 0) and every bottom leaf holds that leaf's value, so
    each route from it ends on its value whatever the row holds.
    """

    feature: np.ndarray  # (n_trees, 2**depth - 1) column each split reads
    threshold: np.ndarray  # (n_trees, 2**depth - 1)
    leaf: np.ndarray  # (n_trees, 2**depth)
    columns: np.ndarray  # (n_columns,) ascending columns some split reads
    slot: np.ndarray  # (n_trees, 2**depth - 1) position of each split's column in ``columns``


def _trees(feature: np.ndarray, threshold: np.ndarray, leaf: np.ndarray) -> _Trees:
    columns, slot = np.unique(feature, return_inverse=True)
    return _Trees(feature, threshold, leaf, columns, slot.reshape(feature.shape))


def _blank_arrays(n_trees: int, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature, threshold and leaf arrays of n_trees trees of placeholder splits and zero leaves."""
    n_inner = 2**depth - 1
    return (
        np.zeros((n_trees, n_inner), dtype=np.int64),
        np.zeros((n_trees, n_inner), dtype=np.int64),
        np.zeros((n_trees, n_inner + 1), dtype=np.float64),
    )


def _heap_rows(value, width: int, integer: bool) -> np.ndarray:
    """A JSON list of per-tree rows as an (n_trees, width) int64 or float64 array; ValueError on any other."""
    rows = np.array(value)
    if rows.size == 0:
        rows = rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"shape {rows.shape} is not (n_trees, {width}), the width max_depth sets")
    kinds, dtype = ("i", np.int64) if integer else ("if", np.float64)
    if rows.size and rows.dtype.kind not in kinds:
        raise ValueError(f"holds {rows.dtype} values, not {'integers' if integer else 'numbers'}")
    return rows.astype(dtype)


def _add_trees(trees: _Trees, X: np.ndarray, margins: np.ndarray) -> None:
    """Add every tree's leaf value for each row of ``X`` to ``margins``, in tree order."""
    n_trees, n_inner = trees.feature.shape
    if n_trees == 0:
        return
    depth = n_inner.bit_length()
    leaves = trees.leaf.ravel()
    first_leaf = np.arange(n_trees) * (n_inner + 1) - n_inner  # flat leaf index minus heap index
    block = max(1, _BLOCK_CELLS // n_trees)
    for start in range(0, len(X), block):
        rows = slice(start, start + block)
        Xb = X[rows, trees.columns]  # (rows, columns)
        goes_left = (Xb[:, trees.slot] <= trees.threshold).ravel()  # (rows, trees, nodes)
        first_node = np.arange(0, goes_left.size, n_inner).reshape(len(Xb), n_trees)
        node = np.zeros((len(Xb), n_trees), dtype=np.intp)
        for _ in range(depth):
            node = 2 * node + 2 - goes_left[first_node + node]
        values = leaves[first_leaf + node]  # (rows, trees)
        values[:, 0] += margins[rows]
        margins[rows] = np.add.accumulate(values, axis=1)[:, -1]


def _check_counts(X: np.ndarray) -> None:
    """Raise ValueError naming the first entry of ``X`` that is negative or not a whole number.

    Split search bins each entry as a count (``min(x, 15)``), while routing
    compares the raw value, so only non-negative whole numbers are learned as given.
    """
    bad = X < 0
    if X.dtype.kind == "f":
        bad |= X != np.floor(X)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        kind = "negative" if X[row, col] < 0 else "not a whole number"
        raise ValueError(
            f"X[{row}, {col}] = {X[row, col]} is {kind}; features must be non-negative integer counts"
        )


class BoostedTreeClassifier:
    """Boosted regression trees with Newton leaf values on logistic loss."""

    def __init__(self, config: ClassifierConfig | None = None):
        self.config = config or ClassifierConfig()
        self.base_score = 0.0  # margin (logit); 0.5 probability before any round
        self.trees = _trees(*_blank_arrays(0, self.config.max_depth))
        self.train_losses_: list[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BoostedTreeClassifier":
        X = np.asarray(X)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be (n, d) with one label per row")
        if len(y) < 2 or len(np.unique(y)) < 2:
            raise ValueError("training data must contain both labels")
        _check_counts(X)

        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        bins = _SparseBins(X)
        n = len(y)
        margins = np.full(n, self.base_score, dtype=np.float64)
        p = _sigmoid(margins)
        feature, threshold, leaf = _blank_arrays(cfg.n_rounds, cfg.max_depth)
        every_row = np.ones(n, dtype=bool)
        losses = []

        for r in range(cfg.n_rounds):
            g = p - y
            h = p * (1.0 - p)
            if cfg.subsample < 1.0:
                active = np.zeros(n, dtype=bool)
                active[rng.permutation(n)[: max(1, int(cfg.subsample * n))]] = True
            else:
                active = every_row
            self._build_node(bins, X, every_row, active, g, h, margins, (feature[r], threshold[r], leaf[r]))
            p = _sigmoid(margins)
            clipped = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
            losses.append(float(-np.mean(y * np.log(clipped) + (1 - y) * np.log(1 - clipped))))
        self.trees = _trees(feature, threshold, leaf)
        self.train_losses_ = losses
        return self

    def _build_node(self, bins, X, route, active, g, h, margins, tree, node=0, level=0):
        """Grow heap node ``node`` of one tree's (feature, threshold, leaf) rows.

        ``route`` holds every row that reaches the node and ``active`` the
        round's subsample; split statistics come from the rows in both, and
        each routed row gets its leaf's value added to its margin.
        """
        feature, threshold, leaf = tree
        cfg = self.config
        node_mask = route & active
        if level < cfg.max_depth and node_mask.sum() >= 2:
            G, H, C, g_tot, h_tot = bins.histograms(node_mask, g, h)
            row, t, gain = _best_split(G, H, C, g_tot, h_tot, cfg.reg_lambda)
            if gain > _MIN_GAIN:
                f = bins.columns[row]
                feature[node], threshold[node] = f, t
                goes_left = route & (X[:, f] <= t)
                self._build_node(bins, X, goes_left, active, g, h, margins, tree, 2 * node + 1, level + 1)
                self._build_node(bins, X, route & ~goes_left, active, g, h, margins, tree, 2 * node + 2, level + 1)
                return
        value = -cfg.learning_rate * g[node_mask].sum() / (h[node_mask].sum() + cfg.reg_lambda)
        width = 2 ** (cfg.max_depth - level)
        first = (node + 1) * width - 1 - len(feature)  # the bottom leaves below this node
        leaf[first : first + width] = value
        margins[route] += value

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        """Margin (logit) per row; raises ValueError when X has fewer columns than a split reads."""
        X = np.atleast_2d(np.asarray(X))
        trees = self.trees
        if trees.columns.size and trees.columns[-1] >= X.shape[1]:
            t, i = np.argwhere(trees.feature >= X.shape[1])[0]
            raise ValueError(f"tree {t} splits on column {trees.feature[t, i]}, but X has {X.shape[1]} columns")
        margins = np.full(len(X), self.base_score, dtype=np.float64)
        _add_trees(trees, X, margins)
        return margins

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of label 1 per row, strictly inside (0, 1)."""
        return np.clip(_sigmoid(self.predict_margin(X)), _PROB_EPS, 1.0 - _PROB_EPS)

    def to_json_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "base_score": self.base_score,
            "feature": self.trees.feature.tolist(),
            "threshold": self.trees.threshold.tolist(),
            "leaf": self.trees.leaf.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "BoostedTreeClassifier":
        """The model a :meth:`to_json_dict` payload holds; raises ValueError naming a missing or malformed key."""
        model = cls(json_field(payload, "config", lambda config: ClassifierConfig(**config)))
        if "trees" in payload:
            raise ValueError("key 'trees' holds nested-dict trees, which cpseq no longer reads; rebuild the file")
        model.base_score = json_field(payload, "base_score", float)
        n_inner = 2**model.config.max_depth - 1
        feature = json_field(payload, "feature", lambda rows: _heap_rows(rows, n_inner, integer=True))
        threshold = json_field(payload, "threshold", lambda rows: _heap_rows(rows, n_inner, integer=True))
        leaf = json_field(payload, "leaf", lambda rows: _heap_rows(rows, n_inner + 1, integer=False))
        if not len(feature) == len(threshold) == len(leaf):
            counts = f"{len(feature)}, {len(threshold)} and {len(leaf)}"
            raise ValueError(f"keys 'feature', 'threshold' and 'leaf' hold {counts} trees")
        if feature.size and feature.min() < 0:
            raise ValueError(f"key 'feature': column {feature.min()} is not a non-negative integer")
        model.trees = _trees(feature, threshold, leaf)
        return model

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "BoostedTreeClassifier":
        return read_json(path, cls.from_json_dict)
