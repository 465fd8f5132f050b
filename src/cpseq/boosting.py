"""Gradient-boosted depth-limited trees on logistic loss.

A small reference classifier over integer count features (the bigram
fingerprints), exposing ``fit`` / ``predict_proba`` so the conformal layer can
swap in any probabilistic binary classifier with the same surface. Split
finding is histogram-based and exploits the sparsity of count features, which
keeps full fits under a few seconds at 5k x 2048.

Prediction compiles the tree list once per model into fixed-depth heap arrays
and evaluates every tree on a block of rows with a few numpy gathers; leaf
values are added in tree order, so margins equal those of a node-by-node walk
bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

_BIN_COUNT = 16  # count features are clipped into bins 0..15 for split search
_PROB_EPS = 1e-12  # keeps predicted probabilities strictly inside (0, 1)
_MIN_CHILD_HESSIAN = 1e-6
_MIN_GAIN = 1e-12
_BLOCK_CELLS = 2**13  # (tree, row) pairs evaluated together; bounds the work arrays
_SPLIT_KEYS = frozenset({"feature", "threshold", "left", "right"})


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
    """Nonzero (row, feature, bin) triplets of the clipped training matrix.

    Count features are overwhelmingly zero, so per-node gradient histograms are
    accumulated over nonzeros only; the zero bin is recovered from node totals.
    """

    def __init__(self, X: np.ndarray):
        self.n_rows, self.n_features = X.shape
        binned = np.minimum(X, _BIN_COUNT - 1).astype(np.int64)
        self.rows, feats = np.nonzero(binned)
        self.flat = feats * _BIN_COUNT + binned[self.rows, feats]

    def histograms(self, node_mask, g, h):
        """Per-(feature, bin) sums of gradients, hessians and counts in a node."""
        size = self.n_features * _BIN_COUNT
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
    """Pick (feature, threshold, gain) maximizing the usual boosting gain."""
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
    feature, threshold = divmod(idx, _BIN_COUNT - 1)
    return feature, threshold, float(gain.flat[idx])


class _CompiledTrees(NamedTuple):
    """A tree list as fixed-depth heap arrays over the columns its splits read.

    Internal node ``i`` has children ``2i + 1`` (taken when ``X[:, f] <= t``)
    and ``2i + 2``; bottom leaf ``j`` is heap node ``2**depth - 1 + j``. Below
    a leaf above the bottom level, the internal nodes are placeholder splits
    (feature 0, threshold 0) and every bottom leaf holds that leaf's value, so
    each route from it ends on its value whatever the row holds.
    """

    columns: np.ndarray  # (n_columns,) ascending features some split reads
    feature: np.ndarray  # (n_trees, 2**depth - 1) position in ``columns``
    threshold: np.ndarray  # (n_trees, 2**depth - 1)
    leaf: np.ndarray  # (n_trees, 2**depth)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _compile(trees: list[dict], depth: int, n_features: int) -> _CompiledTrees:
    """Heap arrays for ``trees``; raises ValueError naming the tree on a malformed one."""
    n_inner = 2**depth - 1
    feature = np.zeros((len(trees), n_inner), dtype=np.intp)
    threshold = np.zeros((len(trees), n_inner), dtype=np.int64)
    leaf = np.zeros((len(trees), n_inner + 1), dtype=np.float64)
    for t, tree in enumerate(trees):
        stack = [(tree, 0, 0)]  # (node, heap index, level)
        while stack:
            node, i, level = stack.pop()
            if isinstance(node, dict) and "value" in node:
                width = 2 ** (depth - level)
                first = (i + 1) * width - 1 - n_inner
                leaf[t, first : first + width] = node["value"]
                continue
            if not isinstance(node, dict) or not _SPLIT_KEYS <= node.keys():
                raise ValueError(f"tree {t}: a node has neither 'value' nor all of {sorted(_SPLIT_KEYS)}")
            if level == depth:
                raise ValueError(f"tree {t} is deeper than max_depth {depth}")
            f, thr = node["feature"], node["threshold"]
            if not _is_int(f) or not 0 <= f < n_features:
                raise ValueError(f"tree {t}: split feature {f!r} is not an integer in [0, {n_features})")
            if not _is_int(thr):
                raise ValueError(f"tree {t}: split threshold {thr!r} is not an integer")
            feature[t, i] = f
            threshold[t, i] = thr
            stack.append((node["left"], 2 * i + 1, level + 1))
            stack.append((node["right"], 2 * i + 2, level + 1))
    used = np.zeros(n_features, dtype=bool)
    used[feature] = True
    return _CompiledTrees(np.flatnonzero(used), np.cumsum(used)[feature] - 1, threshold, leaf)


def _add_trees(compiled: _CompiledTrees, X: np.ndarray, margins: np.ndarray) -> None:
    """Add every tree's leaf value for each row of ``X`` to ``margins``, in tree order."""
    n_trees, n_inner = compiled.feature.shape
    if n_trees == 0:
        return
    depth = n_inner.bit_length()
    leaves = compiled.leaf.ravel()
    first_leaf = np.arange(n_trees) * (n_inner + 1) - n_inner  # flat leaf index minus heap index
    block = max(1, _BLOCK_CELLS // n_trees)
    for start in range(0, len(X), block):
        rows = slice(start, start + block)
        Xb = X[rows, compiled.columns]  # (rows, columns)
        goes_left = (Xb[:, compiled.feature] <= compiled.threshold).ravel()  # (rows, trees, nodes)
        first_node = np.arange(0, goes_left.size, n_inner).reshape(len(Xb), n_trees)
        node = np.zeros((len(Xb), n_trees), dtype=np.intp)
        for _ in range(depth):
            node = 2 * node + 2 - goes_left[first_node + node]
        values = leaves[first_leaf + node]  # (rows, trees)
        values[:, 0] += margins[rows]
        margins[rows] = np.add.accumulate(values, axis=1)[:, -1]


class BoostedTreeClassifier:
    """Boosted regression trees with Newton leaf values on logistic loss."""

    def __init__(self, config: ClassifierConfig | None = None):
        self.config = config or ClassifierConfig()
        self.base_score = 0.0  # margin (logit); 0.5 probability before any round
        self.trees_: list[dict] = []
        self.train_losses_: list[float] = []
        self._compiled: _CompiledTrees | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BoostedTreeClassifier":
        X = np.asarray(X)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be (n, d) with one label per row")
        if len(y) < 2 or len(np.unique(y)) < 2:
            raise ValueError("training data must contain both labels")

        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        bins = _SparseBins(X)
        n = len(y)
        margins = np.full(n, self.base_score, dtype=np.float64)
        p = _sigmoid(margins)
        self.trees_ = []
        self.train_losses_ = []
        self._compiled = None

        for _ in range(cfg.n_rounds):
            g = p - y
            h = p * (1.0 - p)
            if cfg.subsample < 1.0:
                active = np.zeros(n, dtype=bool)
                active[rng.permutation(n)[: max(1, int(cfg.subsample * n))]] = True
            else:
                active = np.ones(n, dtype=bool)
            tree = self._build_node(bins, X, active, g, h, depth=0)
            self.trees_.append(tree)
            _add_trees(_compile([tree], cfg.max_depth, X.shape[1]), X, margins)
            p = _sigmoid(margins)
            clipped = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
            self.train_losses_.append(float(-np.mean(y * np.log(clipped) + (1 - y) * np.log(1 - clipped))))
        return self

    def _leaf(self, g_tot, h_tot):
        value = -self.config.learning_rate * g_tot / (h_tot + self.config.reg_lambda)
        return {"value": float(value)}

    def _build_node(self, bins, X, node_mask, g, h, depth):
        if depth >= self.config.max_depth or node_mask.sum() < 2:
            return self._leaf(g[node_mask].sum(), h[node_mask].sum())
        G, H, C, g_tot, h_tot = bins.histograms(node_mask, g, h)
        feature, threshold, gain = _best_split(G, H, C, g_tot, h_tot, self.config.reg_lambda)
        if gain <= _MIN_GAIN:
            return self._leaf(g_tot, h_tot)
        goes_left = node_mask & (X[:, feature] <= threshold)
        return {
            "feature": int(feature),
            "threshold": int(threshold),
            "left": self._build_node(bins, X, goes_left, g, h, depth + 1),
            "right": self._build_node(bins, X, node_mask & ~goes_left, g, h, depth + 1),
        }

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X))
        compiled = self._compiled
        if compiled is None or (compiled.columns.size and compiled.columns[-1] >= X.shape[1]):
            # first prediction, or X narrower than a split reads: compiling checks the trees against X
            compiled = self._compiled = _compile(self.trees_, self.config.max_depth, X.shape[1])
        margins = np.full(len(X), self.base_score, dtype=np.float64)
        _add_trees(compiled, X, margins)
        return margins

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of label 1 per row, strictly inside (0, 1)."""
        return np.clip(_sigmoid(self.predict_margin(X)), _PROB_EPS, 1.0 - _PROB_EPS)

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "n_rounds": self.config.n_rounds,
                "learning_rate": self.config.learning_rate,
                "max_depth": self.config.max_depth,
                "subsample": self.config.subsample,
                "reg_lambda": self.config.reg_lambda,
                "seed": self.config.seed,
            },
            "base_score": self.base_score,
            "trees": self.trees_,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "BoostedTreeClassifier":
        model = cls(ClassifierConfig(**payload["config"]))
        model.base_score = float(payload["base_score"])
        model.trees_ = payload["trees"]
        return model

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "BoostedTreeClassifier":
        return cls.from_json_dict(json.loads(Path(path).read_text()))
