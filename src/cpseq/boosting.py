"""Gradient-boosted depth-limited trees on logistic loss.

A small reference classifier over integer count features (the bigram
fingerprints), exposing ``fit`` / ``predict_proba`` so the conformal layer can
swap in any probabilistic binary classifier with the same surface. Split
finding is histogram-based and exploits the sparsity of count features, which
keeps full fits under a few seconds at 5k x 2048.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_BIN_COUNT = 16  # count features are clipped into bins 0..15 for split search
_PROB_EPS = 1e-12  # keeps predicted probabilities strictly inside (0, 1)
_MIN_CHILD_HESSIAN = 1e-6
_MIN_GAIN = 1e-12


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


class BoostedTreeClassifier:
    """Boosted regression trees with Newton leaf values on logistic loss."""

    def __init__(self, config: ClassifierConfig | None = None):
        self.config = config or ClassifierConfig()
        self.base_score = 0.0  # margin (logit); 0.5 probability before any round
        self.trees_: list[dict] = []
        self.train_losses_: list[float] = []

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
        self.trees_ = []
        self.train_losses_ = []

        for _ in range(cfg.n_rounds):
            p = _sigmoid(margins)
            g = p - y
            h = p * (1.0 - p)
            if cfg.subsample < 1.0:
                active = np.zeros(n, dtype=bool)
                active[rng.permutation(n)[: max(1, int(cfg.subsample * n))]] = True
            else:
                active = np.ones(n, dtype=bool)
            tree = self._build_node(bins, X, active, g, h, depth=0)
            self.trees_.append(tree)
            margins += self._eval_tree(tree, X)
            p = np.clip(_sigmoid(margins), _PROB_EPS, 1.0 - _PROB_EPS)
            self.train_losses_.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
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

    @staticmethod
    def _eval_tree(tree: dict, X: np.ndarray) -> np.ndarray:
        out = np.zeros(len(X), dtype=np.float64)
        stack = [(tree, np.arange(len(X), dtype=np.intp))]
        while stack:
            node, idx = stack.pop()
            if "value" in node:
                out[idx] += node["value"]
                continue
            left = X[idx, node["feature"]] <= node["threshold"]
            stack.append((node["left"], idx[left]))
            stack.append((node["right"], idx[~left]))
        return out

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X))
        margins = np.full(len(X), self.base_score, dtype=np.float64)
        for tree in self.trees_:
            margins += self._eval_tree(tree, X)
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
