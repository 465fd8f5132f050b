"""Gradient-boosted depth-limited trees on logistic loss.

A small reference classifier over integer count features (the bigram
fingerprints), exposing ``fit`` / ``predict_proba``. A single ICP calibrates
any probabilistic binary classifier with that surface; the aggregate
conformal predictor stacks its ICPs' heap trees, so it takes these. Split
finding is histogram-based and exploits the sparsity of count features: a
training pool is scanned once for its nonzero entries, and each tree grows
level by level, with one histogram pass over those entries and one split
search for all of a level's open nodes. Splits are searched only over the
columns that hold a nonzero somewhere in the pool (at most 400 of the 2048
fingerprint buckets, one per residue bigram), and only below the pool's
largest clipped count, since a higher threshold leaves no row on the right.
A bootstrap sample takes its rows' entries from the pool's (``take``), so the
aggregate conformal predictor scans its pool once. All of this picks the
same splits, bit for bit, as a node-by-node search over every column and
threshold of each training matrix.

Trees are fixed-depth heap arrays from ``fit`` to file, and loading checks
them. One evaluator scores a stack of models (one model is a stack of one):
a count of zero goes the same way at every split, so it walks only the
(row, tree) pairs in which a split reads one of the row's nonzero columns,
and every other pair takes the tree's zero-row leaf. Leaf values are added
in tree order, so margins equal those of a node-by-node walk bit for bit.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .tables import check_count, check_integer, json_field, read_json

_BIN_COUNT = 16  # count features are clipped into bins 0..15 for split search
_PROB_EPS = 1e-12  # keeps predicted probabilities strictly inside (0, 1)
_MIN_CHILD_HESSIAN = 1e-6
_MIN_GAIN = 1e-12
_BLOCK_CELLS = 2**16  # (tree, row) cells summed together; bounds the work arrays


@dataclass(frozen=True)
class ClassifierConfig:
    n_rounds: int = 200
    learning_rate: float = 0.3
    max_depth: int = 2
    subsample: float = 1.0
    reg_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_count("n_rounds", self.n_rounds)
        check_count("max_depth", self.max_depth)
        check_integer("seed", self.seed)
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 < self.subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        if not 0 <= self.reg_lambda < np.inf:
            raise ValueError(f"reg_lambda must be finite and >= 0, got {self.reg_lambda!r}")


def _sigmoid(margin: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(margin))  # never overflows: exp(-m) on one side, exp(m) on the other
    return np.where(margin >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _proba(margin: np.ndarray) -> np.ndarray:
    """Probability of label 1 per margin, strictly inside (0, 1)."""
    return np.clip(_sigmoid(margin), _PROB_EPS, 1.0 - _PROB_EPS)


class _SparseBins:
    """A count matrix clipped into bins, scanned once: its nonzero (row, column, bin) triplets and a routing table.

    Count features are overwhelmingly zero, so gradient histograms are
    accumulated over the row-major nonzero triplets only; the zero bin is
    recovered from node totals. Columns with no nonzero can never split (every
    row would go left), so the histograms cover only ``columns``, the ascending
    columns that hold a nonzero, and a triplet's column is its position in
    that array. ``top`` is the largest bin; a histogram row holds ``width``
    bins, 8 when ``top`` is below 8, since numpy sums in blocks of eight and the
    zero bin, a node total less its row's sum, keeps the bits 16 bins gave (5
    would not). ``flat`` is each triplet's place in its row, ``starts`` each
    row's first triplet, and ``table`` every row's bin in each used column: a
    threshold is at most 14, so a bin exceeds it exactly when the count does.
    """

    def __init__(self, X: np.ndarray):
        self.rows, feats = np.nonzero(X)
        self.columns, ids = np.unique(feats, return_inverse=True)
        values = np.minimum(X[self.rows, feats], _BIN_COUNT - 1).astype(np.uint8)
        self.top = int(values.max(initial=0))
        self.width = 8 if self.top < 8 else _BIN_COUNT
        self.flat = ids * self.width + values
        self.starts = np.searchsorted(self.rows, np.arange(len(X) + 1))
        self.table = np.zeros((len(X), len(self.columns)), dtype=np.uint8)
        self.table[self.rows, ids] = values

    def take(self, boot: np.ndarray) -> "_SparseBins":
        """The bins of ``X[boot]``: each drawn row's triplets in draw order, over this pool's columns and bins.

        A pool column that no drawn row holds has every row in its zero bin,
        so none of its thresholds is usable and the split search is unchanged.
        """
        lengths = self.starts[boot + 1] - self.starts[boot]
        ends = np.cumsum(lengths)
        taken = copy.copy(self)
        taken.rows = np.repeat(np.arange(len(boot)), lengths)
        taken.flat = self.flat[np.repeat(self.starts[boot] - ends + lengths, lengths) + np.arange(ends[-1])]
        taken.starts = np.concatenate(([0], ends))
        taken.table = self.table[boot]
        return taken

    def histograms(self, row_node, n_nodes, g, h, g_tot, h_tot, c_tot):
        """Per-(node, used column, bin) sums of gradients, hessians and counts, in one pass over the triplets.

        ``row_node`` holds each row's node, or ``n_nodes`` for a row outside
        every node, whose triplets go to a spare node that is dropped.
        """
        size = len(self.columns) * self.width
        flat = row_node[self.rows] * size + self.flat
        shape = (n_nodes, len(self.columns), self.width)
        G = np.bincount(flat, weights=g[self.rows], minlength=(n_nodes + 1) * size)[: n_nodes * size].reshape(shape)
        H = np.bincount(flat, weights=h[self.rows], minlength=(n_nodes + 1) * size)[: n_nodes * size].reshape(shape)
        C = np.bincount(flat, minlength=(n_nodes + 1) * size)[: n_nodes * size].reshape(shape).astype(np.float64)
        G[..., 0] = g_tot[:, None] - G.sum(axis=2)
        H[..., 0] = h_tot[:, None] - H.sum(axis=2)
        C[..., 0] = c_tot[:, None] - C.sum(axis=2)
        return G, H, C


def _best_split(G, H, C, g_tot, h_tot, top, reg_lambda):
    """Each node's (histogram row, threshold, gain) maximizing the usual boosting gain, or a gain of -inf.

    Only the thresholds below ``top``, the largest bin, can leave a row on the
    right; a node has no usable split when every threshold leaves a child empty.
    """
    GL = np.cumsum(G[..., :top], axis=2)
    HL = np.cumsum(H[..., :top], axis=2)
    CL = np.cumsum(C[..., :top], axis=2)
    GR = g_tot[:, None, None] - GL
    HR = h_tot[:, None, None] - HL
    CR = C.sum(axis=2, keepdims=True) - CL
    parent = g_tot * g_tot / (h_tot + reg_lambda)
    gain = GL**2 / (HL + reg_lambda) + GR**2 / (HR + reg_lambda) - parent[:, None, None]
    usable = (CL >= 1) & (CR >= 1) & (HL >= _MIN_CHILD_HESSIAN) & (HR >= _MIN_CHILD_HESSIAN)
    gain = np.where(usable, gain, -np.inf).reshape(len(G), -1)
    best = gain.argmax(axis=1)
    row, threshold = np.divmod(best, top)
    return row, threshold, gain[np.arange(len(G)), best]


@dataclass(frozen=True, eq=False)
class _Trees:
    """A stack of boosted models' trees as fixed-depth heap arrays, the one format from ``fit`` to file.

    Internal node ``i`` has children ``2i + 1`` (taken when ``X[:, f] <= t``)
    and ``2i + 2``; bottom leaf ``j`` is heap node ``2**depth - 1 + j``. Below
    a leaf above the bottom level, the internal nodes are placeholder splits
    (feature 0, threshold 0) and every bottom leaf holds that leaf's value, so
    each route from it ends on its value whatever the row holds. Tree ``t`` of
    model ``m`` is row ``t * n_models + m``; one model's trees are a stack of
    one. The index that walks them is built on first use.
    """

    feature: np.ndarray  # (n_trees * n_models, 2**depth - 1) column each split reads
    threshold: np.ndarray  # (n_trees * n_models, 2**depth - 1)
    leaf: np.ndarray  # (n_trees * n_models, 2**depth)
    n_models: int = 1

    @cached_property
    def columns(self) -> np.ndarray:
        """The ascending columns some split reads."""
        return np.unique(self.feature)

    @cached_property
    def walk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(slot, tree_of, starts, zero_leaf): each split's position in ``columns``, flat; the trees that
        read ``columns[c]``, ``tree_of[starts[c]:starts[c + 1]]``; and the (n_trees, n_models) leaf values
        a row of zeros reaches (not always bottom leaf 0, as a loaded threshold may be negative)."""
        n, n_inner = self.feature.shape
        slot = np.searchsorted(self.columns, self.feature)
        reads = np.unique(slot * n + np.arange(n)[:, None])  # (column, tree) pairs, each once, by column
        node = np.zeros(n, dtype=np.intp)
        for _ in range(n_inner.bit_length()):
            node = 2 * node + 2 - (self.threshold[np.arange(n), node] >= 0)
        zero_leaf = self.leaf[np.arange(n), node - n_inner].reshape(-1, self.n_models)
        return slot.ravel(), reads % n, np.searchsorted(reads // n, np.arange(len(self.columns) + 1)), zero_leaf


def _stack(models: Sequence[_Trees]) -> _Trees:
    """The trees of several models as one stack, each model's margins unchanged bit for bit.

    A shallower tree gets placeholder splits and replicated leaves below its
    bottom leaves, and a model with fewer trees gets trailing trees whose
    leaves are -0.0, which adds to any margin without changing a bit of it.
    """
    n_models = len(models)
    n_trees = max(len(trees.feature) for trees in models)
    n_inner = max(trees.feature.shape[1] for trees in models)
    feature, threshold, leaf = _blank_arrays(n_trees * n_models, n_inner.bit_length())
    leaf[:] = -0.0
    for m, trees in enumerate(models):
        rows, width = slice(m, len(trees.feature) * n_models, n_models), trees.feature.shape[1]
        feature[rows, :width] = trees.feature
        threshold[rows, :width] = trees.threshold
        leaf[rows] = np.repeat(trees.leaf, (n_inner + 1) // (width + 1), axis=1)
    return _Trees(feature, threshold, leaf, n_models)


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
    kinds = "i" if integer else "if"
    if rows.size and rows.dtype.kind not in kinds:
        raise ValueError(f"holds {rows.dtype} values, not {'integers' if integer else 'numbers'}")
    return rows.astype(np.int64) if integer else _finite(rows)


def _finite(values) -> np.ndarray:
    """``values`` as a float64 array; ValueError unless every entry is a finite number."""
    array = np.asarray(values, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ValueError(f"holds {array[~np.isfinite(array)].flat[0]}, not a finite number")
    return array


def _margins(trees: _Trees, X: np.ndarray, base: np.ndarray) -> np.ndarray:
    """(rows, n_models) margins of X under a stack with these base scores; ValueError when X is too narrow.

    A zero entry goes the same way at every split, so a tree that reads none
    of a row's nonzero columns ends on its zero-row leaf; only the (row, tree)
    pairs in which some split reads a nonzero column are walked (QuickScorer's
    feature-wise view, Lucchese et al. 2015). Each model's leaves are added to
    its base score one tree at a time, in tree order, so its margins equal
    those of a node-by-node walk bit for bit.
    """
    X = np.atleast_2d(np.asarray(X))
    slot, tree_of, starts, zero_leaf = trees.walk
    n_trees, n_models = zero_leaf.shape
    if trees.columns.size and trees.columns[-1] >= X.shape[1]:
        i, j = np.argwhere(trees.feature >= X.shape[1])[0]
        tree, model = divmod(int(i), n_models)
        owner = f"model {model}'s " if n_models > 1 else ""
        raise ValueError(f"{owner}tree {tree} splits on column {trees.feature[i, j]}, but X has {X.shape[1]} columns")
    n_inner = trees.feature.shape[1]
    threshold, leaf = trees.threshold.ravel(), trees.leaf.ravel()
    margins = np.empty((len(X), n_models))
    block = max(1, _BLOCK_CELLS // (len(trees.feature) + n_models))
    for start in range(0, len(X), block):
        Xb = X[start : start + block, trees.columns]
        rows, cols = np.nonzero(Xb)
        counts = starts[cols + 1] - starts[cols]
        pair_row = np.repeat(rows, counts)  # a row reaches a tree once per nonzero column it reads
        offset = np.repeat(starts[cols] + counts - np.cumsum(counts), counts)
        pair_tree = tree_of[offset + np.arange(len(pair_row))]
        first = pair_tree * n_inner
        node = np.zeros(len(pair_tree), dtype=np.intp)
        for _ in range(n_inner.bit_length()):
            split = first + node
            node = 2 * node + 2 - (Xb[pair_row, slot[split]] <= threshold[split])
        # values[0] holds the base scores and values[t + 1] tree t's leaves. The spare row keeps two
        # or more cells beside the tree axis, where np.add.reduce adds one tree at a time (over one
        # cell it sums pairwise), and the sum starts from -0.0, not +0.0, so a -0.0 margin stays -0.0
        values = np.empty((n_trees + 1, len(Xb) + 1, n_models))
        values[0] = base
        values[1:] = zero_leaf[:, None, :]
        tree, model = np.divmod(pair_tree, n_models)
        values[tree + 1, pair_row, model] = leaf[first + pair_tree + node - n_inner]
        margins[start : start + block] = np.add.reduce(values, axis=0, initial=-0.0)[:-1]
    return margins


def _check_counts(X: np.ndarray, y: np.ndarray) -> None:
    """Raise ValueError unless ``X`` is (n, d) with a label per row, naming its first entry that is not a count.

    Split search bins each entry as a count (``min(x, 15)``), while prediction
    compares the raw value, so only non-negative whole numbers are learned as given.
    """
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with one label per row")
    if X.dtype.kind == "u":  # unsigned integers are counts already
        return
    bad = X < 0
    if X.dtype.kind == "f":
        bad |= X != np.floor(X)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        kind = "negative" if X[row, col] < 0 else "not a whole number"
        raise ValueError(
            f"X[{row}, {col}] = {X[row, col]} is {kind}; features must be non-negative integer counts"
        )


def missing_label(y) -> int | None:
    """The first of the labels 0 and 1 that ``y`` lacks, or None when it has both."""
    return next((label for label in (0, 1) if not (np.asarray(y) == label).any()), None)


def check_labels(y) -> None:
    """Raise ValueError naming the first label that is not 0 or 1, else the :func:`missing_label`."""
    y = np.asarray(y)
    other = (y != 0) & (y != 1)
    if other.any():
        raise ValueError(f"label {y[other][0]} is not 0 or 1")
    missing = missing_label(y)
    if missing is not None:
        raise ValueError(f"no samples with true label {missing}")


class BoostedTreeClassifier:
    """Boosted regression trees with Newton leaf values on logistic loss."""

    def __init__(self, config: ClassifierConfig | None = None):
        self.config = config or ClassifierConfig()
        self.base_score = 0.0  # margin (logit); 0.5 probability before any round
        self.trees = _Trees(*_blank_arrays(0, self.config.max_depth))
        self.train_losses_: list[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BoostedTreeClassifier":
        X = np.asarray(X)
        y = np.asarray(y)
        _check_counts(X, y)
        check_labels(y)
        return self._fit(_SparseBins(X), np.asarray(y, dtype=np.float64))

    def _fit(self, bins: _SparseBins, y: np.ndarray) -> "BoostedTreeClassifier":
        """Fit on the bins of a checked count matrix and its float64 labels, which hold both classes."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
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
            self._grow(bins, active, g, h, margins, (feature[r], threshold[r], leaf[r]))
            p = _sigmoid(margins)
            clipped = np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS)
            losses.append(float(-np.mean(y * np.log(clipped) + (1 - y) * np.log(1 - clipped))))
        self.trees = _Trees(feature, threshold, leaf)
        self.train_losses_ = losses
        return self

    def _grow(self, bins, active, g, h, margins, tree):
        """Grow one tree's (feature, threshold, leaf) rows level by level.

        ``active`` holds the round's subsample: split statistics come from an
        open node's active rows. A level searches all its open nodes with one
        histogram pass and one split search. Every row moves down a level at a
        time, below a leaf through its placeholder splits, so once no node is
        open each row's leaf value is added to its margin.
        """
        feature, threshold, leaf = tree
        cfg = self.config
        rows = np.arange(len(margins))
        row_node = np.zeros(len(margins), dtype=np.intp)  # each row's heap node at this level
        slot = np.zeros(len(feature), dtype=np.intp)  # each split's histogram row
        nodes = [0]
        for level in range(cfg.max_depth + 1):
            width = 2 ** (cfg.max_depth - level)
            masks = [(row_node == node) & active for node in nodes]
            c_tot, g_tot, h_tot = np.array([(mask.sum(), g[mask].sum(), h[mask].sum()) for mask in masks]).T
            gain = np.full(len(nodes), -np.inf)
            if level < cfg.max_depth and bins.top:  # a node with under two active rows finds no usable split
                level_node = np.full(len(margins), len(nodes))
                for j, mask in enumerate(masks):
                    level_node[mask] = j
                G, H, C = bins.histograms(level_node, len(nodes), g, h, g_tot, h_tot, c_tot)
                row, cut, gain = _best_split(G, H, C, g_tot, h_tot, bins.top, cfg.reg_lambda)
            split = []
            for j, node in enumerate(nodes):
                if gain[j] > _MIN_GAIN:
                    slot[node], feature[node], threshold[node] = row[j], bins.columns[row[j]], cut[j]
                    split.append(node)
                else:
                    first = (node + 1) * width - 1 - len(feature)  # the bottom leaves below this node
                    leaf[first : first + width] = -cfg.learning_rate * g_tot[j] / (h_tot[j] + cfg.reg_lambda)
            if not split:  # every row is at or below a leaf, and each of its bottom leaves holds that leaf's value
                margins += leaf[(row_node + 1) * width - 1 - len(feature)]
                return
            row_node = 2 * row_node + 1 + (bins.table[rows, slot[row_node]] > threshold[row_node])
            nodes = [child for node in split for child in (2 * node + 1, 2 * node + 2)]

    def predict_margin(self, X: np.ndarray) -> np.ndarray:
        """Margin (logit) per row; raises ValueError when X has fewer columns than a split reads."""
        return _margins(self.trees, X, np.array([self.base_score]))[:, 0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of label 1 per row, strictly inside (0, 1)."""
        return _proba(self.predict_margin(X))

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
        model.base_score = json_field(payload, "base_score", lambda value: _finite(float(value)).item())
        n_inner = 2**model.config.max_depth - 1
        feature = json_field(payload, "feature", lambda rows: _heap_rows(rows, n_inner, integer=True))
        threshold = json_field(payload, "threshold", lambda rows: _heap_rows(rows, n_inner, integer=True))
        leaf = json_field(payload, "leaf", lambda rows: _heap_rows(rows, n_inner + 1, integer=False))
        if not len(feature) == len(threshold) == len(leaf):
            counts = f"{len(feature)}, {len(threshold)} and {len(leaf)}"
            raise ValueError(f"keys 'feature', 'threshold' and 'leaf' hold {counts} trees")
        if feature.size and feature.min() < 0:
            raise ValueError(f"key 'feature': column {feature.min()} is not a non-negative integer")
        model.trees = _Trees(feature, threshold, leaf)
        return model

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "BoostedTreeClassifier":
        return read_json(path, cls.from_json_dict)
