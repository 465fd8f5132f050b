import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpseq import boosting
from cpseq.boosting import BoostedTreeClassifier, ClassifierConfig
from cpseq.domain import fingerprints, oracle_label


def _toy_separable(n=80, seed=0):
    # two features; label decided by whether feature 0 exceeds feature 1
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, size=(n, 2))
    y = (X[:, 0] > X[:, 1]).astype(np.int8)
    keep = X[:, 0] != X[:, 1]
    return X[keep], y[keep]


def test_separable_toy_reaches_perfect_training_accuracy():
    X, y = _toy_separable()
    clf = BoostedTreeClassifier(ClassifierConfig(n_rounds=50)).fit(X, y)
    pred = (clf.predict_proba(X) >= 0.5).astype(int)
    assert (pred == y).all()


def test_single_label_training_rejected():
    X = np.ones((10, 3), dtype=np.int64)
    with pytest.raises(ValueError):
        BoostedTreeClassifier().fit(X, np.zeros(10))


def test_too_few_examples_rejected():
    with pytest.raises(ValueError):
        BoostedTreeClassifier().fit(np.ones((1, 3)), np.array([1]))


@pytest.mark.parametrize(
    "shift, match",
    [(-1, r"X\[\d+, 2\] = -\d+ is negative"), (0.5, r"X\[\d+, \d+\] = \d+\.5 is not a whole number"),
     (np.nan, r"X\[\d+, \d+\] = nan is not a whole number")],
    ids=["negative", "fractional", "nan"],
)
def test_features_that_are_not_counts_rejected(shift, match):
    # split search bins entries as counts while routing reads the raw values, so
    # a negative or fractional entry would be learned as some other value
    X, y = _toy_separable()
    X = np.concatenate([X, -X[:, :1]], axis=1) if shift == -1 else X + shift
    with pytest.raises(ValueError, match=match):
        BoostedTreeClassifier(ClassifierConfig(n_rounds=3)).fit(X, y)


def test_count_check_allocates_nothing_for_unsigned_counts():
    # an unsigned entry is never negative or fractional: a sign mask would be as large as X
    X = np.ones((2000, 2048), dtype=np.uint8)
    tracemalloc.start()
    try:
        boosting._check_counts(X, np.zeros(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes // 16


def test_untrained_model_predicts_half_everywhere():
    # no boosting rounds applied yet: margin is the zero base score
    model = BoostedTreeClassifier()
    probe = np.arange(12).reshape(4, 3)
    assert np.all(model.predict_proba(probe) == 0.5)


def test_probabilities_strictly_inside_unit_interval():
    X, y = _toy_separable(200, seed=3)
    clf = BoostedTreeClassifier(ClassifierConfig(n_rounds=120)).fit(X, y)
    p = clf.predict_proba(X)
    assert np.all(p > 0.0) and np.all(p < 1.0)


def test_deterministic_given_seed(tiny_dataset):
    seqs, labels = tiny_dataset.subset("train")
    X = fingerprints(seqs)
    config = ClassifierConfig(n_rounds=40, subsample=0.8, seed=21)
    a = BoostedTreeClassifier(config).fit(X, labels)
    b = BoostedTreeClassifier(config).fit(X, labels)
    probe = fingerprints(tiny_dataset.subset("test")[0])
    assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))


def test_training_loss_monotone_without_subsampling(tiny_dataset):
    seqs, labels = tiny_dataset.subset("train")
    clf = BoostedTreeClassifier(ClassifierConfig(n_rounds=80)).fit(fingerprints(seqs), labels)
    losses = clf.train_losses_
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_balanced_accuracy_on_clean_test_split(dataset5k, clf5k):
    # 500-point held-out split scored against the noiseless oracle
    test_seqs, _ = dataset5k.subset("test")
    assert len(test_seqs) == 500
    clean = np.array([oracle_label(s) for s in test_seqs])
    pred = (clf5k.predict_proba(fingerprints(test_seqs)) >= 0.5).astype(int)
    tpr = np.mean(pred[clean == 1] == 1)
    tnr = np.mean(pred[clean == 0] == 0)
    assert (tpr + tnr) / 2 >= 0.75


def test_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(n_rounds=0)
    with pytest.raises(ValueError):
        ClassifierConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        ClassifierConfig(learning_rate=1.5)
    with pytest.raises(ValueError):
        ClassifierConfig(subsample=0.0)
    with pytest.raises(ValueError):
        ClassifierConfig(max_depth=0)


@pytest.mark.parametrize("settings, message", [
    ({"n_rounds": 2.5}, "n_rounds must be an integer, got 2.5"),
    ({"max_depth": 2.0}, "max_depth must be an integer, got 2.0"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"n_rounds": True}, "n_rounds must be an integer, got True"),
    ({"reg_lambda": float("nan")}, "reg_lambda must be finite and >= 0, got nan"),
    ({"reg_lambda": float("inf")}, "reg_lambda must be finite and >= 0, got inf"),
    ({"reg_lambda": -1.0}, "reg_lambda must be finite and >= 0, got -1.0"),
])
def test_config_rejects_a_non_integer_count_or_a_non_finite_lambda(settings, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ClassifierConfig(**settings)
    ClassifierConfig(n_rounds=np.int64(3), max_depth=np.int32(2), seed=np.uint32(7))  # numpy integers are integers


def test_serialization_round_trip(tmp_path, tiny_dataset):
    seqs, labels = tiny_dataset.subset("train")
    X = fingerprints(seqs)
    clf = BoostedTreeClassifier(ClassifierConfig(n_rounds=30)).fit(X, labels)
    path = tmp_path / "clf.json"
    clf.save(path)
    back = BoostedTreeClassifier.load(path)
    probe = fingerprints(tiny_dataset.subset("test")[0])
    assert np.array_equal(clf.predict_proba(probe), back.predict_proba(probe))
    # the dump is plain structured text
    json.loads(path.read_text())


# -- heap-array trees ------------------------------------------------------------------


def _reference_margin(model, X):
    """A node-by-node walk of every tree's heap arrays for every row, added in tree order."""
    trees = model.trees
    n_inner = trees.feature.shape[1]
    margins = np.full(len(X), model.base_score, dtype=np.float64)
    for feature, threshold, leaf in zip(trees.feature, trees.threshold, trees.leaf):
        values = []
        for row in X:
            node = 0
            while node < n_inner:
                node = 2 * node + 1 if row[feature[node]] <= threshold[node] else 2 * node + 2
            values.append(leaf[node - n_inner])
        margins += np.array(values, dtype=np.float64)
    return margins


def _payload(trees, max_depth=2, base_score=0.0):
    """A saved model holding ``trees``, each a (feature, threshold, leaf) triple of lists."""
    payload = BoostedTreeClassifier(ClassifierConfig(max_depth=max_depth)).to_json_dict()
    feature, threshold, leaf = ([list(tree[i]) for tree in trees] for i in range(3))
    return {**payload, "base_score": base_score, "feature": feature, "threshold": threshold, "leaf": leaf}


def _model(trees, max_depth=2, base_score=0.0):
    return BoostedTreeClassifier.from_json_dict(_payload(trees, max_depth, base_score))


@st.composite
def _trees(draw, depth, n_features):
    """A tree of ``depth`` split levels as heap arrays; any split may read any column."""
    n_inner = 2**depth - 1
    return (
        draw(st.lists(st.integers(0, n_features - 1), min_size=n_inner, max_size=n_inner)),
        draw(st.lists(st.integers(-1, 5), min_size=n_inner, max_size=n_inner)),
        draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n_inner + 1, max_size=n_inner + 1)),
    )


@settings(max_examples=150)
@given(data=st.data())
def test_compiled_margins_equal_reference_walk_bit_for_bit(data):
    max_depth = data.draw(st.integers(1, 4), label="max_depth")
    n_features = data.draw(st.integers(1, 5), label="n_features")
    trees = data.draw(st.lists(_trees(max_depth, n_features), max_size=12), label="trees")
    base_score = data.draw(st.floats(-5, 5, allow_nan=False), label="base_score")
    cells = 12
    block_rows = max(1, cells // max(len(trees), 1))
    n_rows = data.draw(st.sampled_from([0, 1, block_rows + 1, 3 * block_rows + 2]), label="n_rows")
    X = data.draw(arrays(np.int64, (n_rows, n_features), elements=st.integers(-2, 6)), label="X")
    model = _model(trees, max_depth, base_score)
    with mock.patch.object(boosting, "_BLOCK_CELLS", cells):
        got = model.predict_margin(X)
    assert got.tobytes() == _reference_margin(model, X).tobytes()


@settings(max_examples=150)
@given(data=st.data())
def test_stacked_margins_equal_each_models_reference_walk_bit_for_bit(data):
    # models of mixed depth and tree count stacked as one; each model's column must be its own walk
    n_features = data.draw(st.integers(1, 5), label="n_features")
    models = []
    for _ in range(data.draw(st.integers(1, 4), label="n_models")):
        max_depth = data.draw(st.integers(1, 4), label="max_depth")
        trees = data.draw(st.lists(_trees(max_depth, n_features), max_size=6), label="trees")
        base_score = data.draw(st.just(-0.0) | st.floats(-5, 5, allow_nan=False), label="base_score")
        models.append(_model(trees, max_depth, base_score))  # a -0.0 margin must stay -0.0
    stack = boosting._stack([model.trees for model in models])
    cells = data.draw(st.integers(1, 40), label="cells")
    block_rows = max(1, cells // (len(stack.feature) + len(models)))
    n_rows = data.draw(st.sampled_from([0, 1, block_rows + 1, 3 * block_rows + 2]), label="n_rows")
    X = data.draw(arrays(np.int64, (n_rows, n_features), elements=st.integers(-2, 6)), label="X")
    X[::3] = 0  # rows of zeros end on every tree's zero-row leaf
    X[1::3, 0] += X[1::3, 0] == 0  # placeholder splits read column 0
    with mock.patch.object(boosting, "_BLOCK_CELLS", cells):
        got = boosting._margins(stack, X, np.array([model.base_score for model in models]))
    for m, model in enumerate(models):
        assert got[:, m].tobytes() == _reference_margin(model, X).tobytes(), m


def test_fitted_depth3_margins_equal_reference_walk(tiny_dataset):
    seqs, labels = tiny_dataset.subset("train")
    X = fingerprints(seqs)
    clf = BoostedTreeClassifier(ClassifierConfig(n_rounds=30, max_depth=3)).fit(X, labels)
    assert clf.predict_margin(X).tobytes() == _reference_margin(clf, X).tobytes()


def _log_loss(y, p):
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


@pytest.mark.parametrize("max_depth", [2, 3])
def test_fit_margins_route_every_row_not_only_the_subsample(tiny_dataset, max_depth):
    # fit updates the training margins leaf by leaf; rows outside a round's
    # subsample must get their leaf value too, or the last loss drifts from
    # the one the finished model predicts
    seqs, labels = tiny_dataset.subset("train")
    X = fingerprints(seqs)
    y = labels.astype(np.float64)
    clf = BoostedTreeClassifier(ClassifierConfig(n_rounds=40, max_depth=max_depth, subsample=0.7, seed=3)).fit(X, y)
    lowest = slice(2 ** (max_depth - 1) - 1, 2**max_depth - 1)  # the splits just above the leaves
    placeholder = (clf.trees.feature[:, lowest] == 0) & (clf.trees.threshold[:, lowest] == 0)
    twin_leaves = clf.trees.leaf[:, 0::2] == clf.trees.leaf[:, 1::2]
    assert (placeholder & twin_leaves).any()  # some branches end early, so their layout is exercised
    assert clf.train_losses_[-1] == _log_loss(y, clf.predict_proba(X))


def test_refit_and_reload_never_serve_stale_compiled_trees():
    X, y = _toy_separable(seed=1)
    X2, y2 = _toy_separable(seed=2)
    config = ClassifierConfig(n_rounds=8)
    model = BoostedTreeClassifier(config).fit(X, y)
    first = model.predict_margin(X)
    other = BoostedTreeClassifier(config).fit(X2, 1 - y2)
    assert not np.array_equal(first, other.predict_margin(X))

    model.fit(X2, 1 - y2)
    assert np.array_equal(model.predict_margin(X), other.predict_margin(X))

    loaded = BoostedTreeClassifier.from_json_dict(BoostedTreeClassifier(config).fit(X, y).to_json_dict())
    loaded.predict_margin(X)
    reloaded = BoostedTreeClassifier.from_json_dict(other.to_json_dict())
    assert np.array_equal(reloaded.predict_margin(X), other.predict_margin(X))
    assert np.array_equal(loaded.predict_margin(X), first)


GOOD_TREE = ([1, 0, 0], [2, 0, 0], [-0.5, -0.5, 0.5, 0.5])  # one split on column 1, then two leaves
LEAF_ONLY = ([0, 0, 0], [0, 0, 0], [0.3, 0.3, 0.3, 0.3])  # a root leaf over placeholder splits


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("leaf", None, r"missing key 'leaf'"),
        ("feature", [[1, 0, 0], [1, 0, 0], [-1, 0, 0]], r"'feature': column -1 is not a non-negative integer"),
        ("feature", [[1, 0, 0], [1, 0, 0], [3, 0, 0]], r"\btree 2 splits on column 3\b"),
        ("threshold", [[2, 0, 0], [2, 0, 0], [2.5, 0, 0]], r"'threshold': .*not integers"),
        ("feature", [[1, 0, 0, 0, 0, 0, 0]] * 3, r"'feature': shape \(3, 7\)"),
        ("feature", [[1.0, 0, 0]] * 3, r"'feature': .*not integers"),
        ("leaf", [[-0.5, -0.5, 0.5, 0.5]] * 2, r"hold 3, 3 and 2 trees"),
        ("leaf", [["x"] * 4] * 3, r"'leaf': .*not numbers"),
        ("config", {"max_depth": 0}, r"'config': max_depth"),
        ("base_score", [0.0], r"'base_score'"),
        ("trees", [{"value": 0.1}], r"nested-dict trees.*rebuild"),
    ],
    ids=["missing_keys", "negative_feature", "feature_past_last_column", "fractional_threshold",
         "deeper_than_max_depth", "float_feature", "tree_counts_differ", "non_numeric_leaf", "bad_config",
         "non_numeric_base_score", "nested_dict_trees"],
)
def test_corrupt_tree_fails_loudly_on_first_prediction(key, value, match):
    # a malformed field fails at load, naming the key; a split past the last
    # column of X fails at the first prediction, naming the tree
    payload = _payload([GOOD_TREE] * 3, max_depth=2)
    if value is None:
        del payload[key]
    else:
        payload[key] = value
    with pytest.raises(ValueError, match=match):
        BoostedTreeClassifier.from_json_dict(payload).predict_margin(np.zeros((4, 3), dtype=np.int64))


def test_narrower_input_than_the_splits_read_fails_loudly():
    model = _model([LEAF_ONLY, GOOD_TREE], max_depth=2)
    assert np.array_equal(model.predict_margin(np.array([[0, 1], [0, 3]])), [0.3 - 0.5, 0.3 + 0.5])
    with pytest.raises(ValueError, match=r"\btree 1 splits on column 1, but X has 1 columns"):
        model.predict_margin(np.zeros((2, 1), dtype=np.int64))


# -- split search over the used columns ------------------------------------------------


class _DenseBins:
    """The split search over every column: a (n_features, 16) histogram grid per node."""

    def __init__(self, X):
        self.n_features = X.shape[1]
        binned = np.minimum(X, boosting._BIN_COUNT - 1).astype(np.int64)
        self.rows, feats = np.nonzero(binned)
        self.flat = feats * boosting._BIN_COUNT + binned[self.rows, feats]

    def histograms(self, node_mask, g, h):
        size = self.n_features * boosting._BIN_COUNT
        member = node_mask[self.rows]
        rows = self.rows[member]
        flat = self.flat[member]
        G = np.bincount(flat, weights=g[rows], minlength=size).reshape(-1, boosting._BIN_COUNT)
        H = np.bincount(flat, weights=h[rows], minlength=size).reshape(-1, boosting._BIN_COUNT)
        C = np.bincount(flat, minlength=size).reshape(-1, boosting._BIN_COUNT).astype(np.float64)
        g_tot = g[node_mask].sum()
        h_tot = h[node_mask].sum()
        c_tot = float(node_mask.sum())
        G[:, 0] = g_tot - G.sum(axis=1)
        H[:, 0] = h_tot - H.sum(axis=1)
        C[:, 0] = c_tot - C.sum(axis=1)
        return G, H, C, g_tot, h_tot


def _dense_best_split(G, H, C, g_tot, h_tot, reg_lambda):
    GL = np.cumsum(G, axis=1)[:, :-1]
    HL = np.cumsum(H, axis=1)[:, :-1]
    CL = np.cumsum(C, axis=1)[:, :-1]
    GR = g_tot - GL
    HR = h_tot - HL
    CR = C.sum(axis=1, keepdims=True) - CL
    parent = g_tot * g_tot / (h_tot + reg_lambda)
    gain = GL**2 / (HL + reg_lambda) + GR**2 / (HR + reg_lambda) - parent
    usable = (CL >= 1) & (CR >= 1) & (HL >= boosting._MIN_CHILD_HESSIAN) & (HR >= boosting._MIN_CHILD_HESSIAN)
    gain = np.where(usable, gain, -np.inf)
    idx = int(np.argmax(gain))
    feature, threshold = divmod(idx, boosting._BIN_COUNT - 1)
    return feature, threshold, float(gain.flat[idx])


def _dense_reference_fit(config, X, y):
    """(feature, threshold, leaf, losses) of a depth-first, node-by-node fit over the dense bins.

    A frozen copy of the round loop and the recursive node builder: each node
    masks every row, searches all 15 thresholds of every column, and routes
    rows on the raw values of ``X``.
    """
    X = np.asarray(X)
    y = np.asarray(y, dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    bins = _DenseBins(X)
    n = len(y)
    margins = np.zeros(n)
    p = boosting._sigmoid(margins)
    n_inner = 2**config.max_depth - 1
    feature = np.zeros((config.n_rounds, n_inner), dtype=np.int64)
    threshold = np.zeros((config.n_rounds, n_inner), dtype=np.int64)
    leaf = np.zeros((config.n_rounds, n_inner + 1))
    every_row = np.ones(n, dtype=bool)
    losses = []

    def build_node(r, route, active, g, h, node, level):
        node_mask = route & active
        if level < config.max_depth and node_mask.sum() >= 2:
            G, H, C, g_tot, h_tot = bins.histograms(node_mask, g, h)
            f, t, gain = _dense_best_split(G, H, C, g_tot, h_tot, config.reg_lambda)
            if gain > boosting._MIN_GAIN:
                feature[r, node], threshold[r, node] = f, t
                goes_left = route & (X[:, f] <= t)
                build_node(r, goes_left, active, g, h, 2 * node + 1, level + 1)
                build_node(r, route & ~goes_left, active, g, h, 2 * node + 2, level + 1)
                return
        value = -config.learning_rate * g[node_mask].sum() / (h[node_mask].sum() + config.reg_lambda)
        width = 2 ** (config.max_depth - level)
        first = (node + 1) * width - 1 - n_inner  # the bottom leaves below this node
        leaf[r, first : first + width] = value
        margins[route] += value

    for r in range(config.n_rounds):
        g = p - y
        h = p * (1.0 - p)
        if config.subsample < 1.0:
            active = np.zeros(n, dtype=bool)
            active[rng.permutation(n)[: max(1, int(config.subsample * n))]] = True
        else:
            active = every_row
        build_node(r, every_row, active, g, h, 0, 0)
        p = boosting._sigmoid(margins)
        clipped = np.clip(p, boosting._PROB_EPS, 1.0 - boosting._PROB_EPS)
        losses.append(float(-np.mean(y * np.log(clipped) + (1 - y) * np.log(1 - clipped))))
    return feature, threshold, leaf, losses


def _assert_fit_matches_dense_reference(config, X, y):
    got = BoostedTreeClassifier(config).fit(X, y)
    *want, want_losses = _dense_reference_fit(config, X, y)
    for name, array in zip(("feature", "threshold", "leaf"), want):
        assert getattr(got.trees, name).tobytes() == array.tobytes(), name
    assert got.train_losses_ == want_losses
    return got


@st.composite
def _count_matrices(draw):
    """Sparse counts over 1-8 columns, some never nonzero, with both labels."""
    n_rows = draw(st.integers(2, 30))
    n_cols = draw(st.integers(1, 8))
    X = np.zeros((n_rows, n_cols), dtype=np.int64)
    for col in draw(st.lists(st.integers(0, n_cols - 1), unique=True, max_size=n_cols)):
        X[:, col] = draw(arrays(np.int64, n_rows, elements=st.sampled_from([0, 0, 0, 1, 1, 2, 3, 14, 15, 16, 40])))
    y = draw(arrays(np.int8, n_rows, elements=st.integers(0, 1)))
    y[:2] = (0, 1)
    return X, y


_ONLY_LAST_COLUMN = (np.array([[0, 0, 0, 2], [0, 0, 0, 0], [0, 0, 0, 17], [0, 0, 0, 1]]), np.array([1, 0, 1, 0]))
_ONLY_FIRST_COLUMN = (np.array([[16, 0], [0, 0], [40, 0], [3, 0], [15, 0]]), np.array([1, 0, 1, 0, 1]))


@settings(max_examples=150)
@given(
    data=_count_matrices(),
    max_depth=st.integers(1, 3),
    subsample=st.sampled_from([1.0, 0.8, 0.5]),
    n_rounds=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
@example(data=_ONLY_LAST_COLUMN, max_depth=2, subsample=1.0, n_rounds=3, seed=0)
@example(data=_ONLY_FIRST_COLUMN, max_depth=3, subsample=0.8, n_rounds=4, seed=1)
def test_used_column_split_search_equals_dense_reference_bit_for_bit(data, max_depth, subsample, n_rounds, seed):
    X, y = data
    config = ClassifierConfig(n_rounds=n_rounds, max_depth=max_depth, subsample=subsample, seed=seed)
    _assert_fit_matches_dense_reference(config, X, y)


@pytest.mark.parametrize("subsample", [1.0, 0.7])
def test_fingerprint_fit_equals_dense_reference_bit_for_bit(tiny_dataset, subsample):
    # 2048 columns of which most are never nonzero, as in every real fit
    seqs, labels = tiny_dataset.subset("train")
    X = fingerprints(seqs)
    assert 0 < np.count_nonzero(X.any(axis=0)) < X.shape[1]
    config = ClassifierConfig(n_rounds=15, max_depth=3, subsample=subsample, seed=2)
    _assert_fit_matches_dense_reference(config, X, labels)


@pytest.mark.parametrize("max_depth, subsample", [(1, 1.0), (2, 0.6)])
def test_matrix_with_no_nonzero_gives_leaf_only_trees(max_depth, subsample):
    # no column can split, so every tree is one leaf over placeholder splits
    X = np.zeros((12, 5), dtype=np.int64)
    y = np.array([0, 1] * 4 + [1] * 4)
    config = ClassifierConfig(n_rounds=6, max_depth=max_depth, subsample=subsample, seed=4)
    clf = _assert_fit_matches_dense_reference(config, X, y)
    assert not clf.trees.feature.any() and not clf.trees.threshold.any()
    assert (clf.trees.leaf == clf.trees.leaf[:, :1]).all()
