import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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


# -- compiled evaluation ---------------------------------------------------------


def _reference_margin(model, X):
    """A node-by-node walk of every tree for every row, added in tree order."""
    margins = np.full(len(X), model.base_score, dtype=np.float64)
    for tree in model.trees_:
        values = []
        for row in X:
            node = tree
            while "value" not in node:
                node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
            values.append(node["value"])
        margins += np.array(values, dtype=np.float64)
    return margins


def _model(trees, max_depth=2, base_score=0.0):
    payload = BoostedTreeClassifier(ClassifierConfig(max_depth=max_depth)).to_json_dict()
    return BoostedTreeClassifier.from_json_dict({**payload, "base_score": base_score, "trees": trees})


@st.composite
def _trees(draw, depth, n_features):
    """A tree of at most ``depth`` split levels; any node may be an early leaf."""
    if depth == 0 or draw(st.booleans()):
        return {"value": draw(st.floats(-1e3, 1e3, allow_nan=False))}
    return {
        "feature": draw(st.integers(0, n_features - 1)),
        "threshold": draw(st.integers(-1, 5)),
        "left": draw(_trees(depth - 1, n_features)),
        "right": draw(_trees(depth - 1, n_features)),
    }


@settings(max_examples=150, deadline=None)
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


def test_fitted_depth3_margins_equal_reference_walk(tiny_dataset):
    seqs, labels = tiny_dataset.subset("train")
    X = fingerprints(seqs)
    clf = BoostedTreeClassifier(ClassifierConfig(n_rounds=30, max_depth=3)).fit(X, labels)
    assert clf.predict_margin(X).tobytes() == _reference_margin(clf, X).tobytes()


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


GOOD_TREE = {"feature": 1, "threshold": 2, "left": {"value": -0.5}, "right": {"value": 0.5}}


@pytest.mark.parametrize(
    "bad_tree",
    [
        {"feature": 1, "threshold": 2, "left": {"value": 0.1}},
        {"feature": -1, "threshold": 2, "left": {"value": 0.1}, "right": {"value": 0.2}},
        {"feature": 3, "threshold": 2, "left": {"value": 0.1}, "right": {"value": 0.2}},
        {"feature": 0, "threshold": 2.5, "left": {"value": 0.1}, "right": {"value": 0.2}},
        {"feature": 0, "threshold": 1, "left": {"value": 0.1},
         "right": {"feature": 2, "threshold": 0, "left": GOOD_TREE, "right": {"value": 0.2}}},
    ],
    ids=["missing_keys", "negative_feature", "feature_past_last_column", "fractional_threshold",
         "deeper_than_max_depth"],
)
def test_corrupt_tree_fails_loudly_on_first_prediction(bad_tree):
    model = _model([GOOD_TREE, GOOD_TREE, bad_tree], max_depth=2)
    with pytest.raises(ValueError, match=r"\btree 2\b"):
        model.predict_margin(np.zeros((4, 3), dtype=np.int64))


def test_narrower_input_than_the_splits_read_fails_loudly():
    model = _model([{"value": 0.3}, GOOD_TREE], max_depth=2)
    assert np.array_equal(model.predict_margin(np.array([[0, 1], [0, 3]])), [0.3 - 0.5, 0.3 + 0.5])
    with pytest.raises(ValueError, match=r"\btree 1\b"):
        model.predict_margin(np.zeros((2, 1), dtype=np.int64))
