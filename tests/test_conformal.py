import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpseq.boosting import BoostedTreeClassifier, ClassifierConfig
from cpseq.conformal import (
    Acp,
    Icp,
    PredictionSet,
    PValuePair,
    acp_from_json_dict,
    acp_to_json_dict,
    build_acp,
    calibrate_icp,
    is_confident_positive,
    load_acp,
    nonconformity,
    predict_set,
    save_acp,
    validity_efficiency,
)
from cpseq.domain import fingerprints


class StubModel:
    """Fixed-response classifier; proves any predict_proba provider plugs in."""

    def __init__(self, p1_by_row):
        self.p1_by_row = np.asarray(p1_by_row, dtype=np.float64)

    def predict_proba(self, X):
        return self.p1_by_row[: len(np.atleast_2d(X))]


# -- nonconformity ---------------------------------------------------------------


def test_nonconformity_examples():
    assert nonconformity(1.0, 0.0) == 0.0
    assert nonconformity(0.5, 0.5) == 0.5
    assert nonconformity(0.9, 0.1) == pytest.approx(0.1, abs=1e-15)


@given(p=st.floats(0.0, 1.0))
@settings(max_examples=60)
def test_nonconformity_stays_in_unit_interval(p):
    assert 0.0 <= nonconformity(p, 1.0 - p) <= 1.0


# -- single ICP -------------------------------------------------------------------


def test_calibrate_icp_stores_scores_per_label_sorted():
    X = np.zeros((4, 3))
    y = np.array([1, 0, 1, 0])
    model = StubModel([0.9, 0.3, 0.6, 0.8])
    icp = calibrate_icp(model, X, y)
    # true label 1 with p1 = 0.9 -> alpha = 0.1 in the label-1 list
    assert icp.alphas_1 == pytest.approx([0.1, 0.4], abs=1e-12)
    # true label 0 with p1 = 0.3 -> p0 = 0.7 -> alpha = 0.3
    assert icp.alphas_0 == pytest.approx([0.3, 0.8], abs=1e-12)
    assert np.all(np.diff(icp.alphas_0) >= 0) and np.all(np.diff(icp.alphas_1) >= 0)


def test_calibrate_icp_needs_both_labels():
    with pytest.raises(ValueError):
        calibrate_icp(StubModel([0.5, 0.5]), np.zeros((2, 3)), np.array([1, 1]))


def test_minimal_calibration_one_point_per_label():
    icp = calibrate_icp(StubModel([0.2, 0.9]), np.zeros((2, 3)), np.array([0, 1]))
    assert len(icp.alphas_0) == 1 and len(icp.alphas_1) == 1


def _icp_with_label1_scores(scores, test_p1):
    # alpha for hypothesis label 1 is 1 - p1_hat, so pick p1_hat accordingly
    model = StubModel([test_p1])
    return Icp(model=model, alphas_0=np.array([0.5]), alphas_1=np.array(scores, dtype=float))


def test_p_value_counting_all_calibration_scores_above():
    icp = _icp_with_label1_scores([0.1, 0.2, 0.3, 0.6], test_p1=0.95)  # alpha = 0.05
    assert icp.p_values_batch(np.zeros((1, 3)))[1][0] == pytest.approx(1.0)


def test_p_value_counting_none_above():
    icp = _icp_with_label1_scores([0.1, 0.2, 0.3, 0.6], test_p1=0.3)  # alpha = 0.7
    assert icp.p_values_batch(np.zeros((1, 3)))[1][0] == pytest.approx((0 + 1) / 5)


def test_p_value_counting_tie_counts_as_greater_equal():
    icp = _icp_with_label1_scores([0.1, 0.2, 0.3, 0.6], test_p1=0.8)  # alpha = 0.2
    assert icp.p_values_batch(np.zeros((1, 3)))[1][0] == pytest.approx((3 + 1) / 5)


@given(
    scores=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30),
    a=st.floats(0, 1),
    b=st.floats(0, 1),
)
@settings(max_examples=100)
def test_p_value_monotone_in_test_alpha(scores, a, b):
    lo, hi = min(a, b), max(a, b)
    alphas = np.sort(np.array(scores))
    n = len(alphas)

    def p_of(alpha):
        return (n - np.searchsorted(alphas, alpha, side="left") + 1) / (n + 1)

    assert p_of(hi) <= p_of(lo)


# -- aggregation -------------------------------------------------------------------


def _fitted_icp(seed):
    X, y = _small_pool(seed)
    model = BoostedTreeClassifier(ClassifierConfig(n_rounds=6, seed=seed)).fit(X[:30], y[:30])
    return calibrate_icp(model, X[30:], y[30:])


def test_acp_of_one_equals_the_icp():
    icp = _fitted_icp(seed=0)
    X, _ = _small_pool(seed=9)
    assert np.array(Acp((icp,)).p_values_batch(X)).tobytes() == np.array(icp.p_values_batch(X)).tobytes()


def test_acp_mean_aggregation():
    first, second = _fitted_icp(seed=0), _fitted_icp(seed=1)
    X, _ = _small_pool(seed=9)
    p0, p1 = Acp((first, second)).p_values_batch(X)
    (p0_a, p1_a), (p0_b, p1_b) = first.p_values_batch(X), second.p_values_batch(X)
    assert p0.tobytes() == ((p0_a + p0_b) / 2).tobytes()
    assert p1.tobytes() == ((p1_a + p1_b) / 2).tobytes()


def test_acp_scores_a_refitted_model_with_its_new_trees():
    # the stack is built on first use; refitting an ICP's model in place replaces its trees,
    # and the next call must score the new ones, as the ICPs' own mean does
    icps = (_fitted_icp(seed=0), _fitted_icp(seed=1))
    acp = Acp(icps)
    X, y = _small_pool(seed=9)
    before = np.array(acp.p_values_batch(X))
    icps[0].model.fit(X, y)
    (p0_a, p1_a), (p0_b, p1_b) = icps[0].p_values_batch(X), icps[1].p_values_batch(X)
    after = np.array(acp.p_values_batch(X))
    assert after.tobytes() == np.array([(p0_a + p0_b) / 2, (p1_a + p1_b) / 2]).tobytes()
    assert after.tobytes() != before.tobytes()
    assert np.array(acp.p_values_batch(X)).tobytes() == after.tobytes()  # and keeps its stack again


def test_acp_rejects_an_icp_whose_model_has_no_heap_trees():
    stub = calibrate_icp(StubModel([0.2, 0.9]), np.zeros((2, 3)), np.array([0, 1]))
    with pytest.raises(ValueError, match=r"^ICP 1's model is a StubModel, not a BoostedTreeClassifier"):
        Acp((_fitted_icp(seed=0), stub))


@pytest.mark.parametrize("n_rows", [1, 31, 5000])
def test_stacked_acp_equals_the_icps_summed_in_order_bit_for_bit(acp5k, dataset5k, n_rows):
    # the ten ICP models are scored as one stack; the result must equal each ICP's own p-values, summed in ICP order
    acp = acp5k.acp
    X = fingerprints(dataset5k.sequences[:n_rows])
    sums = np.zeros((2, n_rows))
    for icp in acp.icps:
        sums += icp.p_values_batch(X)
    assert np.array(acp.p_values_batch(X)).tobytes() == (sums / acp.k).tobytes()


def test_acp_mean_between_min_and_max(tiny_models, tiny_dataset):
    _, acp = tiny_models
    X = fingerprints(tiny_dataset.subset("test")[0][:40])
    p0_all = np.stack([icp.p_values_batch(X)[0] for icp in acp.icps])
    p0_acp, _ = acp.p_values_batch(X)
    assert np.all(p0_all.min(axis=0) <= p0_acp + 1e-12)
    assert np.all(p0_acp <= p0_all.max(axis=0) + 1e-12)
    assert np.all((0 <= p0_acp) & (p0_acp <= 1))


def test_build_acp_default_k_and_determinism(tiny_dataset):
    seqs, labels = tiny_dataset.subset("train")
    X = fingerprints(seqs)
    from cpseq.boosting import ClassifierConfig

    config = ClassifierConfig(n_rounds=20)
    acp = build_acp(X, labels, config=config, seed=17)
    assert acp.k == 10
    again = build_acp(X, labels, config=config, seed=17)
    probe = fingerprints(tiny_dataset.subset("test")[0][:20])
    assert np.array_equal(acp.p_values_batch(probe)[0], again.p_values_batch(probe)[0])
    assert np.array_equal(acp.p_values_batch(probe)[1], again.p_values_batch(probe)[1])


def test_models_do_not_depend_on_the_dtype_of_the_counts(tiny_dataset):
    # fingerprints are uint8 counts; a caller that passes int64 counts gets the same models bit for bit
    seqs, labels = tiny_dataset.subset("train")
    X = fingerprints(seqs)
    probe = fingerprints(tiny_dataset.subset("test")[0])
    config = ClassifierConfig(n_rounds=30, max_depth=3, subsample=0.8)
    narrow, wide = (
        (BoostedTreeClassifier(config).fit(A, labels), build_acp(A, labels, k=3, config=config, seed=4))
        for A in (X, X.astype(np.int64))
    )
    assert json.dumps(narrow[0].to_json_dict()) == json.dumps(wide[0].to_json_dict())
    assert np.array(narrow[0].train_losses_).tobytes() == np.array(wide[0].train_losses_).tobytes()
    assert json.dumps(acp_to_json_dict(narrow[1])) == json.dumps(acp_to_json_dict(wide[1]))
    for clf, acp in (narrow, wide):
        for A in (probe, probe.astype(np.int64)):
            assert clf.predict_margin(A).tobytes() == narrow[0].predict_margin(probe).tobytes()
            assert np.array(acp.p_values_batch(A)).tobytes() == np.array(narrow[1].p_values_batch(probe)).tobytes()


def test_build_acp_requires_both_labels():
    with pytest.raises(ValueError):
        build_acp(np.zeros((6, 4)), np.ones(6), k=2)


def _bootstrap_draws(y, k, seed):
    """(classifier seed, in-bag rows, out-of-bag mask) of each ICP, drawn as ``build_acp`` draws them."""
    n = len(y)
    draws = []
    for child in np.random.SeedSequence(seed).spawn(k):
        rng = np.random.default_rng(child)
        clf_seed = int(child.generate_state(1)[0])
        while True:
            boot = rng.integers(0, n, n)
            oob = np.ones(n, dtype=bool)
            oob[boot] = False
            if len(np.unique(y[boot])) == 2 and len(np.unique(y[oob])) == 2:
                break
        draws.append((clf_seed, boot, oob))
    return draws


def _small_pool(seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 4, size=(40, 6)), np.arange(40) % 2


def test_build_acp_names_the_bad_entry_in_pool_rows():
    # the pool is checked before any bootstrap, so the message names the caller's row
    X, y = _small_pool()
    X[7, 2] = -1
    with pytest.raises(ValueError, match=r"^X\[7, 2\] = -1 is negative"):
        build_acp(X, y, k=2)


def test_build_acp_rejects_a_bad_row_that_only_calibrates():
    X, y = _small_pool()
    (_, boot, oob), = _bootstrap_draws(y, k=1, seed=0)
    row = int(np.flatnonzero(oob)[0])  # never drawn, so no fit ever sees it
    X[row, 4] = -1
    with pytest.raises(ValueError, match=rf"^X\[{row}, 4\] = -1 is negative"):
        build_acp(X, y, k=1, seed=0)


@st.composite
def _count_pools(draw):
    """10-30 rows of counts up to 40 with both labels, and a column nonzero in one row only."""
    n_rows = draw(st.integers(10, 30))
    n_cols = draw(st.integers(2, 6))
    X = draw(arrays(np.int64, (n_rows, n_cols), elements=st.sampled_from([0, 0, 0, 1, 2, 3, 7, 14, 15, 16, 40])))
    X[:, 0] = 0
    X[draw(st.integers(0, n_rows - 1)), 0] = draw(st.integers(1, 40))
    y = draw(arrays(np.int64, n_rows, elements=st.integers(0, 1)))
    y[:8] = np.arange(8) % 2
    return X, y


@settings(max_examples=100)
@given(
    pool=_count_pools(),
    max_depth=st.integers(1, 3),
    subsample=st.sampled_from([1.0, 0.7]),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_pooled_bootstrap_fits_equal_fits_on_bootstrap_copies(pool, max_depth, subsample, k, seed):
    # each ICP's model takes its sample's nonzeros from the pool's, over the
    # pool's columns and largest bin; it must equal a fit on the copy X[boot]
    X, y = pool
    config = ClassifierConfig(n_rounds=4, max_depth=max_depth, subsample=subsample)
    acp = build_acp(X, y, k=k, config=config, seed=seed)
    for icp, (clf_seed, boot, oob) in zip(acp.icps, _bootstrap_draws(y, k, seed), strict=True):
        want = BoostedTreeClassifier(replace(config, seed=clf_seed)).fit(X[boot], y[boot])
        for name in ("feature", "threshold", "leaf"):
            assert getattr(icp.model.trees, name).tobytes() == getattr(want.trees, name).tobytes(), name
        assert icp.model.train_losses_ == want.train_losses_
        want_icp = calibrate_icp(want, X[oob], y[oob])
        assert icp.alphas_0.tobytes() == want_icp.alphas_0.tobytes()
        assert icp.alphas_1.tobytes() == want_icp.alphas_1.tobytes()


# -- prediction sets -----------------------------------------------------------------


def test_predict_set_examples():
    assert predict_set(PValuePair(0.5, 0.05), 0.2) is PredictionSet.CLASS0
    assert predict_set(PValuePair(0.5, 0.5), 0.2) is PredictionSet.BOTH
    assert predict_set(PValuePair(0.1, 0.1), 0.2) is PredictionSet.NONE
    assert predict_set(PValuePair(0.05, 0.5), 0.2) is PredictionSet.CLASS1


@given(p0=st.floats(0, 1), p1=st.floats(0, 1), eps=st.floats(0.01, 0.99))
@settings(max_examples=100)
def test_predict_set_is_a_partition(p0, p1, eps):
    outcome = predict_set(PValuePair(p0, p1), eps)
    assert outcome in (
        PredictionSet.CLASS0,
        PredictionSet.CLASS1,
        PredictionSet.BOTH,
        PredictionSet.NONE,
    )


def test_confident_positive_flag():
    assert is_confident_positive(PValuePair(0.1, 0.9))
    assert not is_confident_positive(PValuePair(0.5, 0.9))
    # inclusive boundary convention on both sides
    assert is_confident_positive(PValuePair(0.2, 0.2))


# -- validity / efficiency -------------------------------------------------------------


def test_validity_efficiency_hand_count():
    sets = [PredictionSet.CLASS0, PredictionSet.BOTH, PredictionSet.CLASS1, PredictionSet.CLASS0]
    m = validity_efficiency(sets, [0, 0, 1, 1])
    assert m.validity_0 == 1.0
    assert m.validity_1 == 0.5
    assert m.efficiency_0 == 0.5
    assert m.efficiency_1 == 1.0


def test_validity_efficiency_all_both():
    sets = [PredictionSet.BOTH] * 4
    m = validity_efficiency(sets, [0, 0, 1, 1])
    assert (m.validity_0, m.validity_1) == (1.0, 1.0)
    assert (m.efficiency_0, m.efficiency_1) == (0.0, 0.0)


def test_validity_efficiency_all_none():
    sets = [PredictionSet.NONE] * 4
    m = validity_efficiency(sets, [0, 0, 1, 1])
    assert (m.validity_0, m.validity_1) == (0.0, 0.0)
    assert (m.efficiency_0, m.efficiency_1) == (0.0, 0.0)


def test_validity_efficiency_requires_both_labels():
    with pytest.raises(ValueError):
        validity_efficiency([PredictionSet.BOTH, PredictionSet.BOTH], [1, 1])


# -- persistence --------------------------------------------------------------------


def test_acp_serialization_round_trip(tmp_path, tiny_models, tiny_dataset):
    _, acp = tiny_models
    path = tmp_path / "acp.json"
    save_acp(acp, path)
    back = load_acp(path)
    X = fingerprints(tiny_dataset.subset("test")[0][:25])
    assert np.array_equal(acp.p_values_batch(X)[0], back.p_values_batch(X)[0])
    assert np.array_equal(acp.p_values_batch(X)[1], back.p_values_batch(X)[1])
    assert acp_from_json_dict(acp_to_json_dict(acp)).k == acp.k
