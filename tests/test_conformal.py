import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
@settings(max_examples=60, deadline=None)
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
@settings(max_examples=100, deadline=None)
def test_p_value_monotone_in_test_alpha(scores, a, b):
    lo, hi = min(a, b), max(a, b)
    alphas = np.sort(np.array(scores))
    n = len(alphas)

    def p_of(alpha):
        return (n - np.searchsorted(alphas, alpha, side="left") + 1) / (n + 1)

    assert p_of(hi) <= p_of(lo)


# -- aggregation -------------------------------------------------------------------


def _stub_icp(p0_out, p1_out):
    # an ICP rigged so its p-values on a single zero row are (p0_out, p1_out)
    class Rigged(Icp):
        def p_values_batch(self, X):
            n = len(np.atleast_2d(X))
            return np.full(n, p0_out), np.full(n, p1_out)

    return Rigged(model=StubModel([0.5]), alphas_0=np.array([0.5]), alphas_1=np.array([0.5]))


def test_acp_of_one_equals_the_icp():
    icp = _stub_icp(0.4, 0.7)
    acp = Acp((icp,))
    p0, p1 = acp.p_values_batch(np.zeros((1, 3)))
    assert PValuePair(p0[0], p1[0]) == PValuePair(0.4, 0.7)


def test_acp_mean_aggregation():
    acp = Acp((_stub_icp(0.1, 0.2), _stub_icp(0.3, 0.4)))
    p0, p1 = acp.p_values_batch(np.zeros((1, 3)))
    pv = PValuePair(p0[0], p1[0])
    assert pv == PValuePair(pytest.approx(0.2), pytest.approx(0.3))


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


def test_build_acp_requires_both_labels():
    with pytest.raises(ValueError):
        build_acp(np.zeros((6, 4)), np.ones(6), k=2)


# -- prediction sets -----------------------------------------------------------------


def test_predict_set_examples():
    assert predict_set(PValuePair(0.5, 0.05), 0.2) is PredictionSet.CLASS0
    assert predict_set(PValuePair(0.5, 0.5), 0.2) is PredictionSet.BOTH
    assert predict_set(PValuePair(0.1, 0.1), 0.2) is PredictionSet.NONE
    assert predict_set(PValuePair(0.05, 0.5), 0.2) is PredictionSet.CLASS1


@given(p0=st.floats(0, 1), p1=st.floats(0, 1), eps=st.floats(0.01, 0.99))
@settings(max_examples=100, deadline=None)
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
