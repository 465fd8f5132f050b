import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpseq.conformal import PValuePair, is_confident_positive
from cpseq.scoring import (
    SCORING_KINDS,
    score,
    score_diff,
    score_harsh,
    score_one_minus_p0,
    score_p1,
    score_rm,
    score_soft,
)

unit = st.floats(0.0, 1.0, allow_nan=False)
pairs = st.builds(PValuePair, unit, unit)
levels = st.sampled_from([0.05, 0.2, 0.5])  # significances that the p-values below hit exactly
on_or_off_level = st.one_of(unit, levels, st.sampled_from([0.0, 1.0]))


def test_rm_is_identity():
    assert score_rm(0.0) == 0.0
    assert score_rm(1.0) == 1.0
    assert score_rm(0.87) == 0.87


def test_p1_passthrough():
    assert score_p1(PValuePair(0.4, 0.23)) == 0.23
    assert score_p1(PValuePair(0.9, 0.0)) == 0.0
    assert score_p1(PValuePair(0.0, 1.0)) == 1.0


def test_one_minus_p0():
    assert score_one_minus_p0(PValuePair(0.0, 0.5)) == 1.0
    assert score_one_minus_p0(PValuePair(1.0, 0.5)) == 0.0
    assert score_one_minus_p0(PValuePair(0.35, 0.5)) == 0.65


def test_diff_remapping():
    assert score_diff(PValuePair(0.0, 1.0)) == 1.0
    assert score_diff(PValuePair(0.3, 0.3)) == 0.5
    assert score_diff(PValuePair(1.0, 0.0)) == 0.0


def test_harsh_binary_reward():
    assert score_harsh(PValuePair(0.1, 0.5)) == 1.0
    assert score_harsh(PValuePair(0.3, 0.5)) == 0.0
    assert score_harsh(PValuePair(0.2, 0.2)) == 1.0  # inclusive boundaries


def test_soft_partial_reward():
    assert score_soft(PValuePair(0.1, 0.9)) == 1.0
    assert score_soft(PValuePair(0.1, 0.1)) == 0.5  # only the p0 condition holds
    assert score_soft(PValuePair(0.5, 0.1)) == 0.0


@given(pv=pairs, raw=unit)
@settings(max_examples=200)
def test_all_scores_in_unit_interval(pv, raw):
    for kind in SCORING_KINDS:
        assert 0.0 <= score(kind, pv, raw) <= 1.0


@given(pv=pairs)
@settings(max_examples=200)
def test_full_reward_iff_confident_hit(pv):
    hit = is_confident_positive(pv)
    assert (score_harsh(pv) == 1.0) == hit
    assert (score_soft(pv) == 1.0) == hit
    assert score_soft(pv) >= score_harsh(pv)


@given(pv=pairs)
@settings(max_examples=200)
def test_diff_antisymmetric_under_swap(pv):
    swapped = PValuePair(pv.p1, pv.p0)
    assert score_diff(pv) + score_diff(swapped) == pytest.approx(1.0, abs=1e-12)


def test_dispatch_matches_direct_calls():
    pv = PValuePair(0.15, 0.4)
    assert score("rm_p1", pv, 0.7) == 0.7
    assert score("cp_p1", pv, 0.7) == 0.4
    assert score("cp_1mp0", pv, 0.7) == pytest.approx(0.85)
    assert score("cp_diff", pv, 0.7) == pytest.approx((0.4 - 0.15 + 1) / 2)
    assert score("cp_harsh", pv, 0.7) == 1.0
    assert score("cp_soft", pv, 0.7) == 1.0


def test_dispatch_rejects_unknown_kind():
    with pytest.raises(ValueError):
        score("p1_rm", PValuePair(0.5, 0.5), 0.5)


@given(
    rows=st.lists(st.tuples(on_or_off_level, on_or_off_level, on_or_off_level), min_size=2, max_size=30),
    significance=st.one_of(levels, st.floats(0.01, 0.99)),
)
@settings(max_examples=200)
def test_array_score_equals_scalar_score_bit_for_bit(rows, significance):
    p0, p1, raw = (np.array(column, dtype=np.float64) for column in zip(*rows))
    for kind in SCORING_KINDS:
        got = score(kind, PValuePair(p0, p1), raw, significance)
        want = [score(kind, PValuePair(a, b), r, significance) for a, b, r in rows]
        assert got.dtype == np.float64, kind
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes(), kind
        assert all(type(value) is float for value in want), kind


def test_hit_rule_works_elementwise():
    pv = PValuePair(np.array([0.1, 0.3, 0.2, 0.1]), np.array([0.5, 0.5, 0.2, 0.1]))
    assert is_confident_positive(pv).tolist() == [True, False, True, False]
    assert score_harsh(pv).tolist() == [1.0, 0.0, 1.0, 0.0]
    assert score_soft(pv).tolist() == [1.0, 0.5, 1.0, 0.5]
