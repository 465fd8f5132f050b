"""The six reward functions mapping classifier/conformal outputs to [0, 1].

Every function is pure and stateless; no transformation is applied beyond the
stated formulas. ``rm_p1`` consumes the raw classifier probability, the five
``cp_*`` kinds consume the conformal p-value pair. Each formula works
elementwise, on floats and arrays alike, by the same IEEE operations.
"""

from __future__ import annotations

from .conformal import DEFAULT_SIGNIFICANCE, PValuePair, is_confident_positive


def score_rm(p1_raw: float) -> float:
    """Raw-model probability of the positive class, used as-is."""
    return p1_raw


def score_p1(pv: PValuePair) -> float:
    return pv.p1


def score_one_minus_p0(pv: PValuePair) -> float:
    return 1.0 - pv.p0


def score_diff(pv: PValuePair) -> float:
    """(p1 - p0) mapped from [-1, 1] onto [0, 1]."""
    return ((pv.p1 - pv.p0) + 1.0) / 2.0


def score_harsh(pv: PValuePair, significance: float = DEFAULT_SIGNIFICANCE) -> float:
    """1 when both confident-positive conditions hold, else 0."""
    return is_confident_positive(pv, significance) * 1.0


def score_soft(pv: PValuePair, significance: float = DEFAULT_SIGNIFICANCE) -> float:
    """Like the harsh reward but granting 0.5 when exactly one condition holds."""
    return 0.5 * (pv.p0 <= significance) + 0.5 * (pv.p1 >= significance)


_BY_KIND = {
    "rm_p1": lambda pv, p1_raw, significance: score_rm(p1_raw),
    "cp_p1": lambda pv, p1_raw, significance: score_p1(pv),
    "cp_1mp0": lambda pv, p1_raw, significance: score_one_minus_p0(pv),
    "cp_diff": lambda pv, p1_raw, significance: score_diff(pv),
    "cp_harsh": lambda pv, p1_raw, significance: score_harsh(pv, significance),
    "cp_soft": lambda pv, p1_raw, significance: score_soft(pv, significance),
}
SCORING_KINDS = tuple(_BY_KIND)


def check_kind(kind: str) -> str:
    """``kind``, or ValueError unless it is one of :data:`SCORING_KINDS`."""
    if kind not in SCORING_KINDS:
        raise ValueError(f"unknown scoring kind {kind!r}; expected one of {SCORING_KINDS}")
    return kind


def score(kind: str, pv: PValuePair, p1_raw: float, significance: float = DEFAULT_SIGNIFICANCE) -> float:
    """Dispatch on a scoring-kind name from :data:`SCORING_KINDS`."""
    return _BY_KIND[check_kind(kind)](pv, p1_raw, significance)
