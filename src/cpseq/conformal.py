"""Mondrian inductive conformal prediction over a probabilistic classifier.

One ICP keeps class-conditional sorted nonconformity scores from a calibration
set; an aggregate predictor averages p-values across several bootstrap-built
ICPs. P-values are unsmoothed (ties counted as >=), so everything here is
deterministic given the fitted models and calibration data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from operator import is_not
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .boosting import BoostedTreeClassifier, ClassifierConfig, _check_counts, _finite, _margins, _proba
from .boosting import _SparseBins, _stack, _Trees
from .tables import json_field, read_json

DEFAULT_SIGNIFICANCE = 0.2
DEFAULT_ICP_COUNT = 10
_BOOTSTRAP_RETRIES = 10


class PValuePair(NamedTuple):
    p0: float
    p1: float


class PredictionSet(Enum):
    CLASS0 = "class0"
    CLASS1 = "class1"
    BOTH = "both"
    NONE = "none"


def nonconformity(p_correct: float, p_wrong_max: float) -> float:
    """Nonconformity of a (point, label) pair from class probabilities.

    alpha = 0.5 - (p_correct - p_wrong_max) / 2; in the binary case
    p_wrong_max = 1 - p_correct so alpha = 1 - p_correct.
    """
    return 0.5 - (p_correct - p_wrong_max) / 2.0


@dataclass(frozen=True, eq=False)
class Icp:
    """A calibrated inductive conformal predictor with per-label score lists."""

    model: BoostedTreeClassifier
    alphas_0: np.ndarray  # sorted ascending, nonconformity of true-label-0 points
    alphas_1: np.ndarray

    def __post_init__(self):
        for alphas in (self.alphas_0, self.alphas_1):
            if alphas.ndim != 1 or len(alphas) < 1:
                raise ValueError("each label needs a list of at least one calibration score")
            if np.any(np.diff(alphas) < 0):
                raise ValueError("calibration scores must be sorted ascending")

    def p_values_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mondrian p-values (p0, p1) per row of X; ties counted as >=."""
        return self._p_values(self.model.predict_proba(X))

    def _p_values(self, p1_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mondrian p-values (p0, p1) of each predicted probability of label 1."""
        alpha_for_0 = np.asarray(nonconformity(1.0 - p1_hat, p1_hat))
        alpha_for_1 = np.asarray(nonconformity(p1_hat, 1.0 - p1_hat))
        p0 = _tail_p(self.alphas_0, alpha_for_0)
        p1 = _tail_p(self.alphas_1, alpha_for_1)
        return p0, p1


def _tail_p(sorted_alphas: np.ndarray, test_alphas: np.ndarray) -> np.ndarray:
    n = len(sorted_alphas)
    count_ge = n - np.searchsorted(sorted_alphas, test_alphas, side="left")
    return (count_ge + 1.0) / (n + 1.0)


def calibrate_icp(model: BoostedTreeClassifier, X_cal: np.ndarray, y_cal: np.ndarray) -> Icp:
    """Build an ICP from a fitted model and calibration points.

    Recalibration to a new domain is the same call with fresh points; the
    underlying model is reused unchanged.
    """
    y_cal = np.asarray(y_cal)
    if not ((y_cal == 0).any() and (y_cal == 1).any()):
        raise ValueError("calibration points must contain both labels")
    p1_hat = model.predict_proba(X_cal)
    p_true = np.where(y_cal == 1, p1_hat, 1.0 - p1_hat)
    alphas = nonconformity(p_true, 1.0 - p_true)
    return Icp(
        model=model,
        alphas_0=np.sort(alphas[y_cal == 0]),
        alphas_1=np.sort(alphas[y_cal == 1]),
    )


@dataclass(frozen=True, eq=False)
class Acp:
    """Aggregated conformal predictor: mean p-values over k ICPs of boosted-tree models.

    The ICP models' trees are stacked on first use and scored in one pass; the
    stack is built again when a model's trees are no longer the stacked ones,
    as after a refit.
    """

    icps: tuple[Icp, ...]

    def __post_init__(self):
        if len(self.icps) < 1:
            raise ValueError("need at least one ICP")
        for i, icp in enumerate(self.icps):
            if not isinstance(icp.model, BoostedTreeClassifier):
                raise ValueError(f"ICP {i}'s model is a {type(icp.model).__name__}, not a BoostedTreeClassifier")

    def _trees(self) -> _Trees:
        """The ICP models' trees as one stack, kept while each model holds the same trees object."""
        trees = tuple(icp.model.trees for icp in self.icps)
        stacked = self.__dict__.get("_stacked")
        if stacked is None or any(map(is_not, stacked[0], trees)):
            stacked = self.__dict__["_stacked"] = (trees, _stack(trees))  # the dataclass is frozen
        return stacked[1]

    @property
    def k(self) -> int:
        return len(self.icps)

    def p_values_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean (p0, p1) per row of X, summed in ICP order; equal bit for bit to averaging each ICP's."""
        p1_hat = _proba(_margins(self._trees(), X, np.array([icp.model.base_score for icp in self.icps])))
        p0_sum = np.zeros(len(p1_hat), dtype=np.float64)
        p1_sum = np.zeros(len(p1_hat), dtype=np.float64)
        for icp, column in zip(self.icps, p1_hat.T):
            p0, p1 = icp._p_values(column)
            p0_sum += p0
            p1_sum += p1
        return p0_sum / self.k, p1_sum / self.k


def build_acp(
    X: np.ndarray,
    y: np.ndarray,
    k: int = DEFAULT_ICP_COUNT,
    config: ClassifierConfig | None = None,
    seed: int = 0,
) -> Acp:
    """Bootstrap-aggregate k ICPs over a training pool.

    Each ICP resamples the pool with replacement to form its proper-training
    set, fits its own classifier on that sample, and calibrates on the
    out-of-bag points. A resample missing a label out-of-bag (or in-bag) is
    redrawn, up to a retry cap. The pool is checked and scanned once: each fit
    takes its sample's nonzero entries from the pool's, and equals a fit on
    ``X[boot]`` bit for bit.
    """
    X = np.asarray(X)
    y = np.asarray(y, dtype=np.float64)
    if not ((y == 0).any() and (y == 1).any()):
        raise ValueError("training pool must contain both labels")
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_counts(X, y)
    pool = _SparseBins(X)
    config = config or ClassifierConfig()
    n = len(y)
    children = np.random.SeedSequence(seed).spawn(k)

    icps = []
    for child in children:
        rng = np.random.default_rng(child)
        clf_seed = int(child.generate_state(1)[0])
        for attempt in range(_BOOTSTRAP_RETRIES):
            boot = rng.integers(0, n, n)
            oob = np.ones(n, dtype=bool)
            oob[boot] = False
            y_boot = y[boot]
            y_oob = y[oob]
            both_in = (y_boot == 0).any() and (y_boot == 1).any()
            both_out = oob.any() and (y_oob == 0).any() and (y_oob == 1).any()
            if both_in and both_out:
                break
        else:
            raise RuntimeError("bootstrap failed to produce usable calibration splits")
        model = BoostedTreeClassifier(replace(config, seed=clf_seed))._fit(pool.take(boot), y_boot)
        icps.append(calibrate_icp(model, X[oob], y_oob))
    return Acp(tuple(icps))


def predict_set(pv: PValuePair, significance: float) -> PredictionSet:
    """Label set at the given significance; membership is p >= significance."""
    if not 0 < significance < 1:
        raise ValueError("significance must be in (0, 1)")
    in0 = pv.p0 >= significance
    in1 = pv.p1 >= significance
    if in0 and in1:
        return PredictionSet.BOTH
    if in0:
        return PredictionSet.CLASS0
    if in1:
        return PredictionSet.CLASS1
    return PredictionSet.NONE


def is_confident_positive(pv: PValuePair, significance: float = DEFAULT_SIGNIFICANCE) -> bool:
    """Hit flag: confident single-label positive call, p1 >= eps and p0 <= eps; elementwise on arrays.

    Boundaries are inclusive on both sides, matching the binary reward rule.
    """
    return (pv.p1 >= significance) & (pv.p0 <= significance)


@dataclass(frozen=True)
class ConformalMetrics:
    validity_0: float
    validity_1: float
    efficiency_0: float
    efficiency_1: float


def validity_efficiency(
    sets: Sequence[PredictionSet], labels: Sequence[int]
) -> ConformalMetrics:
    """Per-label validity and efficiency over predicted sets.

    For true label y: validity counts correct singletons plus Both; efficiency
    counts all singleton predictions (right or wrong class).
    """
    if len(sets) != len(labels):
        raise ValueError("sets and labels must have equal length")
    singleton_of = {PredictionSet.CLASS0: 0, PredictionSet.CLASS1: 1}
    out = {}
    for label in (0, 1):
        rows = [s for s, y in zip(sets, labels) if y == label]
        if not rows:
            raise ValueError(f"no samples with true label {label}")
        correct = sum(1 for s in rows if singleton_of.get(s) == label)
        both = sum(1 for s in rows if s is PredictionSet.BOTH)
        singles = sum(1 for s in rows if s in singleton_of)
        out[label] = ((correct + both) / len(rows), singles / len(rows))
    return ConformalMetrics(
        validity_0=out[0][0],
        validity_1=out[1][0],
        efficiency_0=out[0][1],
        efficiency_1=out[1][1],
    )


def acp_to_json_dict(acp: Acp) -> dict:
    return {
        "icps": [
            {
                "model": icp.model.to_json_dict(),
                "alphas_0": icp.alphas_0.tolist(),
                "alphas_1": icp.alphas_1.tolist(),
            }
            for icp in acp.icps
        ]
    }


def _icp_from_json_dict(entry: dict) -> Icp:
    return Icp(
        model=json_field(entry, "model", BoostedTreeClassifier.from_json_dict),
        alphas_0=json_field(entry, "alphas_0", _finite),
        alphas_1=json_field(entry, "alphas_1", _finite),
    )


def acp_from_json_dict(payload: dict) -> Acp:
    """The ACP an :func:`acp_to_json_dict` payload holds; raises ValueError naming a missing or malformed key."""
    return Acp(json_field(payload, "icps", lambda icps: tuple(map(_icp_from_json_dict, icps))))


def save_acp(acp: Acp, path: str | Path) -> None:
    Path(path).write_text(json.dumps(acp_to_json_dict(acp)))


def load_acp(path: str | Path) -> Acp:
    return read_json(path, acp_from_json_dict)
