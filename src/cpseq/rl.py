"""Reward-shaped policy fine-tuning over masked-fill queries.

Each learning step samples a batch from the trainable agent, assembles and
scores the proposals, regresses the agent log-likelihood onto the augmented
(prior + sigma * score) log-likelihood with a squared loss, and applies one
SGD update. Invalid assemblies earn score 0 but stay in the loss batch; the
conformal p-values and hit flags are tracked for every valid sample no matter
which scoring kind drives the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boosting import BoostedTreeClassifier
from .conformal import Acp, DEFAULT_SIGNIFICANCE, PValuePair, check_significance, is_confident_positive
from .domain import FINGERPRINT_BUCKETS, QueryTemplate, assemble_batch, fingerprints
from .policy import Policy
from .scoring import check_kind, score
from .tables import check_count, check_positive, check_seed, write_table


@dataclass(frozen=True)
class RLConfig:
    scoring: str = "rm_p1"
    sigma: float = 50.0
    batch_size: int = 32
    steps: int = 350
    significance: float = DEFAULT_SIGNIFICANCE
    learning_rate: float = 3e-4
    seed: int = 0

    def __post_init__(self):
        check_count("batch_size", self.batch_size)
        check_count("steps", self.steps)
        check_seed("seed", self.seed)
        check_kind(self.scoring)
        check_positive("sigma", self.sigma)
        check_significance(self.significance)
        check_positive("learning_rate", self.learning_rate)


def augmented_log_likelihood(log_p_prior, score_value, sigma: float):
    """Prior log-likelihood shifted by sigma times the reward; elementwise over arrays."""
    if not np.all((0.0 <= score_value) & (score_value <= 1.0)):
        raise ValueError("score must lie in [0, 1]")
    return log_p_prior + sigma * score_value


def squared_loss(log_p_aug, log_p_agent):
    """The squared gap between the augmented and the agent's log-likelihood; elementwise over arrays."""
    return (log_p_aug - log_p_agent) ** 2


@dataclass(frozen=True)
class SequenceEval:
    """Score and tracking quantities for one assembled sequence."""

    p0: float
    p1: float
    p1_raw: float
    score: float
    hit: bool


class SequenceScorer:
    """Scores assembled sequences for one (kind, classifier, ACP, eps) binding.

    Each sequence's (p0, p1, p1_raw, hit), which does not depend on the kind,
    is memoized in one memo that every scorer from :meth:`for_kind` shares.

    Raises ValueError on an unknown kind, a significance outside (0, 1), or
    when the classifier or an ICP's model splits on a column the fingerprints
    do not have.
    """

    def __init__(
        self,
        kind: str,
        classifier: BoostedTreeClassifier,
        acp: Acp,
        significance: float = DEFAULT_SIGNIFICANCE,
    ):
        check_kind(kind)
        check_significance(significance)
        models = {"the classifier": classifier, **{f"ICP {i}'s model": icp.model for i, icp in enumerate(acp.icps)}}
        for name, model in models.items():
            columns = model.trees.columns
            if columns.size and columns[-1] >= FINGERPRINT_BUCKETS:
                raise ValueError(
                    f"{name} splits on column {columns[-1]}, but fingerprints have {FINGERPRINT_BUCKETS} columns"
                )
        self.kind = kind
        self.classifier = classifier
        self.acp = acp
        self.significance = significance
        self._memo: dict[str, tuple[float, float, float, bool]] = {}  # sequence -> (p0, p1, p1_raw, hit)

    def for_kind(self, kind: str) -> SequenceScorer:
        """A scorer of ``kind`` over this scorer's models and memo."""
        other = SequenceScorer(kind, self.classifier, self.acp, self.significance)
        other._memo = self._memo
        return other

    def evaluate(self, sequences: list[str]) -> dict[str, SequenceEval]:
        """Each distinct sequence's evaluation, in order of first appearance."""
        memo = self._memo
        fresh = sorted(set(s for s in sequences if s not in memo))
        if fresh:
            X = fingerprints(fresh)
            pv = PValuePair(*self.acp.p_values_batch(X))
            columns = (pv.p0, pv.p1, self.classifier.predict_proba(X), is_confident_positive(pv, self.significance))
            memo.update(zip(fresh, zip(*(c.tolist() for c in columns))))
        distinct = list(dict.fromkeys(sequences))
        p0, p1, raw, _ = np.array([memo[s] for s in distinct]).reshape(-1, 4).T
        scores = score(self.kind, PValuePair(p0, p1), raw, self.significance).tolist()
        return {s: SequenceEval(*memo[s][:3], score=value, hit=memo[s][3]) for s, value in zip(distinct, scores)}


@dataclass
class StepMetrics:
    """One learning step's metrics; the fields are the per-run CSV's columns."""

    step: int
    scoring_fn: str
    avg_score: float
    avg_p0: float
    avg_p1: float
    frac_conf_eff: float
    n_sampled: int
    n_valid: int
    n_unique_valid: int
    loss: float


@dataclass
class RunRecord:
    """Full trajectory of one reinforcement run."""

    config: RLConfig
    steps: list[StepMetrics] = field(default_factory=list)
    unique_valid: set[str] = field(default_factory=set)
    conf_eff_unique: set[str] = field(default_factory=set)

    def write_csv(self, path: str | Path) -> None:
        write_table(path, StepMetrics, self.steps)


def rl_step(
    agent: Policy,
    prior: Policy,
    query: QueryTemplate,
    scorer: SequenceScorer,
    config: RLConfig,
    rng: np.random.Generator,
    step_index: int,
) -> tuple[StepMetrics, dict[str, SequenceEval]]:
    """One sample-score-update cycle; returns metrics plus each distinct valid sequence's evaluation.

    The batch is drawn in lockstep, and the frozen prior reads the draws in the
    same pass, so one policy pass gives both likelihoods. The batch stays as
    arrays from the draw to the loss: sequences are assembled from the drawn
    ids, and the agent's update is one backward pass over the pass that drew
    them, each row weighted by its loss gradient.

    Raises FloatingPointError when the loss or an agent parameter is not finite after the update.
    """
    drawn = agent.draw(query, config.batch_size, rng, prior=prior)
    valid, sequences = assemble_batch(query, drawn.ids, drawn.lengths)
    valid_seqs = sequences[valid].tolist()
    evals = scorer.evaluate(valid_seqs) if valid_seqs else {}
    scores = np.zeros(config.batch_size)  # an invalid row scores 0 and stays in the loss
    scores[valid] = [evals[seq].score for seq in valid_seqs]
    log_p_aug = augmented_log_likelihood(-drawn.prior_nll, scores, config.sigma)
    log_p_agent = -drawn.nll
    # d(mean squared loss)/dtheta = mean of 2*delta * d(NLL)/dtheta
    agent.sgd_step(drawn.backward(2.0 * (log_p_aug - log_p_agent) / config.batch_size), config.learning_rate)
    # a Python float, so the metrics CSV reads a plain number; cumsum adds left to right
    loss = float(np.cumsum(squared_loss(log_p_aug, log_p_agent))[-1]) / config.batch_size
    non_finite = agent.non_finite_params()
    if non_finite or not np.isfinite(loss):
        raise FloatingPointError(
            f"step {step_index}: the agent is not finite (loss {loss}, non-finite parameters {non_finite})"
        )

    n = max(len(evals), 1)  # a step without valid samples reports zero averages
    # each column summed from 0.0 in order of first appearance; the built-in sum() of floats is compensated on 3.12+
    table = [(0.0, 0.0, 0.0, 0.0)] + [(e.score, e.p0, e.p1, e.hit) for e in evals.values()]
    avg_score, avg_p0, avg_p1, frac_conf_eff = (np.cumsum(table, axis=0)[-1] / n).tolist()
    metrics = StepMetrics(
        step=step_index,
        scoring_fn=config.scoring,
        avg_score=avg_score,
        avg_p0=avg_p0,
        avg_p1=avg_p1,
        frac_conf_eff=frac_conf_eff,
        n_sampled=config.batch_size,
        n_valid=len(valid_seqs),
        n_unique_valid=len(evals),
        loss=loss,
    )
    return metrics, evals


def run_rl(
    query: QueryTemplate,
    config: RLConfig,
    prior: Policy,
    scorer: SequenceScorer,
) -> RunRecord:
    """Run the full learning loop for one query; the prior stays frozen.

    Raises ValueError when the scorer's kind or significance differs from the config's.
    """
    if (scorer.kind, scorer.significance) != (config.scoring, config.significance):
        raise ValueError(
            f"the config's scoring {config.scoring!r} at significance {config.significance} differs from "
            f"the scorer's {scorer.kind!r} at {scorer.significance}"
        )
    agent = prior.copy()
    rng = np.random.default_rng(config.seed)
    record = RunRecord(config=config)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # rl_step checks finiteness itself
        for step_index in range(1, config.steps + 1):
            metrics, evals = rl_step(agent, prior, query, scorer, config, rng, step_index)
            record.steps.append(metrics)
            record.unique_valid.update(evals)
            record.conf_eff_unique.update(seq for seq, e in evals.items() if e.hit)
    return record
