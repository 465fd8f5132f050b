from dataclasses import fields

import numpy as np
import pytest

from cpseq.domain import QueryTemplate
from cpseq.policy import Policy
from cpseq.rl import (
    RLConfig,
    SequenceScorer,
    StepMetrics,
    augmented_log_likelihood,
    rl_step,
    run_rl,
    squared_loss,
)

QUERY = QueryTemplate.from_text("TFY?IQSF?E")


# -- reward arithmetic -----------------------------------------------------------


def test_augmented_likelihood_arithmetic():
    assert augmented_log_likelihood(-10.0, 1.0, 50.0) == 40.0
    assert augmented_log_likelihood(-3.25, 0.0, 50.0) == -3.25


def test_augmented_likelihood_rejects_out_of_range_score():
    with pytest.raises(ValueError):
        augmented_log_likelihood(-1.0, 1.2, 50.0)


def test_default_sigma_is_fifty():
    assert RLConfig().sigma == 50.0


def test_squared_loss():
    assert squared_loss(12.5, 12.5) == 0.0
    assert squared_loss(40.0, 30.0) == 100.0
    assert squared_loss(30.0, 40.0) == 100.0


def test_rl_config_validation():
    with pytest.raises(ValueError):
        RLConfig(scoring="nope")
    with pytest.raises(ValueError):
        RLConfig(sigma=0.0)
    with pytest.raises(ValueError):
        RLConfig(steps=0)
    with pytest.raises(ValueError):
        RLConfig(significance=1.0)


# -- scorer ------------------------------------------------------------------------


def test_scorer_memoizes_and_is_pure(tiny_models):
    clf, acp = tiny_models
    scorer = SequenceScorer("cp_soft", clf, acp)
    first = scorer.evaluate(["TFYAIQSFAE"])["TFYAIQSFAE"]
    second = scorer.evaluate(["TFYAIQSFAE"])["TFYAIQSFAE"]
    assert first is second
    assert 0.0 <= first.score <= 1.0


def test_tracking_identical_across_scoring_kinds(tiny_models):
    clf, acp = tiny_models
    seqs = ["TFYAIQSFAE", "TFYCIQSFCE", "TFYWIQSFLE"]
    rows = {}
    for kind in ("rm_p1", "cp_soft", "cp_harsh"):
        evals = SequenceScorer(kind, clf, acp).evaluate(seqs)
        rows[kind] = [(evals[s].p0, evals[s].p1, evals[s].hit) for s in seqs]
    assert rows["rm_p1"] == rows["cp_soft"] == rows["cp_harsh"]


def test_scorer_kinds_disagree_only_on_score(tiny_models):
    clf, acp = tiny_models
    seq = "TFYAIQSFAE"
    rm = SequenceScorer("rm_p1", clf, acp).evaluate([seq])[seq]
    p1 = SequenceScorer("cp_p1", clf, acp).evaluate([seq])[seq]
    assert rm.score == rm.p1_raw
    assert p1.score == p1.p1


# -- single step --------------------------------------------------------------------


def test_step_loss_zero_when_agent_equals_prior_and_scores_zero(tiny_models, tiny_prior):
    clf, acp = tiny_models
    # every p0 is at least 1/(n_cal + 1), so no sequence is a hit and every cp_harsh score is 0
    scorer = SequenceScorer("cp_harsh", clf, acp, significance=1e-9)
    agent = tiny_prior.copy()
    config = RLConfig(scoring="cp_harsh", batch_size=16, steps=1, learning_rate=1e-9)
    metrics, _ = rl_step(agent, tiny_prior, QUERY, scorer, config, np.random.default_rng(0), 1)
    assert metrics.loss == 0.0


def test_step_counts_are_consistent(tiny_models, tiny_prior):
    clf, acp = tiny_models
    scorer = SequenceScorer("rm_p1", clf, acp)
    agent = tiny_prior.copy()
    config = RLConfig(batch_size=32, steps=1)
    metrics, _ = rl_step(agent, tiny_prior, QUERY, scorer, config, np.random.default_rng(3), 1)
    assert metrics.n_unique_valid <= metrics.n_valid <= metrics.n_sampled == 32


def test_zero_valid_step_yields_finite_metrics(tiny_models):
    clf, acp = tiny_models
    scorer = SequenceScorer("rm_p1", clf, acp)
    # an untrained uniform policy almost never assembles two valid fills
    prior = Policy.fresh(seed=0)
    agent = prior.copy()
    config = RLConfig(batch_size=8, steps=1)
    rng = np.random.default_rng(5)
    saw_empty = False
    for step in range(1, 30):
        metrics, _ = rl_step(agent, prior, QUERY, scorer, config, rng, step)
        for value in (metrics.avg_score, metrics.avg_p0, metrics.avg_p1,
                      metrics.frac_conf_eff, metrics.loss):
            assert np.isfinite(value)
        if metrics.n_valid == 0:
            saw_empty = True
            assert metrics.avg_score == 0.0
            assert metrics.frac_conf_eff == 0.0
    assert saw_empty


# -- full runs ----------------------------------------------------------------------


def test_run_deterministic(tiny_models, tiny_prior):
    clf, acp = tiny_models
    config = RLConfig(scoring="cp_soft", steps=12, seed=7)
    a = run_rl(QUERY, config, tiny_prior, SequenceScorer("cp_soft", clf, acp))
    b = run_rl(QUERY, config, tiny_prior, SequenceScorer("cp_soft", clf, acp))
    assert a.steps == b.steps
    assert a.unique_valid == b.unique_valid
    assert a.conf_eff_unique == b.conf_eff_unique


def test_prior_parameters_frozen_through_run(tiny_models, tiny_prior):
    clf, acp = tiny_models
    before = {k: v.copy() for k, v in tiny_prior.p.items()}
    config = RLConfig(scoring="rm_p1", steps=15, seed=1)
    run_rl(QUERY, config, tiny_prior, SequenceScorer("rm_p1", clf, acp))
    assert all(np.array_equal(before[k], tiny_prior.p[k]) for k in before)


def test_run_bookkeeping(tiny_models, tiny_prior):
    clf, acp = tiny_models
    config = RLConfig(scoring="rm_p1", steps=20, seed=2)
    record = run_rl(QUERY, config, tiny_prior, SequenceScorer("rm_p1", clf, acp))
    assert len(record.steps) == 20
    assert [m.step for m in record.steps] == list(range(1, 21))
    assert all(m.loss >= 0.0 for m in record.steps)
    assert all(m.n_unique_valid <= m.n_valid <= m.n_sampled for m in record.steps)
    assert len(record.unique_valid) >= max(m.n_unique_valid for m in record.steps)
    assert record.conf_eff_unique <= record.unique_valid


def test_metrics_csv_schema(tmp_path, tiny_models, tiny_prior):
    clf, acp = tiny_models
    config = RLConfig(scoring="cp_diff", steps=5, seed=4)
    record = run_rl(QUERY, config, tiny_prior, SequenceScorer("cp_diff", clf, acp))
    path = tmp_path / "run.csv"
    record.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(f.name for f in fields(StepMetrics))
    assert lines[0] == (
        "step,scoring_fn,avg_score,avg_p0,avg_p1,frac_conf_eff,"
        "n_sampled,n_valid,n_unique_valid,loss"
    )
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "cp_diff"
    float(first[2]), float(first[9])  # numeric cells parse


def test_step_with_non_finite_agent_raises(tiny_models, tiny_prior):
    clf, acp = tiny_models
    agent = tiny_prior.copy()
    agent.p["w_out"][0, 0] = np.nan
    config = RLConfig(batch_size=4, steps=1)
    with pytest.raises(FloatingPointError, match="not finite"):
        rl_step(agent, tiny_prior, QUERY, SequenceScorer("rm_p1", clf, acp), config, np.random.default_rng(0), 1)
