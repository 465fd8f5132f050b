from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import drawn_fills, params_equal
from cpseq import rl
from cpseq.boosting import BoostedTreeClassifier
from cpseq.conformal import Acp, Icp, PValuePair, is_confident_positive
from cpseq.domain import FINGERPRINT_BUCKETS, QueryTemplate, assemble, fingerprints
from cpseq.policy import PARAM_NAMES, PARAM_SHAPES, Policy
from cpseq.rl import (
    RLConfig,
    SequenceScorer,
    StepMetrics,
    augmented_log_likelihood,
    rl_step,
    run_rl,
    squared_loss,
)
from cpseq.scoring import SCORING_KINDS, score

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


@pytest.mark.parametrize("name, value, message", [
    ("sigma", float("nan"), "sigma must be > 0"),
    ("sigma", float("inf"), "sigma must be finite"),
    ("learning_rate", float("nan"), "learning_rate must be > 0"),
    ("learning_rate", float("inf"), "learning_rate must be finite"),
    ("batch_size", 2.5, "batch_size must be an integer, got 2.5"),
    ("steps", True, "steps must be an integer, got True"),
    ("steps", 3.0, "steps must be an integer, got 3.0"),
    ("seed", 2.5, "seed must be an integer, got 2.5"),
    ("seed", True, "seed must be an integer, got True"),
])
def test_rl_config_rejects_a_non_finite_rate_or_a_non_integer_count(name, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RLConfig(**{name: value})


def test_rl_config_takes_numpy_integers():
    assert RLConfig(batch_size=np.int64(4), steps=np.int64(3), seed=np.uint32(7)).seed == 7


# -- scorer ------------------------------------------------------------------------


def _fingerprinted(monkeypatch) -> list[str]:
    """Every sequence the scorers fingerprint from now on, in call order."""
    seen: list[str] = []
    real = rl.fingerprints

    def counting(seqs):
        seen.extend(seqs)
        return real(seqs)

    monkeypatch.setattr(rl, "fingerprints", counting)
    return seen


def test_scorer_memoizes_and_is_pure(tiny_models, monkeypatch):
    clf, acp = tiny_models
    scorer = SequenceScorer("cp_soft", clf, acp)
    fingerprinted = _fingerprinted(monkeypatch)
    first = scorer.evaluate(["TFYAIQSFAE"])["TFYAIQSFAE"]
    second = scorer.evaluate(["TFYAIQSFAE"])["TFYAIQSFAE"]
    assert fingerprinted == ["TFYAIQSFAE"]  # the second call evaluates nothing
    assert first == second
    assert scorer.evaluate([]) == {}
    assert 0.0 <= first.score <= 1.0


SEQS = ["TFYAIQSFAE", "TFYCIQSFCE", "TFYWIQSFLE", "TFYAIQSFAE"]


@pytest.mark.parametrize("kind", SCORING_KINDS)
def test_evaluate_equals_a_per_row_scalar_reference(tiny_models, kind):
    clf, acp = tiny_models
    evals = SequenceScorer(kind, clf, acp, 0.3).evaluate(SEQS)
    assert list(evals) == SEQS[:3]  # distinct sequences, in order of first appearance
    for seq, e in evals.items():
        X = fingerprints([seq])
        p0, p1 = acp.p_values_batch(X)
        pv = PValuePair(float(p0[0]), float(p1[0]))
        raw = float(clf.predict_proba(X)[0])
        expected = (pv.p0, pv.p1, raw, score(kind, pv, raw, 0.3), is_confident_positive(pv, 0.3))
        assert (e.p0, e.p1, e.p1_raw, e.score, e.hit) == expected
        assert [type(v) for v in (e.p0, e.p1, e.p1_raw, e.score, e.hit)] == [float] * 4 + [bool]


def test_for_kind_scorers_share_one_memo(tiny_models, monkeypatch):
    clf, acp = tiny_models
    soft = SequenceScorer("cp_soft", clf, acp, 0.3)
    fingerprinted = _fingerprinted(monkeypatch)
    first = soft.evaluate(SEQS)
    harsh = soft.for_kind("cp_harsh")
    second = harsh.evaluate(SEQS)
    assert sorted(fingerprinted) == sorted(set(SEQS))  # the second kind fingerprints nothing
    assert (harsh.kind, harsh.classifier, harsh.acp, harsh.significance) == ("cp_harsh", clf, acp, 0.3)
    for seq in SEQS:
        assert (second[seq].p0, second[seq].p1, second[seq].p1_raw, second[seq].hit) == (
            first[seq].p0, first[seq].p1, first[seq].p1_raw, first[seq].hit
        )
    assert second == SequenceScorer("cp_harsh", clf, acp, 0.3).evaluate(SEQS)  # as a scorer of its own would
    soft.evaluate(["TFYDIQSFDE"])
    harsh.evaluate(["TFYDIQSFDE"])
    assert fingerprinted.count("TFYDIQSFDE") == 1  # the memo is shared both ways
    with pytest.raises(ValueError, match="scoring kind"):
        soft.for_kind("nope")


def _splitting_past_the_fingerprint(model: BoostedTreeClassifier) -> BoostedTreeClassifier:
    payload = model.to_json_dict()
    payload["feature"][1][0] = FINGERPRINT_BUCKETS + 3
    return BoostedTreeClassifier.from_json_dict(payload)


def test_scorer_rejects_a_classifier_that_splits_past_the_fingerprint(tiny_models):
    clf, acp = tiny_models
    expected = f"the classifier splits on column {FINGERPRINT_BUCKETS + 3}, but fingerprints have {FINGERPRINT_BUCKETS} columns"
    with pytest.raises(ValueError, match=expected):
        SequenceScorer("rm_p1", _splitting_past_the_fingerprint(clf), acp)


def test_scorer_rejects_an_icp_model_that_splits_past_the_fingerprint(tiny_models):
    clf, acp = tiny_models
    icps = list(acp.icps)
    icps[1] = Icp(_splitting_past_the_fingerprint(icps[1].model), icps[1].alphas_0, icps[1].alphas_1)
    with pytest.raises(ValueError, match=f"ICP 1's model splits on column {FINGERPRINT_BUCKETS + 3}"):
        SequenceScorer("cp_soft", clf, Acp(tuple(icps)))


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


def _per_proposal_rl_step(agent, prior, query, scorer, config, rng, step_index):
    """The reference: rl_step with one prior.nll and one agent.nll_and_grad call per proposal."""
    proposals = drawn_fills(agent.draw(query, config.batch_size, rng, record=False))
    assembled = [assemble(query, fills) for fills in proposals]
    valid_seqs = [s for s in assembled if s is not None]
    evals = scorer.evaluate(valid_seqs) if valid_seqs else {}

    total_grads = {name: np.zeros_like(arr) for name, arr in agent.p.items()}
    loss_total = 0.0
    for fills, seq in zip(proposals, assembled):
        score_value = evals[seq].score if seq is not None else 0.0
        log_p_prior = -prior.nll(query, fills)
        nll_agent, grads = agent.nll_and_grad(query, fills)
        log_p_agent = -nll_agent
        log_p_aug = augmented_log_likelihood(log_p_prior, score_value, config.sigma)
        delta = log_p_aug - log_p_agent
        loss_total += delta * delta
        weight = 2.0 * delta / config.batch_size
        for name, g in grads.items():
            total_grads[name] += weight * g
    agent.sgd_step(total_grads, config.learning_rate)

    rows = list(evals.values())
    n = max(len(rows), 1)
    # left to right, as rl_step adds: the built-in sum() of floats is compensated from Python 3.12 on
    score_total = p0_total = p1_total = 0.0
    for r in rows:
        score_total += r.score
        p0_total += r.p0
        p1_total += r.p1
    return StepMetrics(
        step=step_index,
        scoring_fn=config.scoring,
        avg_score=score_total / n,
        avg_p0=p0_total / n,
        avg_p1=p1_total / n,
        frac_conf_eff=sum(1 for r in rows if r.hit) / n,
        n_sampled=config.batch_size,
        n_valid=len(valid_seqs),
        n_unique_valid=len(rows),
        loss=loss_total / config.batch_size,
    )


@pytest.mark.parametrize("query_text", ["TFY?IQSF?E", "?DM???K"])
def test_step_matches_per_proposal_reference(tiny_models, tiny_prior, query_text):
    # the summed gradient differs from the per-proposal loop's in its last bits, so the
    # agents drift apart there: the losses and parameters agree within 1e-12, the rest exactly
    clf, acp = tiny_models
    query = QueryTemplate.from_text(query_text)
    config = RLConfig(scoring="cp_soft", learning_rate=1e-2)  # a large rate, so the agent leaves the prior
    batched, reference = tiny_prior.copy(), tiny_prior.copy()
    batched_rng, reference_rng = np.random.default_rng(12), np.random.default_rng(12)
    batched_scorer, reference_scorer = (SequenceScorer("cp_soft", clf, acp) for _ in range(2))
    for step in range(1, 5):
        metrics, _ = rl_step(batched, tiny_prior, query, batched_scorer, config, batched_rng, step)
        expected = _per_proposal_rl_step(reference, tiny_prior, query, reference_scorer, config, reference_rng, step)
        assert replace(metrics, loss=0.0) == replace(expected, loss=0.0)
        assert metrics.loss == pytest.approx(expected.loss, rel=1e-12, abs=0)
        assert type(metrics.loss) is float
        for name in PARAM_NAMES:
            got, want = batched.p[name], reference.p[name]
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (step, name)
    assert not params_equal(batched, tiny_prior)


def _ragged_mixed_batch(policy, n_rows, rng):
    """``n_rows`` proposals sampled from ``policy``, alternating between two templates of different slot counts."""
    templates = [QUERY, QueryTemplate.from_text("?DM???K")]
    queries = [templates[b % 2] for b in range(n_rows)]
    fills = [policy.sample(q, rng).fills for q in queries]
    return queries, fills


@pytest.mark.parametrize("seed", range(40))
def test_weighted_sum_matches_a_loop_of_additions_byte_for_byte(seed):
    # the step's sum over rows happens inside the backward pass; its output-bias gradient is a
    # plain weighted sum of per-pair terms, so it must equal a loop of += over the tape's
    # steps and each step's live rows, each pair's softmax-minus-one-hot scaled by its own row's weight.
    # Batch sizes up to 32 over two templates with ragged streams; zero and -0.0 weights are
    # where the sign of a zero total shows
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 33))
    weights = rng.normal(size=n_rows) * 10.0 ** rng.integers(-20, 5, size=n_rows)
    weights[rng.random(n_rows) < 0.3] = rng.choice([0.0, -0.0])
    policy = Policy.fresh(seed=seed)
    queries, fills = _ragged_mixed_batch(policy, n_rows, rng)
    _, backward = policy.nll_and_backward(queries, fills)
    tape = policy._teacher_forced(queries, fills)
    expected = np.zeros(PARAM_SHAPES["b_out"])
    for rows, _, targets, _, _, probs in tape.steps:
        for row, target, row_probs in zip(rows, targets, probs):
            emission = row_probs.copy()
            emission[target] -= 1.0
            expected += emission * weights[row]
    assert backward(weights)["b_out"].tobytes() == expected.tobytes()


def test_weighted_sum_of_negative_zero_terms_is_positive_zero():
    # a loop of += starts from 0.0, and 0.0 + -0.0 is 0.0: zero weights of either sign give
    # every parameter a gradient of positive zeros, so such a row moves nothing
    policy = Policy.fresh(seed=2)
    queries, fills = _ragged_mixed_batch(policy, 6, np.random.default_rng(2))
    _, backward = policy.nll_and_backward(queries, fills)
    for weights in ([-0.0] * 6, [0.0, -0.0] * 3):
        grads = backward(np.array(weights))
        for name, shape in PARAM_SHAPES.items():
            assert grads[name].tobytes() == np.zeros(shape).tobytes(), (weights, name)


def test_step_runs_one_policy_pass(tiny_models, tiny_prior, monkeypatch):
    # the agent's sampling pass, whose tape the update backpropagates through; the prior reads its draws in it
    clf, acp = tiny_models
    passes = []
    unroll = Policy._unroll

    def recording(policy, templates, ids, lengths, rng=None, record=True, prior=None):
        passes.append((policy, rng is not None, record, prior))
        return unroll(policy, templates, ids, lengths, rng, record, prior)

    monkeypatch.setattr(Policy, "_unroll", recording)
    agent = tiny_prior.copy()
    config = RLConfig(scoring="cp_soft", batch_size=8, steps=2)
    rng = np.random.default_rng(1)
    for step in (1, 2):
        rl_step(agent, tiny_prior, QUERY, SequenceScorer("cp_soft", clf, acp), config, rng, step)
        assert passes == [(agent, True, True, tiny_prior)] * step
    assert not params_equal(agent, tiny_prior)


# -- full runs ----------------------------------------------------------------------


def test_run_deterministic(tiny_models, tiny_prior):
    clf, acp = tiny_models
    config = RLConfig(scoring="cp_soft", steps=12, seed=7)
    a = run_rl(QUERY, config, tiny_prior, SequenceScorer("cp_soft", clf, acp))
    b = run_rl(QUERY, config, tiny_prior, SequenceScorer("cp_soft", clf, acp))
    assert a.steps == b.steps
    assert a.unique_valid == b.unique_valid
    assert a.conf_eff_unique == b.conf_eff_unique


def _compensated_sum(values, start=0):
    """The built-in sum() of floats from Python 3.12 on: Neumaier's compensated summation."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if np.isfinite(compensation) else total


@pytest.mark.parametrize("kind", ["rm_p1", "cp_diff", "cp_p1"])
def test_step_averages_do_not_depend_on_the_builtin_sum(tiny_models, tiny_prior, monkeypatch, kind):
    clf, acp = tiny_models
    query = QueryTemplate.from_text("?DM???K")
    config = RLConfig(scoring=kind, steps=40, seed=3)
    plain = run_rl(query, config, tiny_prior, SequenceScorer(kind, clf, acp))
    monkeypatch.setattr(rl, "sum", _compensated_sum, raising=False)
    compensated = run_rl(query, config, tiny_prior, SequenceScorer(kind, clf, acp))
    assert compensated.steps == plain.steps


@pytest.mark.parametrize("kind, significance", [("rm_p1", 0.2), ("cp_soft", 0.1)], ids=["kind", "significance"])
def test_run_rejects_a_scorer_that_differs_from_its_config(tiny_models, tiny_prior, kind, significance):
    clf, acp = tiny_models
    config = RLConfig(scoring="cp_soft", significance=0.2, steps=1)
    expected = f"'cp_soft' at significance 0.2 differs from the scorer's {kind!r} at {significance}"
    with pytest.raises(ValueError, match=expected):
        run_rl(QUERY, config, tiny_prior, SequenceScorer(kind, clf, acp, significance))


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
