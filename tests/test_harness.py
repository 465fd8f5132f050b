import itertools
import json
import pickle
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cpseq import harness, rl
from cpseq.conformal import save_acp
from cpseq.domain import QueryTemplate, make_dataset, make_queries, write_dataset_csv, write_queries_csv
from cpseq.harness import (
    CampaignArtifacts,
    CampaignConfig,
    RunSummary,
    WilcoxonRow,
    parse_campaign_config,
    regenerate_report,
    run_campaign,
    run_query,
    run_seed_for,
    steps_to_threshold,
    stratify_by_length,
    wilcoxon_signed_rank,
    wilcoxon_vs_baseline,
)
from cpseq.policy import DEFAULT_GATE_SAMPLES, Policy, PretrainResult
from cpseq.rl import StepMetrics
from cpseq.tables import read_table, write_table


# -- wilcoxon: fixed cases ---------------------------------------------------------


def test_all_positive_differences_n6():
    a = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    w, p = wilcoxon_signed_rank(a, b)
    assert w == 0.0
    assert p == 2 / 2**6  # exactly 0.03125


def test_symmetric_differences_are_insignificant():
    a = [1.0, -1.0, 2.0, -2.0, 3.0, -3.0]
    b = [0.0] * 6
    _, p = wilcoxon_signed_rank(a, b)
    assert p >= 0.5


def test_identical_samples_degenerate():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])


def test_too_few_nonzero_differences():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])


def test_unequal_lengths_rejected():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0])


# -- wilcoxon: enumeration oracle -----------------------------------------------------


def _brute_force_two_sided_p(diffs):
    """Full 2^n enumeration over sign assignments of the observed ranks."""
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    magnitudes = sorted(abs(d) for d in diffs)
    ranks = []
    for d in diffs:
        positions = [i + 1 for i, m in enumerate(magnitudes) if m == abs(d)]
        ranks.append(sum(positions) / len(positions))
    total = sum(ranks)
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    w_obs = min(w_plus, total - w_plus)
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if min(w, total - w) <= w_obs + 1e-9:
            count += 1
    # symmetric null: counting min(W+, W-) <= w matches 2 * P(W+ <= w), capped
    return min(1.0, count / 2**n)


@pytest.mark.parametrize("trial", range(50))
def test_exact_branch_matches_enumeration(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(5, 11))
    # integer-valued samples create plenty of rank ties and zero differences
    a = rng.integers(0, 6, n).astype(float)
    b = rng.integers(0, 6, n).astype(float)
    if np.all(a == b):
        a[0] += 1.0
    if np.count_nonzero(a - b) < 5:
        extra = 5 - np.count_nonzero(a - b)
        idx = np.where(a == b)[0][:extra]
        a[idx] += 1.0
    _, p = wilcoxon_signed_rank(a, b)
    assert p == pytest.approx(_brute_force_two_sided_p(list(a - b)), abs=1e-12)


def _enumerated_test(diffs):
    """(W, two-sided p) over all 2^n sign assignments of the doubled mid-ranks, 2^16 assignments at a time."""
    magnitudes = np.abs(diffs)
    smaller = (magnitudes[:, None] > magnitudes).sum(axis=1)
    equal = (magnitudes[:, None] == magnitudes).sum(axis=1)
    double_ranks = 2 * smaller + equal + 1  # twice the mean of the positions smaller + 1 .. smaller + equal
    total = int(double_ranks.sum())
    w_plus = int(double_ranks[diffs > 0].sum())
    w_obs = min(w_plus, total - w_plus)
    n = len(diffs)
    count = 0
    for start in range(0, 2**n, 2**16):
        signs = (np.arange(start, start + 2**16)[:, None] >> np.arange(n)) & 1
        w = signs @ double_ranks
        count += int(np.count_nonzero(np.minimum(w, total - w) <= w_obs))
    return w_obs / 2, min(1.0, count / 2**n)


@pytest.mark.parametrize("n, seed", [(21, 2), (21, 3), (22, 19)])
def test_exact_beyond_twenty_pairs_matches_enumeration(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.integers(0, 10, n).astype(float)
    # nonzero integer differences: many tied magnitudes, no zeros
    a = b + rng.integers(1, 7, n) * rng.choice([-1, 1], n, p=[0.3, 0.7])
    assert wilcoxon_signed_rank(a, b) == _enumerated_test(a - b)


# (a, b, W, p) for 5 to 20 nonzero differences, with tied magnitudes and zero differences
_PINNED = [
    ([4, 0, 1, 2, 2, 6],
     [5, 6, 6, 0, 0, 6], 5.0, 0.625),
    ([1, 1, 6, 2, 1, 1, 3],
     [4, 5, 4, 6, 0, 3, 3], 3.5, 0.1875),
    ([6, 3, 0, 0, 5, 2, 3, 4],
     [4, 4, 1, 5, 5, 3, 2, 2], 13.5, 1.0),
    ([5, 3, 1, 1, 1, 3, 2, 0, 4, 4],
     [2, 0, 2, 1, 2, 1, 0, 0, 5, 3], 7.5, 0.1484375),
    ([1, 4, 5, 6, 1, 0, 6, 6, 3, 6, 0],
     [3, 4, 1, 1, 3, 2, 3, 1, 3, 1, 3], 10.5, 0.1796875),
    ([2, 4, 2, 0, 2, 0, 0, 1, 4, 2, 0],
     [3, 6, 6, 6, 1, 5, 1, 2, 0, 5, 0], 10.0, 0.0859375),
    ([1, 6, 1, 3, 6, 3, 6, 6, 0, 4, 5, 5, 0],
     [6, 4, 1, 2, 1, 2, 6, 1, 1, 3, 4, 6, 5], 26.0, 0.5673828125),
    ([4, 0, 3, 4, 4, 4, 3, 0, 1, 4, 0, 5, 4, 6],
     [0, 4, 1, 4, 5, 4, 5, 2, 3, 3, 2, 3, 1, 3], 35.0, 0.7978515625),
    ([4, 3, 0, 3, 4, 2, 6, 2, 4, 3, 3, 2, 5, 5, 6, 4],
     [2, 2, 4, 3, 4, 1, 4, 3, 3, 6, 2, 3, 0, 5, 5, 6], 40.0, 0.71826171875),
    ([2, 2, 5, 4, 6, 5, 1, 3, 1, 2, 2, 6, 6, 5, 0, 3, 5],
     [5, 6, 5, 2, 4, 1, 1, 5, 4, 1, 5, 5, 0, 6, 1, 2, 5], 49.5, 0.88134765625),
    ([0, 0, 1, 4, 6, 6, 0, 4, 1, 4, 2, 4, 2, 0, 3, 2, 3],
     [1, 3, 4, 5, 3, 5, 0, 2, 3, 2, 5, 2, 2, 4, 4, 6, 2], 40.0, 0.276123046875),
    ([0, 6, 0, 6, 0, 3, 0, 5, 4, 5, 1, 3, 6, 6, 5, 4, 5, 3, 4],
     [5, 6, 1, 3, 0, 1, 0, 4, 0, 0, 4, 2, 2, 0, 0, 6, 4, 2, 6], 40.5, 0.159423828125),
    ([2, 4, 0, 1, 2, 0, 0, 1, 3, 6, 0, 2, 2, 1, 5, 2, 6, 3, 1],
     [6, 1, 4, 1, 0, 2, 6, 3, 4, 4, 3, 4, 0, 5, 1, 4, 4, 5, 1], 50.0, 0.210418701171875),
    ([5, 0, 1, 1, 5, 6, 5, 6, 2, 5, 3, 6, 6, 5, 1, 6, 5, 4, 4, 4],
     [1, 1, 3, 6, 1, 2, 3, 5, 4, 5, 5, 1, 4, 3, 0, 3, 5, 5, 2, 6], 56.5, 0.2147369384765625),
    ([6, 6, 0, 3, 0, 4, 5, 3, 1, 5, 0, 2, 2, 6, 4, 5, 0, 3, 6, 1],
     [6, 3, 4, 1, 5, 2, 1, 4, 4, 1, 6, 1, 6, 3, 2, 3, 4, 0, 1, 2], 92.0, 0.9122238159179688),
    ([0, 3, 5, 0, 1, 0, 3, 3, 4, 0, 1, 4, 5, 2, 1, 3, 2, 2, 0, 1, 1, 6, 4],
     [3, 5, 3, 4, 3, 3, 5, 3, 1, 1, 2, 5, 0, 1, 6, 3, 5, 2, 5, 4, 4, 0, 3], 64.0, 0.12920188903808594),
    ([2, 7, 7, 6, 2, 4, 6, 7, 2],
     [2, 0, 1, 0, 0, 2, 4, 3, 0], 0.0, 0.0078125),
    ([5, 7, 7, 7, 2, 4, 6, 5, 1, 5, 1, 7, 5, 3, 4],
     [4, 4, 2, 4, 0, 3, 4, 3, 1, 3, 0, 3, 3, 1, 4], 0.0, 0.000244140625),
    ([7, 5, 4, 6, 4, 6, 1, 5, 5, 5, 2, 4, 5, 5, 1, 6, 7, 1],
     [1, 1, 1, 0, 4, 1, 0, 1, 3, 2, 4, 1, 3, 4, 0, 1, 4, 3], 11.0, 0.000701904296875),
    ([6, 7, 1, 3, 6, 7, 7, 2, 5, 2, 7, 2, 2, 7, 6, 3, 5, 6, 6, 2, 6],
     [0, 4, 4, 3, 4, 0, 1, 0, 1, 0, 4, 0, 1, 0, 2, 4, 4, 2, 4, 4, 1], 19.5, 0.0006237030029296875),
]


@pytest.mark.parametrize("a, b, w, p", _PINNED)
def test_pinned_results_bit_for_bit(a, b, w, p):
    assert wilcoxon_signed_rank(a, b) == (w, p)


# -- convergence detection ------------------------------------------------------------


def _metrics(step, frac, n_valid=10):
    return StepMetrics(
        step=step, scoring_fn="cp_soft", avg_score=0.0, avg_p0=0.0, avg_p1=0.0,
        frac_conf_eff=frac, n_sampled=32, n_valid=n_valid, n_unique_valid=n_valid, loss=0.0,
    )


def test_steps_to_threshold_first_crossing():
    rows = [_metrics(i, 0.0) for i in range(1, 150)] + [_metrics(150, 0.6)]
    assert steps_to_threshold(rows) == 150


def test_steps_to_threshold_never_reached():
    rows = [_metrics(i, 0.2) for i in range(1, 50)]
    assert steps_to_threshold(rows) is None


def test_steps_to_threshold_zero_finds_first_valid_batch():
    rows = [_metrics(1, 0.0, n_valid=0), _metrics(2, 0.0, n_valid=3), _metrics(3, 0.9)]
    assert steps_to_threshold(rows, threshold=0.0) == 2


# -- stratification -------------------------------------------------------------------


def _row(qid, length, kind, uniq, hits, sth, status="ok"):
    return RunSummary(qid, length, kind, uniq, hits, sth, status)


def test_stratify_groups_and_medians():
    rows = [
        _row(0, 6, "cp_soft", 100, 10, 20),
        _row(1, 6, "cp_soft", 200, 30, None),
        _row(2, 7, "cp_soft", 50, 5, 8),
        _row(3, 7, "cp_soft", None, None, None, status="error"),
    ]
    out = stratify_by_length(rows)
    assert [(r.length, r.scoring_fn) for r in out] == [(6, "cp_soft"), (7, "cp_soft")]
    six = out[0]
    assert six.n_runs == 2 and six.n_ok == 2
    assert six.median_unique_valid == 150
    assert six.n_reached_half == 1 and six.median_steps_to_half == 20
    seven = out[1]
    assert seven.n_runs == 2 and seven.n_ok == 1
    assert sum(r.n_runs for r in out) == len(rows)


def test_wilcoxon_vs_baseline_rows():
    rows = []
    rng = np.random.default_rng(0)
    for qid in range(8):
        base = int(rng.integers(10, 60))
        rows.append(_row(qid, 6, "rm_p1", base, base // 2, None))
        rows.append(_row(qid, 6, "cp_soft", base + qid + 1, base // 2 + 3, None))
    out = wilcoxon_vs_baseline(rows)
    soft_rows = [r for r in out if r.scoring_fn == "cp_soft"]
    assert {r.metric for r in soft_rows} == {"n_unique_valid", "n_conf_eff"}
    assert all(r.status == "ok" and r.n_pairs == 8 for r in soft_rows)
    assert all(0.0 <= r.p_value <= 1.0 for r in soft_rows)


def test_wilcoxon_vs_baseline_degenerate_on_ties():
    rows = []
    for qid in range(6):
        rows.append(_row(qid, 6, "rm_p1", 30, 5, None))
        rows.append(_row(qid, 6, "cp_p1", 30, 5, None))
    out = wilcoxon_vs_baseline(rows)
    assert all(r.status == "degenerate" for r in out)


# -- config parsing --------------------------------------------------------------------


def test_parse_campaign_config(tmp_path):
    text = """
# campaign settings
dataset = data.csv
queries = queries.csv
scoring = rm_p1, cp_soft
steps = 40
batch_size = 16
sigma = 50.0
significance = 0.2
rl_learning_rate = 0.0003
seed = 9
prior = art/prior.json  # a trailing comment
classifier = art/clf.json
acp = /abs/acp.json
clf_rounds = 30
clf_learning_rate = 0.25
clf_depth = 3
clf_subsample = 0.8
acp_k = 3
pretrain_epochs = 4
pretrain_learning_rate = 0.002
pretrain_corpus_size = 200
"""
    keys = {line.partition("=")[0].strip() for line in text.splitlines() if "=" in line}
    assert keys == {f.name for f in fields(CampaignConfig)}  # the file sets every key
    (tmp_path / "c.cfg").write_text(text)
    config = parse_campaign_config(tmp_path / "c.cfg")
    expected = CampaignConfig(
        dataset=tmp_path / "data.csv",
        queries=tmp_path / "queries.csv",
        scoring=("rm_p1", "cp_soft"),
        steps=40,
        batch_size=16,
        sigma=50.0,
        significance=0.2,
        rl_learning_rate=0.0003,
        seed=9,
        prior=tmp_path / "art" / "prior.json",
        classifier=tmp_path / "art" / "clf.json",
        acp=Path("/abs/acp.json"),
        clf_rounds=30,
        clf_learning_rate=0.25,
        clf_depth=3,
        clf_subsample=0.8,
        acp_k=3,
        pretrain_epochs=4,
        pretrain_learning_rate=0.002,
        pretrain_corpus_size=200,
    )
    assert config == expected
    for f in fields(CampaignConfig):  # == takes 50 for 50.0, so compare the types too
        assert type(getattr(config, f.name)) is type(getattr(expected, f.name)), f.name


def test_parse_campaign_config_rejects_unknown_key(tmp_path):
    (tmp_path / "c.cfg").write_text("dataset = a\nqueries = b\nbogus = 1\n")
    with pytest.raises(ValueError, match="bogus"):
        parse_campaign_config(tmp_path / "c.cfg")


def test_parse_campaign_config_rejects_a_repeated_key(tmp_path):
    (tmp_path / "c.cfg").write_text("dataset = a\nqueries = b\nsteps = 40\n\nsteps = 4\n")
    with pytest.raises(ValueError) as info:
        parse_campaign_config(tmp_path / "c.cfg")
    assert str(info.value) == f"{tmp_path / 'c.cfg'}:5: repeated config key 'steps'"


def test_parse_campaign_config_requires_dataset(tmp_path):
    (tmp_path / "c.cfg").write_text("queries = b\n")
    with pytest.raises(ValueError, match="dataset"):
        parse_campaign_config(tmp_path / "c.cfg")


def test_parse_campaign_config_names_the_line_and_key_of_a_bad_value(tmp_path):
    (tmp_path / "c.cfg").write_text("dataset = a\nqueries = b\n\n# the run length\nsteps = 1.5\n")
    with pytest.raises(ValueError) as info:
        parse_campaign_config(tmp_path / "c.cfg")
    assert str(info.value) == f"{tmp_path / 'c.cfg'}:5: key 'steps': invalid literal for int() with base 10: '1.5'"


def test_campaign_cells_derive_from_the_config_run_settings(tmp_path, monkeypatch, tiny_models, tiny_prior):
    clf, acp = tiny_models
    write_queries_csv(make_queries(2, seed=5), tmp_path / "queries.csv")
    config = CampaignConfig(
        dataset=tmp_path / "data.csv", queries=tmp_path / "queries.csv", scoring=("cp_soft", "rm_p1"),
        steps=3, batch_size=4, sigma=20.0, significance=0.3, rl_learning_rate=1e-3, seed=7,
    )
    seen = []

    def run(query, rl_config, prior, scorer):
        seen.append(rl_config)
        raise RuntimeError("stop")

    monkeypatch.setattr(harness, "run_rl", run)
    run_campaign(config, tmp_path / "out", CampaignArtifacts(tiny_prior, clf, acp))
    assert config.run_settings() == rl.RLConfig("cp_soft", 20.0, 4, 3, 0.3, 1e-3, 7)
    assert seen == [
        rl.RLConfig(kind, 20.0, 4, 3, 0.3, 1e-3, run_seed_for(7, qid, kind))
        for qid in range(2) for kind in ("cp_soft", "rm_p1")
    ]


def test_campaign_config_rejects_unknown_scoring():
    with pytest.raises(ValueError):
        CampaignConfig(dataset="d", queries="q", scoring=("nope",))


def test_run_seed_derivation_is_stable():
    assert run_seed_for(0, 3, "cp_soft") == run_seed_for(0, 3, "cp_soft")
    assert run_seed_for(0, 3, "cp_soft") != run_seed_for(0, 3, "cp_harsh")
    assert run_seed_for(0, 3, "cp_soft") != run_seed_for(1, 3, "cp_soft")


# -- per-query runner ---------------------------------------------------------------------

RUNNER_KINDS = ("cp_soft", "rm_p1", "cp_harsh")
RUNNER_SETTINGS = rl.RLConfig(steps=4, batch_size=8, seed=3)
RUNNER_QUERY = QueryTemplate.from_text("TFYAIQ?FAE")  # one masked slot, so the kinds propose the same sequences


def _fail_rm_p1(monkeypatch):
    """Make every rm_p1 cell raise RuntimeError("boom"); the other kinds run as before."""
    real_run = harness.run_rl

    def flaky(query, rl_config, prior, scorer):
        if rl_config.scoring == "rm_p1":
            raise RuntimeError("boom")
        return real_run(query, rl_config, prior, scorer)

    monkeypatch.setattr(harness, "run_rl", flaky)


def test_run_query_cells_equal_direct_runs_bit_for_bit(tiny_models, tiny_prior):
    clf, acp = tiny_models
    outcomes = run_query(1, RUNNER_QUERY, RUNNER_KINDS, RUNNER_SETTINGS, CampaignArtifacts(tiny_prior, clf, acp))
    assert list(outcomes) == list(RUNNER_KINDS)
    for kind, record in outcomes.items():
        config = replace(RUNNER_SETTINGS, scoring=kind, seed=run_seed_for(3, 1, kind))
        direct = rl.run_rl(RUNNER_QUERY, config, tiny_prior, rl.SequenceScorer(kind, clf, acp))
        assert record.config == config
        assert repr(record.steps) == repr(direct.steps)  # repr prints each float exactly and tells -0.0 from 0.0
        assert record.unique_valid == direct.unique_valid and record.conf_eff_unique == direct.conf_eff_unique


def test_run_query_starts_each_query_with_an_empty_memo(monkeypatch, tiny_models, tiny_prior):
    fingerprinted: list[list[str]] = []
    real = rl.fingerprints
    monkeypatch.setattr(rl, "fingerprints", lambda seqs: fingerprinted[-1].extend(seqs) or real(seqs))
    for _ in range(2):  # the same query twice: a memo kept from the first call would fingerprint nothing
        fingerprinted.append([])
        run_query(0, RUNNER_QUERY, RUNNER_KINDS, RUNNER_SETTINGS, CampaignArtifacts(tiny_prior, *tiny_models))
    first, second = fingerprinted
    assert len(first) == len(set(first)) > 0  # within a query, the kinds share one memo
    assert second == first


def test_run_query_returns_a_failed_cells_error_and_runs_the_next_kind(monkeypatch, tiny_models, tiny_prior):
    artifacts = CampaignArtifacts(tiny_prior, *tiny_models)
    expected = run_query(0, RUNNER_QUERY, RUNNER_KINDS, RUNNER_SETTINGS, artifacts)
    _fail_rm_p1(monkeypatch)
    outcomes = run_query(0, RUNNER_QUERY, RUNNER_KINDS, RUNNER_SETTINGS, artifacts)
    assert list(outcomes) == list(RUNNER_KINDS)
    failure = outcomes["rm_p1"]
    assert set(failure) == {"error", "traceback"} and failure["error"] == "RuntimeError: boom"
    assert failure["traceback"].startswith("Traceback (most recent call last):")
    assert failure["traceback"].endswith("RuntimeError: boom\n")
    for kind in ("cp_soft", "cp_harsh"):
        assert repr(outcomes[kind].steps) == repr(expected[kind].steps)


def test_run_query_outcomes_pickle(monkeypatch, tiny_models, tiny_prior):
    _fail_rm_p1(monkeypatch)
    artifacts = CampaignArtifacts(tiny_prior, *tiny_models)
    outcomes = run_query(0, RUNNER_QUERY, ("cp_soft", "rm_p1"), RUNNER_SETTINGS, artifacts)
    copy = pickle.loads(pickle.dumps(outcomes))
    assert copy["rm_p1"] == outcomes["rm_p1"] and copy["rm_p1"]["error"] == "RuntimeError: boom"
    record, copied = outcomes["cp_soft"], copy["cp_soft"]
    assert isinstance(copied, rl.RunRecord) and copied == record
    assert repr(copied.steps) == repr(record.steps)


# -- campaign + report -------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_campaign(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign")
    write_dataset_csv(make_dataset(400, seed=3), root / "data.csv")
    write_queries_csv(make_queries(2, seed=5), root / "queries.csv")
    (root / "c.cfg").write_text(
        "dataset = data.csv\n"
        "queries = queries.csv\n"
        "scoring = rm_p1, cp_soft\n"
        "steps = 12\n"
        "batch_size = 8\n"
        "seed = 2\n"
        "clf_rounds = 25\n"
        "acp_k = 2\n"
        "pretrain_epochs = 30\n"
        "pretrain_learning_rate = 0.003\n"
        "pretrain_corpus_size = 150\n"
    )
    config = parse_campaign_config(root / "c.cfg")
    result = run_campaign(config, root / "out")
    return root, config, result


def test_campaign_outputs_exist(small_campaign):
    root, config, result = small_campaign
    out = root / "out"
    assert (out / "summary.csv").exists()
    assert (out / "wilcoxon.csv").exists()
    assert (out / "summary_by_length.csv").exists()
    run_files = sorted(p.name for p in (out / "runs").glob("*.csv"))
    assert run_files == ["q000_cp_soft.csv", "q000_rm_p1.csv", "q001_cp_soft.csv", "q001_rm_p1.csv"]
    assert len(result.rows) == 4
    assert all(r.status == "ok" for r in result.rows)


def test_campaign_summary_header(small_campaign):
    root, _, _ = small_campaign
    first = (root / "out" / "summary.csv").read_text().splitlines()[0]
    assert first == "query_id,length,scoring_fn,n_unique_valid,n_conf_eff,steps_to_half,status"


def test_report_reproduces_campaign_outputs(small_campaign, tmp_path):
    root, _, _ = small_campaign
    out = root / "out"
    result = regenerate_report(out / "runs", tmp_path)
    for name in ("summary.csv", "wilcoxon.csv", "summary_by_length.csv"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
    assert all(r.status == "ok" for r in result.rows)


def test_failing_run_is_isolated(small_campaign, tmp_path, monkeypatch):
    root, config, _ = small_campaign
    import cpseq.harness as harness_mod

    real_run = harness_mod.run_rl

    def flaky(query, rl_config, prior, scorer):
        if rl_config.seed == run_seed_for(2, 0, "cp_soft"):
            raise RuntimeError("boom")
        return real_run(query, rl_config, prior, scorer)

    monkeypatch.setattr(harness_mod, "run_rl", flaky)
    result = run_campaign(config, tmp_path / "out2")
    status = {(r.query_id, r.scoring_fn): r.status for r in result.rows}
    assert status[(0, "cp_soft")] == "error"
    assert status[(0, "rm_p1")] == "ok"
    assert status[(1, "cp_soft")] == "ok"
    sidecar = json.loads((tmp_path / "out2" / "runs" / "q000_cp_soft.json").read_text())
    assert sidecar["status"] == "error" and "boom" in sidecar["error"]
    # aggregates only lose the failed cell
    lines = (tmp_path / "out2" / "summary.csv").read_text().splitlines()
    error_lines = [l for l in lines if l.endswith(",error")]
    assert len(error_lines) == 1


RUN_FILES = [f"q00{q}_{kind}.{ext}" for q in (0, 1) for kind in ("cp_soft", "rm_p1") for ext in ("csv", "json")]


def test_run_files_are_written_whole_or_not_at_all(small_campaign, tmp_path, monkeypatch, tiny_models, tiny_prior):
    root, config, _ = small_campaign
    assert sorted(p.name for p in (root / "out" / "runs").iterdir()) == RUN_FILES  # no temporary file left

    def interrupted_write(record, path):
        Path(path).write_text("step,scoring_fn\n1,")
        raise OSError("disk full")

    monkeypatch.setattr(rl.RunRecord, "write_csv", interrupted_write)
    result = run_campaign(replace(config, steps=2), tmp_path / "out", CampaignArtifacts(tiny_prior, *tiny_models))
    assert [r.status for r in result.rows] == ["error"] * 4
    # neither the partial CSV nor its temporary file is left; each sidecar records the error
    assert sorted(p.name for p in (tmp_path / "out" / "runs").iterdir()) == [n for n in RUN_FILES if n.endswith(".json")]
    sidecar = json.loads((tmp_path / "out" / "runs" / "q000_rm_p1.json").read_text())
    assert sidecar["error"] == "OSError: disk full"


def test_campaign_csvs_end_lines_with_newline_only(small_campaign):
    root, _, _ = small_campaign
    written = sorted(root.rglob("*.csv"))
    assert len(written) == 9  # the dataset and queries, four run CSVs and three summaries
    for path in written:
        assert b"\r" not in path.read_bytes(), path.name


def _copy_runs(src, dst, rewrite=None):
    dst.mkdir()
    for path in src.iterdir():
        text = path.read_text()
        if rewrite is not None and path.suffix == ".csv":
            text = rewrite(text)
        (dst / path.name).write_bytes(text.encode())
    return dst


def test_report_rejects_run_csv_with_wrong_header(small_campaign, tmp_path):
    root, _, _ = small_campaign
    runs = _copy_runs(root / "out" / "runs", tmp_path / "runs")
    bad = runs / "q001_rm_p1.csv"
    bad.write_text(bad.read_text().replace("avg_p0,avg_p1", "avg_p1,avg_p0", 1))
    with pytest.raises(ValueError, match="q001_rm_p1.csv"):
        regenerate_report(runs, tmp_path / "report")


def test_report_reads_run_csvs_with_crlf_rows(small_campaign, tmp_path):
    # older versions ended the header with \n and every data row with \r\n
    root, _, _ = small_campaign
    out = root / "out"

    def crlf_rows(text):
        header, _, body = text.partition("\n")
        return header + "\n" + body.replace("\n", "\r\n")

    runs = _copy_runs(out / "runs", tmp_path / "runs", crlf_rows)
    assert b"\r\n" in (runs / "q000_rm_p1.csv").read_bytes()
    regenerate_report(runs, tmp_path / "report")
    for name in ("summary.csv", "wilcoxon.csv", "summary_by_length.csv"):
        assert (tmp_path / "report" / name).read_bytes() == (out / name).read_bytes()


def test_summary_tables_read_back_exactly(small_campaign):
    root, _, result = small_campaign
    assert read_table(root / "out" / "summary.csv", RunSummary) == result.rows
    assert read_table(root / "out" / "wilcoxon.csv", WilcoxonRow) == result.wilcoxon
    assert any(row.steps_to_half is None for row in result.rows)  # empty cells read back as None


def test_non_finite_prior_records_error_cells(small_campaign, tmp_path, tiny_models, tiny_prior, capsys):
    _, config, _ = small_campaign
    clf, acp = tiny_models
    prior = tiny_prior.copy()
    prior.p["b_out"][:] = np.inf
    result = run_campaign(config, tmp_path / "out", CampaignArtifacts(prior, clf, acp))
    assert [r.status for r in result.rows] == ["error"] * 4
    sidecar = json.loads((tmp_path / "out" / "runs" / "q000_rm_p1.json").read_text())
    assert sidecar["status"] == "error"
    assert sidecar["error"].startswith("FloatingPointError: step 1:") and "not finite" in sidecar["error"]
    assert sidecar["traceback"].startswith("Traceback (most recent call last):")
    assert sidecar["traceback"].rstrip().endswith(sidecar["error"])
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.splitlines()
    assert len(err_lines) == 4
    assert err_lines[0] == f"cpseq campaign: run q000_rm_p1 failed: {sidecar['error']}"
    ok_sidecar = json.loads((small_campaign[0] / "out" / "runs" / "q000_rm_p1.json").read_text())
    assert set(ok_sidecar) == {"query_id", "length", "scoring_fn", "status", "n_unique_valid", "n_conf_eff"}


def test_tables_write_numpy_floats_as_plain_numbers(tmp_path):
    def metrics(to_float):
        return StepMetrics(1, "rm_p1", to_float(0.5), to_float(0.1), to_float(1 / 3), 0.0, 32, 30, 29, to_float(12.25))

    write_table(tmp_path / "numpy.csv", StepMetrics, [metrics(np.float64)])
    write_table(tmp_path / "python.csv", StepMetrics, [metrics(float)])
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()
    assert read_table(tmp_path / "numpy.csv", StepMetrics) == [metrics(float)]


def test_built_prior_is_gated_on_the_default_sample_count(tmp_path, monkeypatch, tiny_models):
    clf, acp = tiny_models
    write_dataset_csv(make_dataset(200, seed=3), tmp_path / "data.csv")
    write_queries_csv(make_queries(2, seed=5), tmp_path / "queries.csv")
    clf.save(tmp_path / "clf.json")
    save_acp(acp, tmp_path / "acp.json")
    calls = []

    def pretrain(corpus, **kwargs):
        calls.append(kwargs)
        return PretrainResult(Policy.fresh())

    monkeypatch.setattr(harness, "pretrain_prior", pretrain)
    config = CampaignConfig(
        dataset=tmp_path / "data.csv", queries=tmp_path / "queries.csv",
        classifier=tmp_path / "clf.json", acp=tmp_path / "acp.json",
    )
    harness.build_campaign_artifacts(config)
    assert len(calls) == 1
    assert calls[0]["gate_samples"] == DEFAULT_GATE_SAMPLES
    assert len(calls[0]["gate_queries"]) == 2


@pytest.mark.parametrize("built", [(), ("classifier",), ("acp",), ("prior",), ("classifier", "acp", "prior")],
                         ids=["none", "classifier", "acp", "prior", "all"])
def test_campaign_reads_the_dataset_only_to_build(tmp_path, monkeypatch, tiny_models, tiny_prior, built):
    clf, acp = tiny_models
    write_dataset_csv(make_dataset(200, seed=3), tmp_path / "data.csv")
    write_queries_csv(make_queries(2, seed=5), tmp_path / "queries.csv")
    paths = {"classifier": tmp_path / "clf.json", "acp": tmp_path / "acp.json", "prior": tmp_path / "prior.json"}
    clf.save(paths["classifier"])
    save_acp(acp, paths["acp"])
    tiny_prior.save(paths["prior"])
    reads = []
    real = harness.read_dataset_csv
    monkeypatch.setattr(harness, "read_dataset_csv", lambda path: reads.append(path) or real(path))
    monkeypatch.setattr(harness, "build_classifier", lambda dataset, config: clf)
    monkeypatch.setattr(harness, "build_conformal_predictor", lambda dataset, k, config, seed: acp)
    monkeypatch.setattr(harness, "build_prior", lambda dataset, *args, **settings: PretrainResult(tiny_prior))
    config = CampaignConfig(dataset=tmp_path / "data.csv", queries=tmp_path / "queries.csv",
                            **{name: path for name, path in paths.items() if name not in built})
    harness.build_campaign_artifacts(config)
    assert reads == [tmp_path / "data.csv"] * (1 if built else 0)


def test_campaign_fingerprints_each_distinct_sequence_once(tmp_path, monkeypatch, tiny_models, tiny_prior):
    clf, acp = tiny_models
    # one masked slot each, so the kinds propose many of the same sequences
    write_queries_csv([QueryTemplate.from_text(t) for t in ("TFYAIQ?FAE", "MKTA?LV")], tmp_path / "queries.csv")
    config = CampaignConfig(
        dataset=tmp_path / "data.csv", queries=tmp_path / "queries.csv",
        scoring=("rm_p1", "cp_harsh", "cp_soft"), steps=4, batch_size=8,
    )
    fingerprinted: list[str] = []
    real = rl.fingerprints
    monkeypatch.setattr(rl, "fingerprints", lambda seqs: fingerprinted.extend(seqs) or real(seqs))
    result = run_campaign(config, tmp_path / "out", CampaignArtifacts(tiny_prior, clf, acp))
    assert [r.status for r in result.rows] == ["ok"] * 6
    assert sum(r.n_unique_valid for r in result.rows) > len(fingerprinted) > 0  # the kinds share sequences
    assert len(fingerprinted) == len(set(fingerprinted))
