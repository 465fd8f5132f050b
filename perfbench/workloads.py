"""The benchmark's three workloads: inputs made from a workload seed, the
timed samples, and the checks on their outputs.

A workload is a set-up and a fixed list of samples. Each sample is one
timed piece of work that can run again with the same inputs and must then
give the same outputs. Every call into cpseq goes through a module or class
attribute, so the tracing wrappers in ``trace_layers`` see it.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from cpseq import conformal, domain, harness, policy, rl
from cpseq.boosting import BoostedTreeClassifier, ClassifierConfig

SIGNIFICANCE = 0.2
QUERY_LENGTHS = (6, 7, 10)
EXPLORE_QUERY_INDEX = 3  # make_queries(10, seed=33)[3] is ?DM???K, the learnability-test query
ARTIFACT_FILES = ("clf.json", "acp.json", "prior.json")


@dataclass(frozen=True)
class ArtifactSizes:
    """Sizes of one classifier / ACP / prior build."""

    train_rows: int  # leading rows of the dataset's train split
    clf_rounds: int
    acp_k: int
    corpus_size: int
    pretrain_epochs: int
    gate_samples: int


@dataclass(frozen=True)
class Scale:
    """Sizes of the work; FULL is the benchmark, TINY the smoke test."""

    dataset_size: int
    loaded: ArtifactSizes  # the artifacts explore and campaign load
    built: ArtifactSizes  # what one artifacts sample builds
    artifact_builds: int  # samples per pass of the artifacts workload, each from its own seeds
    explore_runs: int
    explore_steps: int
    campaign_queries: int
    campaign_steps: int
    prior_samples: int
    check_sample: int
    setup_repeats: int  # set-up runs at least this many times
    setup_seconds: float  # and for at least this long


FULL = Scale(
    dataset_size=5000,
    loaded=ArtifactSizes(train_rows=4500, clf_rounds=200, acp_k=10, corpus_size=1500, pretrain_epochs=10,
                         gate_samples=400),
    built=ArtifactSizes(train_rows=2000, clf_rounds=60, acp_k=10, corpus_size=600, pretrain_epochs=10,
                        gate_samples=400),
    artifact_builds=4,
    explore_runs=8,
    explore_steps=30,
    campaign_queries=2,
    campaign_steps=15,
    prior_samples=400,
    check_sample=64,
    setup_repeats=9,
    setup_seconds=3.0,
)
_TINY_ARTIFACTS = ArtifactSizes(train_rows=540, clf_rounds=60, acp_k=3, corpus_size=400, pretrain_epochs=8,
                                gate_samples=100)
TINY = Scale(
    dataset_size=600, loaded=_TINY_ARTIFACTS, built=_TINY_ARTIFACTS, artifact_builds=1, explore_runs=2, explore_steps=3,
    campaign_queries=2, campaign_steps=3, prior_samples=50, check_sample=8, setup_repeats=2,
    setup_seconds=0.0,
)
SCALES = {"full": FULL, "tiny": TINY}


@dataclass(frozen=True)
class Seeds:
    """Seeds derived from the workload seed.

    Workload seed 0 gives the test suite's seeds (dataset 11, ACP 5, corpus 4,
    prior 0, queries 33, learning runs from 0). An artifacts sample i takes
    the seeds of workload seed builds * seed + i. The dataset and the query
    templates stay fixed for every workload seed: which templates a campaign
    draws moves its hit count by a factor of four, which would swamp any
    change in the code. The seed moves every other random choice: bootstrap
    resamples, pretraining masks and initial weights, and the learning runs.
    """

    dataset: int
    acp: int
    corpus: int
    prior: int
    queries: int
    run: int

    @classmethod
    def for_workload(cls, seed: int) -> "Seeds":
        return cls(dataset=11, acp=5 + seed, corpus=4 + seed, prior=seed, queries=33, run=seed)


@dataclass
class Sample:
    """The outcome of one timed sample."""

    seconds: float
    operations: int
    failures: list[str]
    conf_hits: int
    unique_valid: int
    digest: str
    details: dict[str, float] = field(default_factory=dict)


@dataclass
class Workload:
    """A set-up, timed on its own, and the samples that run on its result."""

    setup: Callable[[], object]
    samples: Callable[[object], list[Callable[[], Sample]]]
    acp_file: Path  # the ACP artifact the samples use, for its size
    cache_build_s: float = 0.0  # building the artifacts explore and campaign load, when this run had to


def _digest(paths: list[Path], base: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(base)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median_time(fn, repeats: int, seconds: float):
    """Run fn at least repeats times and for at least seconds; return (median seconds, count, last result)."""
    times, result = [], None
    while len(times) < repeats or sum(times) < seconds:
        result = None  # so that two results are never alive at once, which would raise the peak memory
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), len(times), result


# -- artifacts ---------------------------------------------------------------------


@dataclass
class ArtifactInputs:
    train_seqs: list[str]
    train_labels: np.ndarray
    X_train: np.ndarray
    test_seqs: list[str]
    test_labels: np.ndarray
    X_unseen: np.ndarray  # every dataset sequence the build does not train on
    gate_queries: list


def artifact_inputs(scale: Scale, sizes: ArtifactSizes, seeds: Seeds) -> ArtifactInputs:
    """The training rows, the held-out split, the unseen rows and the gate queries."""
    dataset = domain.make_dataset(scale.dataset_size, seed=seeds.dataset)
    all_train_seqs, all_train_labels = dataset.subset("train")
    train_seqs, train_labels = all_train_seqs[: sizes.train_rows], all_train_labels[: sizes.train_rows]
    test_seqs, test_labels = dataset.subset("test")
    return ArtifactInputs(
        train_seqs=train_seqs,
        train_labels=train_labels,
        X_train=domain.fingerprints(train_seqs),
        test_seqs=test_seqs,
        test_labels=test_labels,
        X_unseen=domain.fingerprints(all_train_seqs[sizes.train_rows:] + test_seqs),
        gate_queries=domain.make_queries(10, lengths=QUERY_LENGTHS, seed=seeds.queries),
    )


def pretrain_corpus(inputs: ArtifactInputs, sizes: ArtifactSizes, seeds: Seeds) -> list:
    return policy.build_pretrain_corpus(inputs.train_seqs[: sizes.corpus_size], seed=seeds.corpus)


def build_artifacts(inputs: ArtifactInputs, corpus: list, sizes: ArtifactSizes, seeds: Seeds, out: Path):
    """Fit the classifier, build the ACP, pretrain the gated prior and save all three.

    Returns the artifacts and the seconds each step took. Raises
    ValidityGateError when the prior misses the fill-validity gate.
    """
    config = ClassifierConfig(n_rounds=sizes.clf_rounds)
    times = {}
    start = time.perf_counter()
    clf = BoostedTreeClassifier(config).fit(inputs.X_train, inputs.train_labels)
    times["clf_fit_s"] = time.perf_counter() - start
    start = time.perf_counter()
    acp = conformal.build_acp(inputs.X_train, inputs.train_labels, k=sizes.acp_k, config=config, seed=seeds.acp)
    times["acp_build_s"] = time.perf_counter() - start
    start = time.perf_counter()
    prior = policy.pretrain_prior(
        corpus,
        epochs=sizes.pretrain_epochs,
        learning_rate=1e-3,
        seed=seeds.prior,
        gate_queries=inputs.gate_queries,
        gate_samples=sizes.gate_samples,
    ).policy
    times["pretrain_s"] = time.perf_counter() - start
    start = time.perf_counter()
    clf.save(out / "clf.json")
    conformal.save_acp(acp, out / "acp.json")
    prior.save(out / "prior.json")
    times["save_s"] = time.perf_counter() - start
    return harness.CampaignArtifacts(prior=prior, classifier=clf, acp=acp), times


def load_artifacts(directory: Path) -> harness.CampaignArtifacts:
    return harness.CampaignArtifacts(
        prior=policy.Policy.load(directory / "prior.json"),
        classifier=BoostedTreeClassifier.load(directory / "clf.json"),
        acp=conformal.load_acp(directory / "acp.json"),
    )


def artifacts_sample(inputs: ArtifactInputs, seeds: Seeds, sizes: ArtifactSizes, prior_samples: int,
                     out: Path) -> Sample:
    """Build the three artifacts from scratch and round-trip them through save and load.

    An operation is one artifact build. Checks: the conformal coverage bounds
    on the held-out split, the prior's validity gate, and a round trip that
    reproduces probabilities, p-values and prior NLL exactly. conf_hits counts
    the dataset sequences outside the training rows that the new ACP calls
    confident positives; unique_valid, the distinct valid sequences among
    proposals the new prior samples for the gate queries.
    """
    fresh_dir(out)
    corpus = pretrain_corpus(inputs, sizes, seeds)
    start = time.perf_counter()
    try:
        built, times = build_artifacts(inputs, corpus, sizes, seeds, out)
    except policy.ValidityGateError as err:
        return Sample(time.perf_counter() - start, 3, [f"prior gate: {err}"], 0, 0, "")
    start_load = time.perf_counter()
    loaded = load_artifacts(out)
    end = time.perf_counter()
    times["load_s"] = end - start_load
    times["artifacts_s"] = end - start

    X_test = domain.fingerprints(inputs.test_seqs)
    p0, p1 = loaded.acp.p_values_batch(X_test)
    sets = [conformal.predict_set(conformal.PValuePair(a, b), SIGNIFICANCE) for a, b in zip(p0, p1)]
    m = conformal.validity_efficiency(sets, inputs.test_labels.tolist())
    failures = []
    if min(m.validity_0, m.validity_1) < 0.75:
        failures.append(f"coverage: validity {m.validity_0:.3f}/{m.validity_1:.3f} < 0.75")
    failures += _round_trip_failures(built, loaded, corpus, X_test)

    p0, p1 = loaded.acp.p_values_batch(inputs.X_unseen)
    rng = np.random.default_rng([seeds.prior, 3])
    valid = set()
    for i in range(prior_samples):
        query = inputs.gate_queries[i % len(inputs.gate_queries)]
        seq = domain.assemble(query, loaded.prior.sample(query, rng).fills)
        if seq is not None:
            valid.add(seq)
    return Sample(
        seconds=end - start,
        operations=3,
        failures=failures,
        conf_hits=int(np.sum((p1 >= SIGNIFICANCE) & (p0 <= SIGNIFICANCE))),
        unique_valid=len(valid),
        digest=_digest([out / name for name in ARTIFACT_FILES], out),
        details=times,
    )


def _round_trip_failures(built, loaded, corpus: list, X_test: np.ndarray) -> list[str]:
    """Compare the loaded artifacts' outputs with the in-memory builds, exactly."""
    failures = []
    if not np.array_equal(built.classifier.predict_proba(X_test), loaded.classifier.predict_proba(X_test)):
        failures.append("round trip changed classifier probabilities")
    for a, b in zip(built.acp.p_values_batch(X_test), loaded.acp.p_values_batch(X_test)):
        if not np.array_equal(a, b):
            failures.append("round trip changed p-values")
    if any(built.prior.nll(q, f) != loaded.prior.nll(q, f) for q, f in corpus[:50]):
        failures.append("round trip changed prior NLL")
    return failures


# -- the artifacts explore and campaign load ---------------------------------------


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, which stands in for the commit outside a git checkout."""
    return _digest(list(src.rglob("*.py")), src)


def cache_dir(root: Path, scale: Scale, src: Path) -> Path:
    """Where the seed-0 artifacts for this source tree and these sizes live."""
    key = hashlib.sha256((source_digest(src) + repr((scale.dataset_size, scale.loaded))).encode()).hexdigest()
    return root / "cache" / key[:16]


def build_cache(directory: Path, scale: Scale) -> None:
    """Build the seed-0 artifacts (the test suite's) into directory, atomically."""
    tmp = fresh_dir(directory.with_name(f"{directory.name}.tmp{os.getpid()}"))
    seeds = Seeds.for_workload(0)
    inputs = artifact_inputs(scale, scale.loaded, seeds)
    build_artifacts(inputs, pretrain_corpus(inputs, scale.loaded, seeds), scale.loaded, seeds, tmp)
    domain.write_dataset_csv(domain.make_dataset(scale.dataset_size, seed=seeds.dataset), tmp / "data.csv")
    try:
        tmp.rename(directory)
    except OSError:
        if not directory.is_dir():
            raise
        shutil.rmtree(tmp)  # another run built the same cache first


def ensure_cache(directory: Path, scale_name: str) -> float:
    """Build the cache in a child process, so its memory does not count in this one's peak.

    Returns the seconds the build took, 0.0 when the cache was already there.
    """
    if directory.is_dir():
        return 0.0
    directory.parent.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--build-cache", str(directory),
         "--scale", scale_name],
        check=True,
        timeout=900,
    )
    return time.perf_counter() - start


# -- explore ---------------------------------------------------------------------------


def explore_sample(arts: harness.CampaignArtifacts, scale: Scale, seeds: Seeds, index: int, out: Path) -> Sample:
    """One learning run (rm_p1, batch 32) on the four-slot query, with a cold scorer.

    An operation is one run. Checks: every step metric is finite, and a fresh
    scorer reproduces the cached (p0, p1, raw probability, score, hit) of a
    sample of the run's sequences exactly.
    """
    query = domain.make_queries(10, lengths=QUERY_LENGTHS, seed=seeds.queries)[EXPLORE_QUERY_INDEX]
    config = rl.RLConfig(
        scoring="rm_p1", steps=scale.explore_steps, significance=SIGNIFICANCE,
        seed=scale.explore_runs * seeds.run + index,
    )
    path = out / f"run{index}.csv"
    start = time.perf_counter()
    scorer = rl.SequenceScorer("rm_p1", arts.classifier, arts.acp, SIGNIFICANCE)
    record = rl.run_rl(query, config, arts.prior, scorer)
    record.write_csv(path)
    seconds = time.perf_counter() - start

    failures = []
    for m in record.steps:
        if not all(math.isfinite(v) for v in (m.avg_score, m.avg_p0, m.avg_p1, m.frac_conf_eff, m.loss)):
            failures.append(f"run {index}: non-finite metrics at step {m.step}")
            break
    pool = sorted(record.unique_valid)
    picks = np.random.default_rng(index).choice(len(pool), size=min(scale.check_sample, len(pool)), replace=False)
    sample = [pool[j] for j in sorted(picks)]
    fresh = rl.SequenceScorer("rm_p1", arts.classifier, arts.acp, SIGNIFICANCE)
    cached, recomputed = scorer.evaluate(sample), fresh.evaluate(sample)
    if any(cached[s] != recomputed[s] for s in sample):
        failures.append(f"run {index}: a fresh scorer disagrees with the cached scores")
    return Sample(
        seconds=seconds,
        operations=1,
        failures=failures,
        conf_hits=len(record.conf_eff_unique),
        unique_valid=len(record.unique_valid),
        digest=_digest([path], out),
        details={"rl_steps_per_s": scale.explore_steps / seconds},
    )


# -- campaign ---------------------------------------------------------------------------


def campaign_sample(arts, scale: Scale, seeds: Seeds, data: Path, out: Path) -> Sample:
    """A campaign over every scoring kind, then the report rebuilt from its run files.

    An operation is one (query, kind) cell. Checks: every cell has status ok,
    and the rebuilt summaries are byte-identical to the campaign's.
    """
    fresh_dir(out)
    queries = out / "queries.csv"
    domain.write_queries_csv(
        domain.make_queries(scale.campaign_queries, lengths=QUERY_LENGTHS, max_masked=2, seed=seeds.queries), queries
    )
    config = harness.CampaignConfig(
        dataset=data, queries=queries, steps=scale.campaign_steps, significance=SIGNIFICANCE, seed=seeds.run,
    )
    start = time.perf_counter()
    result = harness.run_campaign(config, out / "result", artifacts=arts)
    harness.regenerate_report(out / "result" / "runs", out / "report")
    seconds = time.perf_counter() - start

    failures = [
        f"cell q{row.query_id}/{row.scoring_fn}: status {row.status}" for row in result.rows if row.status != "ok"
    ]
    for name in ("summary.csv", "wilcoxon.csv", "summary_by_length.csv"):
        if (out / "report" / name).read_bytes() != (out / "result" / name).read_bytes():
            failures.append(f"report rebuilt {name} differently")
    ok = [row for row in result.rows if row.status == "ok"]
    cells = len(result.rows)
    return Sample(
        seconds=seconds,
        operations=cells,
        failures=failures,
        conf_hits=sum(row.n_conf_eff for row in ok),
        unique_valid=sum(row.n_unique_valid for row in ok),
        digest=_digest([p for p in (out / "result").rglob("*") if p.is_file()], out / "result"),
        details={"rl_steps_per_s": cells * scale.campaign_steps / seconds},
    )


# -- the three workloads ------------------------------------------------------------------


def workload(name: str, scale: Scale, scale_name: str, seed: int, src: Path, out: Path, work: Path) -> Workload:
    """The named workload; explore and campaign first build the artifacts they load, if missing."""
    seeds = Seeds.for_workload(seed)
    if name == "artifacts":
        builds = [Seeds.for_workload(scale.artifact_builds * seed + i) for i in range(scale.artifact_builds)]
        return Workload(
            setup=partial(artifact_inputs, scale, scale.built, seeds),
            samples=lambda inputs: [
                partial(artifacts_sample, inputs, s, scale.built, scale.prior_samples, work / "artifacts" / f"build{i}")
                for i, s in enumerate(builds)
            ],
            acp_file=work / "artifacts" / "build0" / "acp.json",
        )
    cache = cache_dir(out, scale, src)
    cache_build_s = ensure_cache(cache, scale_name)

    def samples(arts: harness.CampaignArtifacts) -> list[Callable[[], Sample]]:
        if name == "explore":
            runs = fresh_dir(work / "explore")
            return [partial(explore_sample, arts, scale, seeds, i, runs) for i in range(scale.explore_runs)]
        return [partial(campaign_sample, arts, scale, seeds, cache / "data.csv", work / "campaign")]

    return Workload(setup=partial(load_artifacts, cache), samples=samples, acp_file=cache / "acp.json",
                    cache_build_s=cache_build_s)
