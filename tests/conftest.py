"""Shared fixtures and helpers. The acceptance-scale artifacts (5k dataset,
classifier, ACP, pretrained prior) are session-scoped because several modules
and the acceptance suite all lean on them; everything is seeded, so they are
stable across runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from cpseq.boosting import BoostedTreeClassifier, ClassifierConfig
from cpseq.conformal import Acp, build_acp
from cpseq.domain import EMISSION_TOKENS, LabeledDataset, fingerprints, make_dataset, make_queries
from cpseq.policy import PARAM_NAMES, Draws, Policy, build_pretrain_corpus, pretrain_prior

DATASET_SEED = 11
ACP_SEED = 5
PRIOR_SEED = 0
QUERY_SEED = 33

# No per-example deadline: property tests here run numpy work whose timing moves with
# the host's load, and a 200 ms deadline turns that noise into failures.
settings.register_profile("cpseq", deadline=None)
settings.load_profile("cpseq")


def params_equal(a: Policy, b: Policy) -> bool:
    return all(np.array_equal(a.p[name], b.p[name]) for name in PARAM_NAMES)


def drawn_fills(drawn: Draws) -> list[tuple[str, ...]]:
    """Each drawn row's fills as text, one per slot, the terminator included where one was drawn."""
    return [tuple(map("".join, row)) for row in np.array([*EMISSION_TOKENS, ""])[drawn.ids].tolist()]


@dataclass
class TimedAcp:
    acp: Acp
    build_seconds: float


@pytest.fixture(scope="session")
def dataset5k() -> LabeledDataset:
    return make_dataset(5000, seed=DATASET_SEED)


@pytest.fixture(scope="session")
def train5k(dataset5k):
    seqs, labels = dataset5k.subset("train")
    return seqs, labels, fingerprints(seqs)


@pytest.fixture(scope="session")
def clf5k(train5k) -> BoostedTreeClassifier:
    seqs, labels, X = train5k
    return BoostedTreeClassifier(ClassifierConfig()).fit(X, labels)


@pytest.fixture(scope="session")
def acp5k(train5k) -> TimedAcp:
    seqs, labels, X = train5k
    start = time.perf_counter()
    acp = build_acp(X, labels, k=10, seed=ACP_SEED)
    return TimedAcp(acp, time.perf_counter() - start)


@pytest.fixture(scope="session")
def queries10():
    return make_queries(10, lengths=(6, 7, 10), seed=QUERY_SEED)


@pytest.fixture(scope="session")
def prior5k(train5k, queries10) -> Policy:
    seqs, labels, _ = train5k
    corpus = build_pretrain_corpus(seqs[:1500], seed=4)
    result = pretrain_prior(
        corpus,
        epochs=10,
        learning_rate=1e-3,
        seed=PRIOR_SEED,
        gate_queries=queries10,
        gate_samples=400,
    )
    return result.policy


@pytest.fixture(scope="session")
def tiny_dataset() -> LabeledDataset:
    return make_dataset(600, seed=3)


@pytest.fixture(scope="session")
def tiny_models(tiny_dataset):
    seqs, labels = tiny_dataset.subset("train")
    X = fingerprints(seqs)
    config = ClassifierConfig(n_rounds=60)
    clf = BoostedTreeClassifier(config).fit(X, labels)
    acp = build_acp(X, labels, k=3, config=config, seed=9)
    return clf, acp


@pytest.fixture(scope="session")
def tiny_prior(tiny_dataset) -> Policy:
    seqs, _ = tiny_dataset.subset("train")
    corpus = build_pretrain_corpus(seqs[:400], seed=8)
    return pretrain_prior(corpus, epochs=8, learning_rate=1e-3, seed=1).policy
