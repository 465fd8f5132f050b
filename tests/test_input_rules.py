"""Each input rule (scoring kind, labels, significance, template entries, count
settings) is checked in one function; every entry point that takes such an
input refuses a bad one with that function's message."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from cpseq.boosting import BoostedTreeClassifier, ClassifierConfig, missing_label
from cpseq.cli import main
from cpseq.conformal import PredictionSet, PValuePair, build_acp, calibrate_icp, predict_set, validity_efficiency
from cpseq.domain import QueryTemplate, make_dataset, make_queries, mask_out, read_queries_csv
from cpseq.harness import CampaignConfig, build_prior
from cpseq.policy import pretrain_prior
from cpseq.rl import RLConfig, SequenceScorer
from cpseq.scoring import SCORING_KINDS, score


def _cli(*argv):
    """Run cpseq, which must fail; its stderr message is raised as the ValueError it reported."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([str(a) for a in argv]) == 1
    raise ValueError(err.getvalue().removeprefix("error: ").rstrip("\n"))


def _raises_with(message, call, *args):
    """Assert ``call(*args)`` raises ValueError whose message is ``message``, after any file or key prefix."""
    with pytest.raises(ValueError) as err:
        call(*args)
    assert str(err.value).endswith(message), str(err.value)


def _report_on_sidecar(tmp_path, kind):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "q0_x.json").write_text(json.dumps({"status": "error", "query_id": 0, "length": 6, "scoring_fn": kind}))
    _cli("report", "--dir", tmp_path)


@pytest.mark.parametrize(
    "call",
    [
        lambda models, tmp, kind: score(kind, PValuePair(0.5, 0.5), 0.5),
        lambda models, tmp, kind: RLConfig(scoring=kind),
        lambda models, tmp, kind: SequenceScorer(kind, *models),
        lambda models, tmp, kind: SequenceScorer("cp_soft", *models).for_kind(kind),
        lambda models, tmp, kind: CampaignConfig(Path("d.csv"), Path("q.csv"), scoring=("rm_p1", kind)),
        lambda models, tmp, kind: _report_on_sidecar(tmp, kind),
    ],
    ids=["score", "RLConfig", "SequenceScorer", "for_kind", "CampaignConfig", "cpseq-report"],
)
def test_an_unknown_scoring_kind_is_refused_with_one_message(tiny_models, tmp_path, call):
    _raises_with(f"unknown scoring kind 'nope'; expected one of {SCORING_KINDS}", call, tiny_models, tmp_path, "nope")


_LABEL_CASES = [([1, 1, 1, 1], "no samples with true label 0"), ([0, 1, 2, 1], "label 2 is not 0 or 1"),
                ([0, 1, 0.5, 1], "label 0.5 is not 0 or 1")]


@pytest.mark.parametrize("labels, message", _LABEL_CASES, ids=["missing", "two", "half"])
@pytest.mark.parametrize(
    "call",
    [
        lambda y: BoostedTreeClassifier().fit(np.zeros((4, 3)), y),
        lambda y: build_acp(np.zeros((4, 3)), y, k=2),
        lambda y: calibrate_icp(BoostedTreeClassifier(), np.zeros((4, 3)), y),
        lambda y: validity_efficiency([PredictionSet.BOTH] * 4, y),
    ],
    ids=["fit", "build_acp", "calibrate_icp", "validity_efficiency"],
)
def test_labels_other_than_both_of_0_and_1_are_refused_with_one_message(call, labels, message):
    _raises_with(message, call, labels)


@pytest.mark.parametrize("labels, missing", [([1, 1], 0), ([0, 0], 1), ([], 0), ([1, 0], None)])
def test_missing_label_is_the_first_of_0_and_1_that_the_labels_lack(labels, missing):
    assert missing_label(np.array(labels)) == missing and missing_label(labels) == missing


def test_cpseq_calibrate_refuses_a_test_split_without_a_label_with_the_same_message(tmp_path):
    # a dataset file holds only 0s and 1s (its reader refuses any other label), so a missing label is its one case
    (tmp_path / "data.csv").write_text("sequence,label,split\nACDEFL,0,train\nACDEFM,1,train\nACDEFG,1,test\n")
    args = ("calibrate", "--data", tmp_path / "data.csv", "--k", 1, "--rounds", 1, "--out", tmp_path / "acp.json")
    _raises_with("no samples with true label 0", _cli, *args)
    assert not (tmp_path / "acp.json").exists()


@pytest.mark.parametrize("significance", [0.0, 1.0, 5.0, float("nan")], ids=["0", "1", "5", "nan"])
@pytest.mark.parametrize(
    "call",
    [
        lambda models, s: RLConfig(significance=s),
        lambda models, s: predict_set(PValuePair(0.5, 0.5), s),
        lambda models, s: SequenceScorer("cp_harsh", *models, significance=s),
    ],
    ids=["RLConfig", "predict_set", "SequenceScorer"],
)
def test_a_significance_outside_the_unit_interval_is_refused_with_one_message(tiny_models, call, significance):
    _raises_with("significance must be in (0, 1)", call, tiny_models, significance)


def _read_one_query(tmp_path, text):
    (tmp_path / "queries.csv").write_text(f"template\n{text}\n")
    read_queries_csv(tmp_path / "queries.csv")


@pytest.mark.parametrize(
    "call",
    [
        lambda tmp, text: QueryTemplate.from_text(text),
        lambda tmp, text: _cli("run", "--query", text, "--prior", "p", "--classifier", "c", "--acp", "a",
                               "--out", tmp / "run.csv"),
        _read_one_query,
    ],
    ids=["from_text", "cpseq-run", "query-csv"],
)
def test_a_template_entry_that_is_not_a_residue_is_refused_with_one_message(tmp_path, call):
    _raises_with("template entry '$' is not a residue token", call, tmp_path, "AC$?E")


def _campaign(**setting):
    return CampaignConfig(Path("d.csv"), Path("q.csv"), **setting)


@pytest.mark.parametrize(
    "value, message",
    [(0, "must be >= 1"), (-3, "must be >= 1"), (2.5, "must be an integer, got 2.5"),
     (True, "must be an integer, got True"), (np.int64(2), None)],
    ids=["0", "-3", "2.5", "True", "int64"],
)
@pytest.mark.parametrize(
    "name, call",
    [
        ("n_rounds", lambda data, n: ClassifierConfig(n_rounds=n)),
        ("max_depth", lambda data, n: ClassifierConfig(max_depth=n)),
        ("batch_size", lambda data, n: RLConfig(batch_size=n)),
        ("steps", lambda data, n: RLConfig(steps=n)),
        ("acp_k", lambda data, n: _campaign(acp_k=n)),
        ("pretrain_corpus_size", lambda data, n: _campaign(pretrain_corpus_size=n)),
        ("epochs", lambda data, n: _campaign(pretrain_epochs=n)),
        ("k", lambda data, n: build_acp(np.zeros((40, 3)), [0, 1] * 20, k=n, config=ClassifierConfig(n_rounds=1))),
        ("corpus_size", lambda data, n: build_prior(data, n, 0, epochs=1)),
        ("epochs", lambda data, n: pretrain_prior([mask_out("ACDEFG", [2])], epochs=n)),
        ("n", lambda data, n: make_dataset(n)),
        ("n", lambda data, n: make_queries(n)),
    ],
    ids=["ClassifierConfig.n_rounds", "ClassifierConfig.max_depth", "RLConfig.batch_size", "RLConfig.steps",
         "CampaignConfig.acp_k", "CampaignConfig.pretrain_corpus_size", "CampaignConfig.pretrain_epochs",
         "build_acp", "build_prior", "pretrain_prior", "make_dataset", "make_queries"],
)
def test_a_count_setting_below_1_or_not_an_integer_is_refused_with_one_message(tiny_dataset, name, call, value,
                                                                                message):
    if message is None:  # a numpy integer is an integer
        call(tiny_dataset, value)
    else:
        _raises_with(f"{name} {message}", call, tiny_dataset, value)
