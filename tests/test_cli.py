import inspect
import json
import re

import pytest

from cpseq.boosting import BoostedTreeClassifier, ClassifierConfig
from cpseq import harness
from cpseq.cli import build_parser, main
from cpseq.conformal import acp_to_json_dict, build_acp, load_acp
from cpseq.domain import FINGERPRINT_BUCKETS, make_dataset, make_queries, read_dataset_csv, read_queries_csv
from cpseq.harness import CampaignConfig
from cpseq.policy import DEFAULT_PRETRAIN_CORPUS_SIZE, build_pretrain_corpus, pretrain_prior


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny end-to-end CLI workspace: data, queries, artifacts."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen-data", "--n", "400", "--seed", "3", "--out", str(root / "data.csv")]) == 0
    assert main(["gen-queries", "--n", "2", "--seed", "5", "--out", str(root / "queries.csv")]) == 0
    assert (
        main(
            [
                "pretrain",
                "--data", str(root / "data.csv"),
                "--corpus-size", "150",
                "--epochs", "30",
                "--learning-rate", "0.003",
                "--seed", "0",
                "--gate-queries", str(root / "queries.csv"),
                "--gate-samples", "200",
                "--out", str(root / "prior.json"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train-clf",
                "--data", str(root / "data.csv"),
                "--rounds", "25",
                "--seed", "1",
                "--out", str(root / "clf.json"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "calibrate",
                "--data", str(root / "data.csv"),
                "--k", "2",
                "--rounds", "25",
                "--seed", "2",
                "--out", str(root / "acp.json"),
            ]
        )
        == 0
    )
    return root


def test_gen_data_output(workdir):
    ds = read_dataset_csv(workdir / "data.csv")
    assert len(ds) == 400


def test_gen_queries_output(workdir):
    assert len(read_queries_csv(workdir / "queries.csv")) == 2


def test_calibrate_writes_metrics_report(workdir):
    lines = (workdir / "acp.metrics.csv").read_text().splitlines()
    assert lines[0] == "label,validity,efficiency"
    assert len(lines) == 3
    assert b"\r" not in (workdir / "acp.metrics.csv").read_bytes()


def test_calibrate_writes_nothing_when_the_test_split_lacks_a_label(workdir, tmp_path, capsys):
    header, *rows = (workdir / "data.csv").read_text().splitlines()
    kept = [row for row in rows if not row.endswith(",0,test")]
    (tmp_path / "data.csv").write_text("\n".join([header, *kept]) + "\n")
    args = ["calibrate", "--data", str(tmp_path / "data.csv"), "--k", "2", "--rounds", "5"]
    assert main(args + ["--out", str(tmp_path / "acp.json")]) == 1
    assert capsys.readouterr().err == "error: no samples with true label 0\n"
    assert not (tmp_path / "acp.json").exists()
    assert not (tmp_path / "acp.metrics.csv").exists()


def test_run_subcommand(workdir, tmp_path, capsys):
    code = main(
        [
            "run",
            "--queries", str(workdir / "queries.csv"),
            "--index", "0",
            "--prior", str(workdir / "prior.json"),
            "--classifier", str(workdir / "clf.json"),
            "--acp", str(workdir / "acp.json"),
            "--scoring", "cp_soft",
            "--steps", "6",
            "--batch-size", "8",
            "--seed", "4",
            "--out", str(tmp_path / "run.csv"),
        ]
    )
    assert code == 0
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert len(lines) == 7
    assert "unique valid" in capsys.readouterr().out


def test_campaign_and_report_round_trip(workdir, tmp_path):
    # kinds listed out of their canonical order too: both sort the rows by query and canonical kind
    for i, scoring in enumerate(("rm_p1, cp_soft", "cp_soft, rm_p1")):
        config = tmp_path / f"c{i}.cfg"
        config.write_text(
            f"dataset = {workdir / 'data.csv'}\n"
            f"queries = {workdir / 'queries.csv'}\n"
            f"prior = {workdir / 'prior.json'}\n"
            f"classifier = {workdir / 'clf.json'}\n"
            f"acp = {workdir / 'acp.json'}\n"
            f"scoring = {scoring}\n"
            "steps = 8\n"
            "batch_size = 8\n"
            "seed = 6\n"
        )
        out, rep = tmp_path / f"out{i}", tmp_path / f"rep{i}"
        assert main(["campaign", "--config", str(config), "--out", str(out)]) == 0
        assert main(["report", "--dir", str(out), "--out", str(rep)]) == 0
        for name in ("summary.csv", "wilcoxon.csv", "summary_by_length.csv"):
            assert (rep / name).read_bytes() == (out / name).read_bytes(), (scoring, name)
        kinds = [line.split(",")[2] for line in (out / "summary.csv").read_text().splitlines()[1:]]
        assert kinds == ["rm_p1", "cp_soft"] * 2


@pytest.mark.parametrize("index", ["2", "-1"])
def test_run_rejects_an_index_outside_the_query_file(workdir, tmp_path, capsys, index):
    args = ["run", "--queries", str(workdir / "queries.csv"), "--index", index, "--steps", "2", "--batch-size", "4"]
    args += ["--prior", str(workdir / "prior.json"), "--classifier", str(workdir / "clf.json")]
    args += ["--acp", str(workdir / "acp.json"), "--out", str(tmp_path / "run.csv")]
    assert main(args) == 1
    expected = f"error: --index {index} is out of range: {workdir / 'queries.csv'} holds 2 queries\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "run.csv").exists()


def _campaign_config(workdir, path, *extra, classifier=None):
    """A campaign config over the workspace; an extra ``key = value`` line takes the place of its key's line."""
    settings = {
        "dataset": workdir / "data.csv",
        "queries": workdir / "queries.csv",
        "prior": workdir / "prior.json",
        "classifier": classifier or workdir / "clf.json",
        "acp": workdir / "acp.json",
        "steps": 2,
        "batch_size": 4,
    }
    for line in extra:
        key, _, value = line.partition("=")
        settings[key.strip()] = value.strip()
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    return path


@pytest.mark.parametrize(
    "line, message",
    [
        ("sigma = 0", "sigma must be > 0"),
        ("steps = 0", "batch_size and steps must be >= 1"),
        ("batch_size = 0", "batch_size and steps must be >= 1"),
        ("significance = 1.5", "significance must be in (0, 1)"),
        ("rl_learning_rate = -0.1", "learning_rate must be > 0"),
        ("acp_k = 0", "acp_k must be >= 1"),
        ("clf_rounds = 0", "n_rounds must be >= 1"),
        ("clf_learning_rate = 1.5", "learning_rate must be in (0, 1]"),
        ("clf_depth = 0", "max_depth must be >= 1"),
        ("clf_subsample = 0", "subsample must be in (0, 1]"),
        ("pretrain_epochs = 0", "epochs must be >= 1"),
        ("pretrain_learning_rate = -0.001", "learning_rate must be > 0"),
        ("pretrain_corpus_size = 0", "pretrain_corpus_size must be >= 1"),
    ],
)
def test_campaign_with_bad_run_settings_fails_before_any_build(workdir, tmp_path, capsys, monkeypatch, line, message):
    built = []

    def build(config):
        built.append(config)
        raise RuntimeError("artifacts built")

    monkeypatch.setattr(harness, "build_campaign_artifacts", build)
    config = _campaign_config(workdir, tmp_path / "c.cfg", line)
    assert main(["campaign", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    # the message names the file, the line and the key
    lineno = config.read_text().splitlines().index(line) + 1
    key = line.partition(" =")[0]
    assert capsys.readouterr().err == f"error: {config}:{lineno}: key {key!r}: {message}\n"
    assert built == []
    assert not (tmp_path / "out").exists()


def test_campaign_seed_flag_takes_the_place_of_the_config_seed(workdir, tmp_path):
    flagged, configured = tmp_path / "flagged", tmp_path / "configured"
    config = _campaign_config(workdir, tmp_path / "six.cfg", "seed = 6", "scoring = rm_p1, cp_soft")
    assert main(["campaign", "--config", str(config), "--out", str(flagged), "--seed", "9"]) == 0
    config = _campaign_config(workdir, tmp_path / "nine.cfg", "seed = 9", "scoring = rm_p1, cp_soft")
    assert main(["campaign", "--config", str(config), "--out", str(configured)]) == 0
    files = sorted(path.relative_to(configured) for path in configured.rglob("*.*"))
    assert len(files) == 11  # four runs' CSVs and sidecars, and three summaries
    assert all((flagged / f).read_bytes() == (configured / f).read_bytes() for f in files)


def test_campaign_rejects_a_classifier_that_splits_past_the_fingerprint(workdir, tmp_path, capsys):
    payload = json.loads((workdir / "clf.json").read_text())
    payload["feature"][0][0] = FINGERPRINT_BUCKETS
    (tmp_path / "clf.json").write_text(json.dumps(payload))
    config = _campaign_config(workdir, tmp_path / "c.cfg", classifier=tmp_path / "clf.json")
    assert main(["campaign", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    expected = f"the classifier splits on column {FINGERPRINT_BUCKETS}, but fingerprints have {FINGERPRINT_BUCKETS} columns"
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "out").exists()


def test_report_names_a_sidecar_missing_a_key(tmp_path, capsys):
    runs = tmp_path / "rep" / "runs"
    runs.mkdir(parents=True)
    (runs / "q000_rm_p1.json").write_text(json.dumps({"query_id": 0}))
    assert main(["report", "--dir", str(tmp_path / "rep")]) == 1
    assert capsys.readouterr().err == f"error: {runs / 'q000_rm_p1.json'}: missing key 'status'\n"


def test_run_rejects_prior_with_another_alphabet(workdir, tmp_path, capsys):
    payload = json.loads((workdir / "prior.json").read_text())
    payload["end_token"] = "^"
    (tmp_path / "prior.json").write_text(json.dumps(payload))
    code = main(
        [
            "run",
            "--query", "AC?DE?G",
            "--prior", str(tmp_path / "prior.json"),
            "--classifier", str(workdir / "clf.json"),
            "--acp", str(workdir / "acp.json"),
            "--out", str(tmp_path / "run.csv"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run.csv").exists()


def _edited(payload, *path, value=None):
    """A copy of a JSON payload whose key at the end of ``path`` is set to value, or removed when value is None."""
    payload = json.loads(json.dumps(payload))
    *parents, key = path
    inner = payload
    for step in parents:
        inner = inner[step]
    if value is None:
        del inner[key]
    else:
        inner[key] = value
    return payload


@pytest.mark.parametrize(
    "flag, corrupt, key",
    [
        ("--classifier", lambda payload: {"base_score": 0.0}, "config"),
        ("--classifier", lambda payload: _edited(payload, "leaf", value="x"), "leaf"),
        ("--acp", lambda payload: _edited(payload, "icps", 1, "alphas_1"), "alphas_1"),
        ("--acp", lambda payload: _edited(payload, "icps", 0, "alphas_0", value={"a": 1}), "alphas_0"),
        ("--prior", lambda payload: _edited(payload, "params", "w_out"), "w_out"),
        ("--prior", lambda payload: _edited(payload, "params", "b_out", value=[0.0, 1.0]), "b_out"),
        ("--classifier", lambda payload: _edited(payload, "leaf", 3, 0, value=float("-inf")), "leaf"),
        ("--classifier", lambda payload: _edited(payload, "base_score", value=float("nan")), "base_score"),
        ("--acp", lambda payload: _edited(payload, "icps", 1, "alphas_1", -1, value=float("nan")), "alphas_1"),
        ("--acp", lambda payload: _edited(payload, "icps", 0, "model", "leaf", 0, 1, value=float("inf")), "leaf"),
        ("--acp", lambda payload: _edited(payload, "icps", 1, "model", "base_score", value=float("nan")), "base_score"),
        ("--classifier", lambda payload: _edited(payload, "config", "max_depth", value=2.5), "config"),
        ("--classifier", lambda payload: _edited(payload, "config", "n_rounds", value=2.5), "config"),
        ("--classifier", lambda payload: _edited(payload, "config", "seed", value=1.5), "config"),
        ("--classifier", lambda payload: _edited(payload, "config", "reg_lambda", value=float("nan")), "config"),
        ("--acp", lambda payload: _edited(payload, "icps", 0, "model", "config", "max_depth", value=2.5), "config"),
    ],
    ids=["classifier", "classifier_wrong_type", "acp", "acp_wrong_type", "prior", "prior_wrong_shape",
         "classifier_infinite_leaf", "classifier_nan_base_score", "acp_nan_score", "acp_infinite_leaf",
         "acp_nan_base_score", "classifier_fractional_depth", "classifier_fractional_rounds",
         "classifier_fractional_seed", "classifier_nan_lambda", "acp_fractional_depth"],
)
def test_run_reports_a_corrupt_artifact_by_file_and_key(workdir, tmp_path, capsys, flag, corrupt, key):
    artifacts = {"--prior": "prior.json", "--classifier": "clf.json", "--acp": "acp.json"}
    paths = {name: workdir / file for name, file in artifacts.items()}
    paths[flag] = tmp_path / artifacts[flag]
    paths[flag].write_text(json.dumps(corrupt(json.loads((workdir / artifacts[flag]).read_text()))))
    args = ["run", "--query", "AC?DE?G", "--steps", "2", "--batch-size", "4", "--out", str(tmp_path / "run.csv")]
    code = main(args + [part for name, path in paths.items() for part in (name, str(path))])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[flag]}: ") and f"{key!r}" in err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("n", ["0", "-1"])
def test_gen_queries_rejects_fewer_than_one_query(tmp_path, capsys, n):
    assert main(["gen-queries", "--n", n, "--out", str(tmp_path / "queries.csv")]) == 1
    assert capsys.readouterr().err == "error: n must be >= 1\n"
    assert not (tmp_path / "queries.csv").exists()


@pytest.mark.parametrize("samples, rows, got", [("0", 2, "0 and 2"), ("500", 0, "500 and 0")],
                         ids=["no_samples", "no_queries"])
def test_pretrain_with_nothing_to_gate_on_exits_with_a_message(workdir, tmp_path, capsys, samples, rows, got):
    lines = (workdir / "queries.csv").read_text().splitlines()  # a header and two templates
    (tmp_path / "gate.csv").write_text("\n".join(lines[: rows + 1]) + "\n")
    args = ["pretrain", "--data", str(workdir / "data.csv"), "--corpus-size", "20", "--epochs", "1"]
    args += ["--gate-queries", str(tmp_path / "gate.csv"), "--gate-samples", samples]
    assert main(args + ["--out", str(tmp_path / "prior.json")]) == 1
    assert capsys.readouterr().err == f"error: fill-validity needs at least 1 sample and 1 query, got {got}\n"
    assert not (tmp_path / "prior.json").exists()


def test_pretrain_gates_on_masked_test_sequences_without_gate_queries(workdir, tmp_path, monkeypatch, capsys):
    gated = []

    def recording(corpus, **settings):
        gated.append(settings["gate_queries"])
        return pretrain_prior(corpus, **settings)

    monkeypatch.setattr(harness, "pretrain_prior", recording)
    args = ["pretrain", "--data", str(workdir / "data.csv"), "--corpus-size", "150", "--epochs", "30"]
    assert main(args + ["--learning-rate", "0.003", "--seed", "4", "--out", str(tmp_path / "prior.json")]) == 0
    test_seqs, _ = read_dataset_csv(workdir / "data.csv").subset("test")
    assert gated == [[query for query, _ in build_pretrain_corpus(test_seqs[:50], seed=5)]]
    assert "fill-validity" in capsys.readouterr().out
    assert (tmp_path / "prior.json").exists()


@pytest.mark.parametrize("flag, value, message", [("--epochs", "0", "epochs must be >= 1"),
                                                  ("--learning-rate", "-0.5", "learning_rate must be > 0"),
                                                  ("--corpus-size", "0", "corpus_size must be >= 1"),
                                                  ("--corpus-size", "-340", "corpus_size must be >= 1")])
def test_pretrain_rejects_bad_settings(workdir, tmp_path, capsys, flag, value, message):
    args = ["pretrain", "--data", str(workdir / "data.csv"), "--corpus-size", "20", flag, value]
    assert main(args + ["--out", str(tmp_path / "prior.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "prior.json").exists()


def test_a_model_that_stops_being_finite_exits_with_a_message(workdir, tmp_path, capsys):
    args = ["pretrain", "--data", str(workdir / "data.csv"), "--corpus-size", "20", "--learning-rate", "1e300"]
    assert main(args + ["--out", str(tmp_path / "prior.json")]) == 1
    assert capsys.readouterr().err.startswith("error: epoch 2: the prior is not finite (mean NLL ")
    args = ["run", "--query", "AC?DE?G", "--steps", "3", "--batch-size", "8", "--learning-rate", "1e300"]
    args += ["--prior", str(workdir / "prior.json"), "--classifier", str(workdir / "clf.json")]
    assert main(args + ["--acp", str(workdir / "acp.json"), "--out", str(tmp_path / "run.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: step 2: the agent is not finite (loss ")
    assert not (tmp_path / "prior.json").exists() and not (tmp_path / "run.csv").exists()


def test_run_on_a_query_too_long_to_fingerprint_exits_with_a_message(workdir, tmp_path, capsys):
    # 300 A's hold 299 AA bigrams, more than a uint8 fingerprint count holds
    args = ["run", "--query", "A" * 300 + "?", "--steps", "3", "--batch-size", "8"]
    args += ["--prior", str(workdir / "prior.json"), "--classifier", str(workdir / "clf.json")]
    assert main(args + ["--acp", str(workdir / "acp.json"), "--out", str(tmp_path / "run.csv")]) == 1
    message = r"^error: sequence 'A{20}'\.\.\. \(length 30[1-4]\) puts (299|30[0-3]) bigrams in bucket \d+; "
    assert re.match(message + "a fingerprint count must be at most 255\n$", capsys.readouterr().err)
    assert not (tmp_path / "run.csv").exists()


def test_campaign_builds_the_classifier_and_acp_the_cli_builds(workdir, tmp_path):
    config = CampaignConfig(dataset=workdir / "data.csv", queries=workdir / "queries.csv",
                            prior=workdir / "prior.json", clf_rounds=25, acp_k=2, seed=6)
    built = harness.build_campaign_artifacts(config)
    data = ["--data", str(workdir / "data.csv"), "--rounds", "25"]
    # the campaign seeds its classifier with derived seed 9001 and its ACP's bootstraps with 9002
    assert main(["train-clf", *data, "--seed", str(harness._derived_seed(6, 9001)),
                 "--out", str(tmp_path / "clf.json")]) == 0
    assert main(["calibrate", *data, "--k", "2", "--seed", str(harness._derived_seed(6, 9002)),
                 "--out", str(tmp_path / "acp.json")]) == 0
    assert BoostedTreeClassifier.load(tmp_path / "clf.json").to_json_dict() == built.classifier.to_json_dict()
    assert acp_to_json_dict(load_acp(tmp_path / "acp.json")) == acp_to_json_dict(built.acp)


def test_missing_input_exits_nonzero(tmp_path, capsys):
    code = main(["train-clf", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dataset = a.csv\nqueries = q.csv\nmystery = 7\n")
    code = main(["campaign", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "mystery" in capsys.readouterr().err


def test_query_text_validation(tmp_path, capsys):
    code = main(
        [
            "run",
            "--query", "AB?DE",  # B is not a residue token
            "--prior", "x", "--classifier", "y", "--acp", "z",
            "--out", str(tmp_path / "r.csv"),
        ]
    )
    assert code == 1


def _defaults(fn):
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


def test_parser_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    gen_data = parse(["gen-data", "--out", "d.csv"])
    assert gen_data.noise_rate == _defaults(make_dataset)["noise_rate"]

    gen_queries = parse(["gen-queries", "--out", "q.csv"])
    query_defaults = _defaults(make_queries)
    assert tuple(gen_queries.lengths) == tuple(query_defaults["lengths"])
    assert gen_queries.max_masked == query_defaults["max_masked"]

    pretrain = parse(["pretrain", "--data", "d.csv", "--out", "p.json"])
    pretrain_defaults = _defaults(pretrain_prior)
    assert pretrain.epochs == pretrain_defaults["epochs"] == CampaignConfig.pretrain_epochs
    assert pretrain.learning_rate == pretrain_defaults["learning_rate"] == CampaignConfig.pretrain_learning_rate
    assert pretrain.gate_samples == pretrain_defaults["gate_samples"]
    assert pretrain.corpus_size == DEFAULT_PRETRAIN_CORPUS_SIZE == CampaignConfig.pretrain_corpus_size

    calibrate = parse(["calibrate", "--data", "d.csv", "--out", "a.json"])
    assert calibrate.k == _defaults(build_acp)["k"] == CampaignConfig.acp_k
    assert calibrate.n_rounds == ClassifierConfig.n_rounds == CampaignConfig.clf_rounds
