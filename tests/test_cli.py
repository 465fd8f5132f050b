import inspect
import json

import pytest

from cpseq.boosting import ClassifierConfig
from cpseq.cli import build_parser, main
from cpseq.conformal import build_acp
from cpseq.domain import make_dataset, make_queries, read_dataset_csv, read_queries_csv
from cpseq.harness import CampaignConfig
from cpseq.policy import DEFAULT_PRETRAIN_CORPUS_SIZE, pretrain_prior


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
    config = tmp_path / "c.cfg"
    config.write_text(
        f"dataset = {workdir / 'data.csv'}\n"
        f"queries = {workdir / 'queries.csv'}\n"
        f"prior = {workdir / 'prior.json'}\n"
        f"classifier = {workdir / 'clf.json'}\n"
        f"acp = {workdir / 'acp.json'}\n"
        "scoring = rm_p1, cp_soft\n"
        "steps = 8\n"
        "batch_size = 8\n"
        "seed = 6\n"
    )
    out = tmp_path / "out"
    assert main(["campaign", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    assert main(["report", "--dir", str(out), "--out", str(tmp_path / "rep")]) == 0
    assert (tmp_path / "rep" / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()


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
    assert calibrate.rounds == ClassifierConfig.n_rounds == CampaignConfig.clf_rounds
