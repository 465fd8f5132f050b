"""Golden outputs: SHA-256 hashes of every file a fixed-seed tiny run writes.

Criterion 8 only checks that two runs of the same code agree. This test checks
that the code still writes the bytes it wrote when the hashes below were
recorded, so a refactor that silently changes a number fails here. The hashes
change only with a change that alters outputs on purpose, and CHANGES.md says
why.

Covered: the tiny classifier, ACP and prior artifacts (the prior is pretrained
in minibatches through ``Policy.nll_and_grad_batch``), the dataset and query
CSVs, every file of the
criterion-8 campaign, the ACP and metrics CSV of a small ``cpseq
calibrate``, the classifier of a small ``cpseq train-clf`` and the metrics CSV
of a short ``cpseq run`` on the tiny artifacts; and the raw float64 bytes of
the tiny classifier's margins and the tiny ACP's p-values on the tiny test
split.
"""

from __future__ import annotations

import hashlib

from cpseq.cli import main
from cpseq.conformal import save_acp
from cpseq.domain import fingerprints, make_dataset, make_queries, write_dataset_csv, write_queries_csv
from cpseq.harness import parse_campaign_config, run_campaign

GOLDEN = {
    "acp.json": "646a3b20cfb8d55a198548ea17f074100c6f7facb16fae1e086a312426fdb1ef",
    "cal/acp.json": "dbbc6ca07373e18718b925c769f0330837fdbeccbe56d6e883cf2f21df5e877b",
    "cal/acp.metrics.csv": "0bf7eaefd85871fe79625c5a8b8602050278f3c0353db450223eba055326ebf5",
    "clf.json": "236ba47b2d86823a3abcc8d3248e95347e90420ce1e7f878ce8a89ce410a6d71",
    "data.csv": "027acee8efb547b4330c935f7e76958fe5f6dc8c2ad6dfa8e3817b8b9acb814c",
    "out/runs/q000_cp_soft.csv": "81907326e22e4752e2c38ad2423274de633d86a07acaeccae52ebbda157627cf",
    "out/runs/q000_cp_soft.json": "c22c58aed7b809b8f826656695532c8d7ceb60a0bd8caafeff01310792588995",
    "out/runs/q000_rm_p1.csv": "606872c40b8440ebad160bb39ab83ace768d36c9c39b3cd9a75b5cdca222fea5",
    "out/runs/q000_rm_p1.json": "3fe6d52d6446626d2295541e8154825b52411f5b100bfabfdc961eedbf0e3bcf",
    "out/runs/q001_cp_soft.csv": "5f33afb9047b20227f84bf2658c57ac4dd542a7e5840aaf3a0296cea90f62b4b",
    "out/runs/q001_cp_soft.json": "22717c818fbbc52f943aa30866591148dd5da800a08a76d03fc1203e1f0f816d",
    "out/runs/q001_rm_p1.csv": "0698f4ab19a1e45927280e3296fe54a113b7bee437361a0dde2c0dc6e889ed8d",
    "out/runs/q001_rm_p1.json": "d3e485ac9da1a06e339ac9266fbcb3f52a62a2fea6cbb438439b528cc2373d01",
    "out/summary.csv": "0b5248afb3f28e32629d4632702e03b0afd96058de638dde9dae41c4828fc86b",
    "out/summary_by_length.csv": "8bba7f41d1893fcf00138ee98de03d6ebe3d9ad3ed3c3459934674b5c3ceedc1",
    "out/wilcoxon.csv": "e74b6d9b3fcca15403b0f155ad38df7e1733cf8738185a49511929f81ac0d534",
    "prior.json": "905757707045c3b1db2b76875dc51de5d9a7507144f239902b1aaf53d9ebaf38",
    "queries.csv": "97d593c9ea5f396ac242ae4b66da19295531960e82d8a19c210368c648dc5eb4",
    "run/run.csv": "5731088797791342d83deb1126049e3433b33d36b05684fe20e482b4f49569e3",
    "train/clf.json": "497935a8f0204536b01da4bb712d01095706a75409c52284f1d13fe356f0023d",
}


def test_outputs_match_golden_hashes(tmp_path, tiny_models, tiny_prior):
    clf, acp = tiny_models
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
    run_campaign(parse_campaign_config(tmp_path / "c.cfg"), tmp_path / "out")
    (tmp_path / "cal").mkdir()
    calibrate = ["calibrate", "--data", str(tmp_path / "data.csv"), "--k", "2", "--rounds", "25"]
    assert main(calibrate + ["--seed", "2", "--out", str(tmp_path / "cal" / "acp.json")]) == 0
    (tmp_path / "train").mkdir()
    train = ["train-clf", "--data", str(tmp_path / "data.csv"), "--rounds", "25", "--seed", "4"]
    assert main(train + ["--out", str(tmp_path / "train" / "clf.json")]) == 0
    (tmp_path / "run").mkdir()
    run = ["run", "--query", "AC?DE?G", "--steps", "5", "--batch-size", "8", "--seed", "7"]
    run += ["--prior", str(tmp_path / "prior.json"), "--classifier", str(tmp_path / "clf.json")]
    assert main(run + ["--acp", str(tmp_path / "acp.json"), "--out", str(tmp_path / "run" / "run.csv")]) == 0

    got = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.suffix != ".cfg"
    }
    differ = sorted(name for name in set(GOLDEN) | set(got) if GOLDEN.get(name) != got.get(name))
    assert not differ, f"outputs differ from the golden hashes: {differ}\n{got}"


PREDICTIONS_GOLDEN = {
    "classifier margins": "9b8f691b57f25e4fab2eaaa4b647ff1673c42b73ef928b5881424e837d596609",
    "acp p0 then p1": "4a2cb8c0aabf08b2fd84c5d71ad82a8a898ad2e9c539a7f083f759a5cf3a8562",
}


def test_predictions_match_golden_hashes(tiny_dataset, tiny_models):
    clf, acp = tiny_models
    X = fingerprints(tiny_dataset.subset("test")[0])
    p0, p1 = acp.p_values_batch(X)
    got = {
        "classifier margins": hashlib.sha256(clf.predict_margin(X).tobytes()).hexdigest(),
        "acp p0 then p1": hashlib.sha256(p0.tobytes() + p1.tobytes()).hexdigest(),
    }
    assert got == PREDICTIONS_GOLDEN
