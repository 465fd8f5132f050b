"""Golden outputs: SHA-256 hashes of every file a fixed-seed tiny run writes.

Criterion 8 only checks that two runs of the same code agree. This test checks
that the code still writes the bytes it wrote when the hashes below were
recorded, so a refactor that silently changes a number fails here. The hashes
change only with a change that alters outputs on purpose, and CHANGES.md says
why.

Covered: the tiny classifier, ACP and prior artifacts (the prior is pretrained
with ``Policy.nll_and_grad``), the dataset and query CSVs, every file of the
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
    "acp.json": "5a6ffc8fc614b12c4aa282fee0201b847e04511dfe78260c14523249aecda5eb",
    "cal/acp.json": "f92494d5f9f691fa6297bab1b368c90fd71e2d2005585d924a777a486b9f457c",
    "cal/acp.metrics.csv": "0bf7eaefd85871fe79625c5a8b8602050278f3c0353db450223eba055326ebf5",
    "clf.json": "71379a9797478ea83ec3cc50eac72f72845a82254cc9e2156b4d3b4ec82a47be",
    "data.csv": "027acee8efb547b4330c935f7e76958fe5f6dc8c2ad6dfa8e3817b8b9acb814c",
    "out/runs/q000_cp_soft.csv": "a4d20c5fb51e3a3413c675bbd353b93e52bd8c6c72fc342231e704c0bd842f50",
    "out/runs/q000_cp_soft.json": "c22c58aed7b809b8f826656695532c8d7ceb60a0bd8caafeff01310792588995",
    "out/runs/q000_rm_p1.csv": "4e544f246fa7b1db59a28dda23239d368cd5815cd56f81723ee5b26d0358eeb8",
    "out/runs/q000_rm_p1.json": "3fe6d52d6446626d2295541e8154825b52411f5b100bfabfdc961eedbf0e3bcf",
    "out/runs/q001_cp_soft.csv": "3891279e6dbd3b74f2b95e06bf3a4d7987f26b6a4cf53d7eba2a68aeaf1a5f65",
    "out/runs/q001_cp_soft.json": "22717c818fbbc52f943aa30866591148dd5da800a08a76d03fc1203e1f0f816d",
    "out/runs/q001_rm_p1.csv": "811febb98af63e7d45c456a0574e371a4a97e3fad928e1599f23b3aca8309ce3",
    "out/runs/q001_rm_p1.json": "d3e485ac9da1a06e339ac9266fbcb3f52a62a2fea6cbb438439b528cc2373d01",
    "out/summary.csv": "0b5248afb3f28e32629d4632702e03b0afd96058de638dde9dae41c4828fc86b",
    "out/summary_by_length.csv": "8bba7f41d1893fcf00138ee98de03d6ebe3d9ad3ed3c3459934674b5c3ceedc1",
    "out/wilcoxon.csv": "e74b6d9b3fcca15403b0f155ad38df7e1733cf8738185a49511929f81ac0d534",
    "prior.json": "6e20116bf63734f2a44f6ed447b6c16bdcb411803fee904ee43b72ecc3b8f1b8",
    "queries.csv": "97d593c9ea5f396ac242ae4b66da19295531960e82d8a19c210368c648dc5eb4",
    "run/run.csv": "c8611516f50224f9c4ce31e682d80e8d4f7c47963d8ac16c95fe7dbf65f67913",
    "train/clf.json": "0e04bf25a4d813c46ca4838c7856d3d1ac246e0df2455fcf68a1220449775a1d",
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
