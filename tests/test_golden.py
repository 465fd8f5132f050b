"""Golden outputs: SHA-256 hashes of every file a fixed-seed tiny run writes.

Criterion 8 only checks that two runs of the same code agree. This test checks
that the code still writes the bytes it wrote when the hashes below were
recorded, so a refactor that silently changes a number fails here. The hashes
change only with a change that alters outputs on purpose, and CHANGES.md says
why.

Covered: the tiny classifier, ACP and prior artifacts (the prior is pretrained
in minibatches through ``Policy.nll_and_backward``), the dataset and query
CSVs, every file of the
criterion-8 campaign, the ACP and metrics CSV of a small ``cpseq
calibrate``, the classifier of a small ``cpseq train-clf`` and the metrics CSV
of a short ``cpseq run`` on the tiny artifacts; and the raw float64 bytes of
the tiny classifier's margins and the tiny ACP's p-values on the tiny test
split. ``test_built_artifacts_match_golden_hashes`` covers the build path:
every file of a campaign whose config names no ``prior``, ``classifier`` or
``acp``, so it builds all three, and the priors of two ``cpseq pretrain`` runs,
one gated on ``--gate-queries`` and one on masked test sequences.
"""

from __future__ import annotations

import hashlib

from cpseq.cli import main
from cpseq.conformal import save_acp
from cpseq.domain import fingerprints, make_dataset, make_queries, write_dataset_csv, write_queries_csv
from cpseq.harness import parse_campaign_config, run_campaign


def _assert_golden(root, golden):
    """Every file under ``root`` but the configs has the SHA-256 ``golden`` gives its relative path."""
    got = {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.suffix != ".cfg"
    }
    differ = sorted(name for name in set(golden) | set(got) if golden.get(name) != got.get(name))
    assert not differ, f"outputs differ from the golden hashes: {differ}\n{got}"


GOLDEN = {
    "acp.json": "646a3b20cfb8d55a198548ea17f074100c6f7facb16fae1e086a312426fdb1ef",
    "cal/acp.json": "dbbc6ca07373e18718b925c769f0330837fdbeccbe56d6e883cf2f21df5e877b",
    "cal/acp.metrics.csv": "0bf7eaefd85871fe79625c5a8b8602050278f3c0353db450223eba055326ebf5",
    "clf.json": "236ba47b2d86823a3abcc8d3248e95347e90420ce1e7f878ce8a89ce410a6d71",
    "data.csv": "027acee8efb547b4330c935f7e76958fe5f6dc8c2ad6dfa8e3817b8b9acb814c",
    "out/runs/q000_cp_soft.csv": "d0c714e85fc080cc701fd1a37c2b26590b4140aae1f4a1073ed889dd625ee14b",
    "out/runs/q000_cp_soft.json": "bbbab87d4f0d04572cf3f203b60d54093ffb054985c8c4855994cbe4e995dddf",
    "out/runs/q000_rm_p1.csv": "3413a77dba3421d4575679e580238ca343d2852050f5a4afb730a6667be9e172",
    "out/runs/q000_rm_p1.json": "10a3bd7e4bdf092f66843c246633cb4d1d4bf88f72cd3ad70628cdd04fd38e0e",
    "out/runs/q001_cp_soft.csv": "e8d760341688008a195267581d17b3771d801dd1b42d1afba7f5ca8f3ced922b",
    "out/runs/q001_cp_soft.json": "f3344275a8217e75fb619e5075936d52be360690db2ad3bbbfaa17930108c3cb",
    "out/runs/q001_rm_p1.csv": "d6dfa89c6d2c6496f8e5d87763d6b40eb3e62fd3af9cdf742589aabaf20b6690",
    "out/runs/q001_rm_p1.json": "99b90c4feed394160046b80120ba406f28e75273211b285b0f487f035a7f46c2",
    "out/summary.csv": "856577492a3a8abfe0631506e5f062fb9f996ccc619c89105a9afd75277382aa",
    "out/summary_by_length.csv": "670d8cb2df806a3e12fcc7172e02d6c592bffb667bcffc3990d377c0c424b6b6",
    "out/wilcoxon.csv": "e74b6d9b3fcca15403b0f155ad38df7e1733cf8738185a49511929f81ac0d534",
    "prior.json": "65371e6403619aba68f906560179715544577519ea5f5cffc560ab5063d7fd8c",
    "queries.csv": "97d593c9ea5f396ac242ae4b66da19295531960e82d8a19c210368c648dc5eb4",
    "run/run.csv": "8ec25bbf14ac9a01e594e13d74ca02ba62b9eaf2b65ef5617c1a60b024ffa5aa",
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

    _assert_golden(tmp_path, GOLDEN)


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


BUILD_GOLDEN = {
    "data.csv": "027acee8efb547b4330c935f7e76958fe5f6dc8c2ad6dfa8e3817b8b9acb814c",
    "gate_queries/prior.json": "a2b67c890a60cc3203e40c37c31a11e3f8e03b72d0e15c06a153a2b44e251ce2",
    "out/runs/q000_cp_soft.csv": "01edf9b100bd72f2fdd5970d9d122461eff426bd32d48b962838ff1b8d1f453b",
    "out/runs/q000_cp_soft.json": "bbc635e2f485a66cd5e29425abc4c12c9f33a5fb7962affb499f19d78418abb8",
    "out/runs/q000_rm_p1.csv": "5c5ff865535f8ff75e9f0c7fd2f9a0bdb14c7a17b16aa562ff2bc3935c477b72",
    "out/runs/q000_rm_p1.json": "232678c3cdad777cdae30f788b50fb158c10a52cc6d48b0f6b15a585e2300ffc",
    "out/runs/q001_cp_soft.csv": "fd30834352394b5baf635d4f520e0528b9862f4c4f57ba6aa664e747db0f9eff",
    "out/runs/q001_cp_soft.json": "c211f7a38a8be2a92f637b26f122b9ae3b7edc96731135c93f3832c227a0be5e",
    "out/runs/q001_rm_p1.csv": "b7df5005700ff2e1fe4573dbfb29ff5f3810458f0a01308cc3d205ed3aafb4a3",
    "out/runs/q001_rm_p1.json": "ba3db68cd35c5714782e183ed4d3d65904a41fc7414245f6073a599132fd4060",
    "out/summary.csv": "fdb52eb652a7521f1008950957ea2de689c122a9f869a5712e80ddcb1f523ced",
    "out/summary_by_length.csv": "f0027b4033b86e6e4310d8ddd9178a19c656ce000c95cff38c0259fbf87e7cba",
    "out/wilcoxon.csv": "e74b6d9b3fcca15403b0f155ad38df7e1733cf8738185a49511929f81ac0d534",
    "queries.csv": "97d593c9ea5f396ac242ae4b66da19295531960e82d8a19c210368c648dc5eb4",
    "test_gate/prior.json": "7668068988d70dfb13d695c715e50da87c56bf0bf2443cf7aab0f548ebd77f0f",
}


def test_built_artifacts_match_golden_hashes(tmp_path):
    write_dataset_csv(make_dataset(400, seed=3), tmp_path / "data.csv")
    write_queries_csv(make_queries(2, seed=5), tmp_path / "queries.csv")
    (tmp_path / "c.cfg").write_text(
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
    run_campaign(parse_campaign_config(tmp_path / "c.cfg"), tmp_path / "out")
    pretrain = ["pretrain", "--data", str(tmp_path / "data.csv"), "--corpus-size", "150", "--epochs", "30"]
    pretrain += ["--learning-rate", "0.003", "--gate-samples", "200"]
    (tmp_path / "gate_queries").mkdir()
    gate = ["--gate-queries", str(tmp_path / "queries.csv"), "--seed", "0"]
    assert main(pretrain + gate + ["--out", str(tmp_path / "gate_queries" / "prior.json")]) == 0
    (tmp_path / "test_gate").mkdir()
    assert main(pretrain + ["--seed", "4", "--out", str(tmp_path / "test_gate" / "prior.json")]) == 0

    _assert_golden(tmp_path, BUILD_GOLDEN)
