"""Command-line entry points: data/query generation, model training,
conformal calibration, single runs, campaigns, and report regeneration.

All randomness flows from explicit ``--seed`` arguments. Exit code 0 on
success; configuration or IO failures, and a model whose parameters stop being
finite, exit nonzero with a message on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import harness
from .boosting import BoostedTreeClassifier, ClassifierConfig, check_labels, missing_label
from .conformal import (
    DEFAULT_ICP_COUNT,
    DEFAULT_SIGNIFICANCE,
    PValuePair,
    check_significance,
    load_acp,
    predict_set,
    save_acp,
    validity_efficiency,
)
from .domain import (
    DEFAULT_NOISE_RATE,
    DEFAULT_QUERY_LENGTHS,
    MAX_MASKED,
    QueryTemplate,
    fingerprints,
    make_dataset,
    make_queries,
    read_dataset_csv,
    read_queries_csv,
    write_dataset_csv,
    write_queries_csv,
)
from .policy import (
    DEFAULT_GATE_SAMPLES,
    DEFAULT_PRETRAIN_CORPUS_SIZE,
    DEFAULT_PRETRAIN_EPOCHS,
    DEFAULT_PRETRAIN_LEARNING_RATE,
    Policy,
    build_pretrain_corpus,
)
from .rl import RLConfig, SequenceScorer, run_rl
from .scoring import SCORING_KINDS
from .tables import write_table


@dataclasses.dataclass(frozen=True)
class LabelMetrics:
    """One row of the calibration report: validity and efficiency for one true label."""

    label: int
    validity: float
    efficiency: float


def _config(cls, args):
    """A ``cls`` whose fields that have flags of the same names take the parsed values."""
    flags = vars(args)
    return cls(**{f.name: flags[f.name] for f in dataclasses.fields(cls) if f.name in flags})


def _cmd_gen_data(args) -> int:
    dataset = make_dataset(args.n, noise_rate=args.noise_rate, seed=args.seed)
    write_dataset_csv(dataset, args.out)
    n_train = sum(1 for s in dataset.splits if s == "train")
    print(f"wrote {len(dataset)} sequences ({n_train} train) to {args.out}")
    return 0


def _cmd_gen_queries(args) -> int:
    queries = make_queries(args.n, lengths=args.lengths, max_masked=args.max_masked, seed=args.seed)
    write_queries_csv(queries, args.out)
    print(f"wrote {len(queries)} query templates to {args.out}")
    return 0


def _cmd_pretrain(args) -> int:
    dataset = read_dataset_csv(args.data)
    if args.gate_queries is not None:
        gate_queries = read_queries_csv(args.gate_queries)
    else:
        test_seqs, _ = dataset.subset("test")
        gate_corpus = build_pretrain_corpus(test_seqs[:50], seed=args.seed + 1)
        gate_queries = [query for query, _ in gate_corpus]
    result = harness.build_prior(
        dataset, args.corpus_size, args.seed,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=args.seed,
        gate_queries=gate_queries,
        gate_samples=args.gate_samples,
    )
    result.policy.save(args.out)
    print(
        f"pretrained prior over {min(args.corpus_size, dataset.splits.count('train'))} examples: "
        f"mean NLL {result.epoch_nll[0]:.3f} -> {result.epoch_nll[-1]:.3f}, "
        f"fill-validity {result.gate_validity:.3f}; saved to {args.out}"
    )
    return 0


def _cmd_train_clf(args) -> int:
    dataset = read_dataset_csv(args.data)
    model = harness.build_classifier(dataset, _config(ClassifierConfig, args))
    model.save(args.out)
    test_seqs, test_labels = dataset.subset("test")
    missing = missing_label(test_labels)
    if test_seqs and missing is not None:  # balanced accuracy needs a row of each label
        print(f"test balanced accuracy undefined: the {len(test_seqs)} test sequences have no label {missing}")
    elif test_seqs:
        p1 = model.predict_proba(fingerprints(test_seqs))
        pred = (p1 >= 0.5).astype(int)
        tpr = float(np.mean(pred[test_labels == 1] == 1))
        tnr = float(np.mean(pred[test_labels == 0] == 0))
        print(f"test balanced accuracy {(tpr + tnr) / 2:.3f} over {len(test_seqs)} sequences")
    print(f"saved classifier to {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    dataset = read_dataset_csv(args.data)
    test_seqs, test_labels = dataset.subset("test")
    check_labels(test_labels)  # scored per label, so a split that lacks one is refused before the build
    check_significance(args.significance)
    acp = harness.build_conformal_predictor(dataset, args.k, _config(ClassifierConfig, args), args.seed)
    p0, p1 = acp.p_values_batch(fingerprints(test_seqs))
    sets = [predict_set(PValuePair(a, b), args.significance) for a, b in zip(p0, p1)]
    metrics = validity_efficiency(sets, test_labels.tolist())  # scored before saving, so a failure writes nothing
    metrics_path = Path(args.out).with_suffix(".metrics.csv")
    rows = [
        LabelMetrics(0, metrics.validity_0, metrics.efficiency_0),
        LabelMetrics(1, metrics.validity_1, metrics.efficiency_1),
    ]
    save_acp(acp, args.out)
    write_table(metrics_path, LabelMetrics, rows)
    print(
        f"ACP of {acp.k} ICPs saved to {args.out}; at significance {args.significance}: "
        f"validity {metrics.validity_0:.3f}/{metrics.validity_1:.3f}, "
        f"efficiency {metrics.efficiency_0:.3f}/{metrics.efficiency_1:.3f} "
        f"(labels 0/1; report in {metrics_path})"
    )
    return 0


def _cmd_run(args) -> int:
    if args.query is not None:
        query = QueryTemplate.from_text(args.query)
    else:
        queries = read_queries_csv(args.queries)
        if not 0 <= args.index < len(queries):
            raise ValueError(f"--index {args.index} is out of range: {args.queries} holds {len(queries)} queries")
        query = queries[args.index]
    prior = Policy.load(args.prior)
    classifier = BoostedTreeClassifier.load(args.classifier)
    acp = load_acp(args.acp)
    config = _config(RLConfig, args)
    scorer = SequenceScorer(args.scoring, classifier, acp, args.significance)
    record = run_rl(query, config, prior, scorer)
    record.write_csv(args.out)
    reached = harness.steps_to_threshold(record.steps)
    print(
        f"{config.steps} steps on {query.to_text()}: "
        f"{len(record.unique_valid)} unique valid, "
        f"{len(record.conf_eff_unique)} confident hits, "
        f"half-threshold at {reached if reached is not None else 'never'}; wrote {args.out}"
    )
    return 0


def _cmd_campaign(args) -> int:
    config = harness.parse_campaign_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)  # CLI seed wins
    result = harness.run_campaign(config, args.out)
    n_ok = sum(1 for r in result.rows if r.status == "ok")
    print(f"campaign finished: {n_ok}/{len(result.rows)} runs ok; outputs in {result.out_dir}")
    return 0


def _cmd_report(args) -> int:
    result = harness.regenerate_report(Path(args.dir) / "runs", args.out or args.dir)
    print(f"report regenerated for {len(result.rows)} runs into {result.out_dir}")
    return 0


def _add_classifier_flags(p: argparse.ArgumentParser) -> None:
    """The classifier settings train-clf and calibrate share; defaults are ClassifierConfig's."""
    p.add_argument("--rounds", dest="n_rounds", metavar="ROUNDS", type=int, default=ClassifierConfig.n_rounds)
    p.add_argument("--learning-rate", type=float, default=ClassifierConfig.learning_rate)
    p.add_argument("--depth", dest="max_depth", metavar="DEPTH", type=int, default=ClassifierConfig.max_depth)
    p.add_argument("--subsample", type=float, default=ClassifierConfig.subsample)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cpseq")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a labeled sequence dataset CSV")
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--noise-rate", type=float, default=DEFAULT_NOISE_RATE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("gen-queries", help="generate a query template CSV")
    p.add_argument("--n", type=int, default=150)
    p.add_argument("--lengths", type=int, nargs="+", default=list(DEFAULT_QUERY_LENGTHS))
    p.add_argument("--max-masked", type=int, default=MAX_MASKED)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_queries)

    p = sub.add_parser("pretrain", help="pretrain the prior policy on masked sequences")
    p.add_argument("--data", required=True)
    p.add_argument("--corpus-size", type=int, default=DEFAULT_PRETRAIN_CORPUS_SIZE)
    p.add_argument("--epochs", type=int, default=DEFAULT_PRETRAIN_EPOCHS)
    p.add_argument("--learning-rate", type=float, default=DEFAULT_PRETRAIN_LEARNING_RATE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gate-queries", default=None)
    p.add_argument("--gate-samples", type=int, default=DEFAULT_GATE_SAMPLES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("train-clf", help="fit the boosted-tree classifier")
    p.add_argument("--data", required=True)
    _add_classifier_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_clf)

    p = sub.add_parser("calibrate", help="build an aggregated conformal predictor")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=DEFAULT_ICP_COUNT)
    _add_classifier_flags(p)
    p.add_argument("--significance", type=float, default=DEFAULT_SIGNIFICANCE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("run", help="one reinforcement run on one query")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="template text, e.g. AC?DE?G")
    group.add_argument("--queries", help="query CSV (with --index)")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--prior", required=True)
    p.add_argument("--classifier", required=True)
    p.add_argument("--acp", required=True)
    p.add_argument("--scoring", choices=SCORING_KINDS, default=RLConfig.scoring)
    p.add_argument("--sigma", type=float, default=RLConfig.sigma)
    p.add_argument("--batch-size", type=int, default=RLConfig.batch_size)
    p.add_argument("--steps", type=int, default=RLConfig.steps)
    p.add_argument("--significance", type=float, default=RLConfig.significance)
    p.add_argument("--learning-rate", type=float, default=RLConfig.learning_rate)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("campaign", help="run every (query x scoring kind) cell")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("report", help="rebuild summaries from per-run outputs")
    p.add_argument("--dir", required=True, help="campaign output directory")
    p.add_argument("--out", default=None, help="write summaries here instead")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
