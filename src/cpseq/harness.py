"""Campaign orchestration: multi-query runs across scoring kinds, hit
counting, signed-rank comparisons against the raw-model baseline, convergence
detection, and length-stratified summaries.

Outputs are plain CSV files. Every run writes a per-step metrics CSV plus a
small JSON sidecar carrying the cumulative unique counts, so the report
command can rebuild every summary from the run outputs alone.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence, get_args, get_type_hints

import numpy as np

from .boosting import BoostedTreeClassifier, ClassifierConfig
from .conformal import DEFAULT_ICP_COUNT, DEFAULT_SIGNIFICANCE, Acp, build_acp, load_acp
from .domain import LabeledDataset, fingerprints, read_dataset_csv, read_queries_csv
from .policy import (
    DEFAULT_GATE_SAMPLES,
    DEFAULT_PRETRAIN_CORPUS_SIZE,
    DEFAULT_PRETRAIN_EPOCHS,
    DEFAULT_PRETRAIN_LEARNING_RATE,
    Policy,
    PretrainResult,
    build_pretrain_corpus,
    check_pretrain_settings,
    pretrain_prior,
)
from .rl import RLConfig, SequenceScorer, StepMetrics, run_rl
from .scoring import SCORING_KINDS
from .tables import json_field, read_json, read_table, write_table

BASELINE_KIND = "rm_p1"
_KIND_CODE = {kind: i for i, kind in enumerate(SCORING_KINDS)}


# -- signed-rank test ---------------------------------------------------------


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _count_sums_at_most(double_ranks: Iterable[int], limit: int) -> int:
    """Number of sign assignments whose positive-rank sum (doubled) is <= limit."""
    double_ranks = [int(r) for r in double_ranks]
    total = sum(double_ranks)
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in double_ranks:
        counts[r:] = counts[r:] + counts[: total - r + 1]
    return int(counts[: limit + 1].sum())


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired signed-rank test; returns (W, p).

    Zero differences are dropped and ties mid-ranked. For n <= 20 the p-value
    is exact over all 2^n sign assignments of the observed ranks; beyond that
    a normal approximation with tie correction is used. W is min(W+, W-).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("samples must be paired with equal length")
    d = a - b
    d = d[d != 0]
    n = len(d)
    if n == 0:
        raise ValueError("all paired differences are zero")
    if n < 5:
        raise ValueError("need at least 5 nonzero paired differences")
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if n <= 20:
        double_ranks = np.rint(2.0 * ranks).astype(np.int64)
        limit = int(round(2.0 * w))
        p = min(1.0, 2.0 * _count_sums_at_most(double_ranks, limit) / 2.0**n)
    else:
        mu = n * (n + 1) / 4.0
        sigma2 = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(np.abs(d), return_counts=True)
        sigma2 -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
        z = (w_plus - mu) / math.sqrt(sigma2)
        p = math.erfc(abs(z) / math.sqrt(2.0))
    return w, p


# -- convergence and stratification -------------------------------------------


def steps_to_threshold(steps: Sequence[StepMetrics], threshold: float = 0.5) -> int | None:
    """First step whose confident-hit fraction reaches the threshold, if any.

    Only steps with at least one valid sample count, so a zero threshold finds
    the first valid batch rather than trivially returning the first step.
    """
    for m in steps:
        if m.n_valid > 0 and m.frac_conf_eff >= threshold:
            return m.step
    return None


@dataclass(frozen=True)
class RunSummary:
    query_id: int
    length: int
    scoring_fn: str
    n_unique_valid: int | None
    n_conf_eff: int | None
    steps_to_half: int | None
    status: str  # "ok" | "error"


@dataclass(frozen=True)
class LengthSummary:
    length: int
    scoring_fn: str
    n_runs: int
    n_ok: int
    median_unique_valid: float | None
    median_conf_eff: float | None
    n_reached_half: int
    median_steps_to_half: float | None


def stratify_by_length(rows: Sequence[RunSummary]) -> list[LengthSummary]:
    """Group run summaries by query length (and kind), medians over ok runs."""
    groups: dict[tuple[int, str], list[RunSummary]] = {}
    for row in rows:
        groups.setdefault((row.length, row.scoring_fn), []).append(row)
    out = []
    for (length, kind), members in sorted(groups.items()):
        ok = [r for r in members if r.status == "ok"]
        reached = [r.steps_to_half for r in ok if r.steps_to_half is not None]
        out.append(
            LengthSummary(
                length=length,
                scoring_fn=kind,
                n_runs=len(members),
                n_ok=len(ok),
                median_unique_valid=statistics.median(r.n_unique_valid for r in ok) if ok else None,
                median_conf_eff=statistics.median(r.n_conf_eff for r in ok) if ok else None,
                n_reached_half=len(reached),
                median_steps_to_half=statistics.median(reached) if reached else None,
            )
        )
    return out


@dataclass(frozen=True)
class WilcoxonRow:
    metric: str
    scoring_fn: str
    n_pairs: int
    statistic: float | None
    p_value: float | None
    status: str  # "ok" | "degenerate" | "no_baseline"


def wilcoxon_vs_baseline(rows: Sequence[RunSummary]) -> list[WilcoxonRow]:
    """Pair each CP scoring kind against the raw-model baseline per query."""
    by_kind: dict[str, dict[int, RunSummary]] = {}
    for row in rows:
        if row.status == "ok":
            by_kind.setdefault(row.scoring_fn, {})[row.query_id] = row
    kinds = sorted(set(r.scoring_fn for r in rows) - {BASELINE_KIND}, key=_KIND_CODE.get)
    baseline = by_kind.get(BASELINE_KIND, {})
    out = []
    for metric in ("n_unique_valid", "n_conf_eff"):
        for kind in kinds:
            paired_ids = sorted(set(baseline) & set(by_kind.get(kind, {})))
            a = [getattr(by_kind[kind][qid], metric) for qid in paired_ids]
            b = [getattr(baseline[qid], metric) for qid in paired_ids]
            if not baseline:
                out.append(WilcoxonRow(metric, kind, 0, None, None, "no_baseline"))
                continue
            try:
                stat, p = wilcoxon_signed_rank(a, b)
                out.append(WilcoxonRow(metric, kind, len(paired_ids), stat, p, "ok"))
            except ValueError:
                out.append(WilcoxonRow(metric, kind, len(paired_ids), None, None, "degenerate"))
    return out


# -- campaign configuration ----------------------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    dataset: Path
    queries: Path
    scoring: tuple[str, ...] = SCORING_KINDS
    steps: int = RLConfig.steps
    batch_size: int = RLConfig.batch_size
    sigma: float = RLConfig.sigma
    significance: float = DEFAULT_SIGNIFICANCE
    rl_learning_rate: float = RLConfig.learning_rate
    seed: int = 0
    prior: Path | None = None
    classifier: Path | None = None
    acp: Path | None = None
    acp_k: int = DEFAULT_ICP_COUNT
    clf_rounds: int = ClassifierConfig.n_rounds
    clf_learning_rate: float = ClassifierConfig.learning_rate
    clf_depth: int = ClassifierConfig.max_depth
    clf_subsample: float = ClassifierConfig.subsample
    pretrain_epochs: int = DEFAULT_PRETRAIN_EPOCHS
    pretrain_learning_rate: float = DEFAULT_PRETRAIN_LEARNING_RATE
    pretrain_corpus_size: int = DEFAULT_PRETRAIN_CORPUS_SIZE

    def __post_init__(self):
        if not self.scoring:
            raise ValueError("need at least one scoring kind")
        for kind in self.scoring:
            if kind not in SCORING_KINDS:
                raise ValueError(f"unknown scoring kind {kind!r}")
        # a bad run or build setting fails here, before any build
        self.run_settings()
        self.classifier_settings()
        if self.acp_k < 1:
            raise ValueError("acp_k must be >= 1")
        check_pretrain_settings(self.pretrain_epochs, self.pretrain_learning_rate)
        if self.pretrain_corpus_size < 1:
            raise ValueError("pretrain_corpus_size must be >= 1")

    def classifier_settings(self) -> ClassifierConfig:
        """The classifier settings of the built classifier and, re-seeded per ICP by ``build_acp``, of the ACP."""
        return ClassifierConfig(
            n_rounds=self.clf_rounds,
            learning_rate=self.clf_learning_rate,
            max_depth=self.clf_depth,
            subsample=self.clf_subsample,
            seed=_derived_seed(self.seed, 9001),
        )

    def run_settings(self) -> RLConfig:
        """The settings every cell shares; a cell replaces the scoring kind and the seed."""
        return RLConfig(
            scoring=self.scoring[0],
            sigma=self.sigma,
            batch_size=self.batch_size,
            steps=self.steps,
            significance=self.significance,
            learning_rate=self.rl_learning_rate,
            seed=self.seed,
        )


def _config_value(hint, text: str, base: Path):
    """A config value of the field type ``hint``: comma lists split, paths resolve against ``base``."""
    if hint == tuple[str, ...]:
        return tuple(k.strip() for k in text.split(",") if k.strip())
    if Path in (hint, *get_args(hint)):
        return base / text
    return hint(text)


def parse_campaign_config(path: str | Path) -> CampaignConfig:
    """Parse the flat ``key = value`` campaign config file.

    Each key is a :class:`CampaignConfig` field and is read as that field's
    type. Blank lines and ``#`` comments are ignored; relative paths resolve
    against the config file's directory. An unknown or repeated key, or a value
    the config rejects, raises ValueError naming the file and the line.
    """
    path = Path(path)
    hints = get_type_hints(CampaignConfig)
    values: dict[str, object] = {}
    linenos: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in hints:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: repeated config key {key!r}")
        try:
            values[key] = _config_value(hints[key], value.strip(), path.parent)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: key {key!r}: {err}") from None
        linenos[key] = lineno
    for required in ("dataset", "queries"):
        if required not in values:
            raise ValueError(f"config {path} is missing required key {required!r}")
    for key, lineno in linenos.items():  # each value on its own, so a rejected one names its line
        try:
            CampaignConfig(**{"dataset": values["dataset"], "queries": values["queries"], key: values[key]})
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: key {key!r}: {err}") from None
    return CampaignConfig(**values)  # type: ignore[arg-type]


# -- campaign execution ----------------------------------------------------------


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def run_seed_for(base_seed: int, query_id: int, kind: str) -> int:
    return _derived_seed(base_seed, query_id, _KIND_CODE[kind])


@dataclass
class CampaignArtifacts:
    prior: Policy
    classifier: BoostedTreeClassifier
    acp: Acp


def build_classifier(dataset: LabeledDataset, config: ClassifierConfig) -> BoostedTreeClassifier:
    """The classifier fitted on the fingerprints of the dataset's train split."""
    train_seqs, train_labels = dataset.subset("train")
    return BoostedTreeClassifier(config).fit(fingerprints(train_seqs), train_labels)


def build_conformal_predictor(dataset: LabeledDataset, k: int, config: ClassifierConfig, seed: int) -> Acp:
    """The ACP of ``k`` ICPs over the dataset's train split; ``seed`` picks the bootstraps, as ICPs are re-seeded."""
    train_seqs, train_labels = dataset.subset("train")
    return build_acp(fingerprints(train_seqs), train_labels, k=k, config=config, seed=seed)


def build_prior(dataset: LabeledDataset, corpus_size: int, corpus_seed: int, **settings) -> PretrainResult:
    """:func:`pretrain_prior` with ``settings`` on the first ``corpus_size`` train sequences masked with
    ``corpus_seed``; raises ValueError when ``corpus_size`` is below 1."""
    if corpus_size < 1:
        raise ValueError("corpus_size must be >= 1")
    train_seqs, _ = dataset.subset("train")
    return pretrain_prior(build_pretrain_corpus(train_seqs[:corpus_size], seed=corpus_seed), **settings)


def build_campaign_artifacts(config: CampaignConfig) -> CampaignArtifacts:
    """Load the prior/classifier/ACP artifacts, building any that lack a path."""
    dataset = read_dataset_csv(config.dataset)
    clf_config = config.classifier_settings()
    if config.classifier is not None:
        classifier = BoostedTreeClassifier.load(config.classifier)
    else:
        classifier = build_classifier(dataset, clf_config)

    if config.acp is not None:
        acp = load_acp(config.acp)
    else:
        acp = build_conformal_predictor(dataset, config.acp_k, clf_config, _derived_seed(config.seed, 9002))

    if config.prior is not None:
        prior = Policy.load(config.prior)
    else:
        prior = build_prior(
            dataset, config.pretrain_corpus_size, _derived_seed(config.seed, 9003),
            epochs=config.pretrain_epochs,
            learning_rate=config.pretrain_learning_rate,
            seed=_derived_seed(config.seed, 9004),
            gate_queries=read_queries_csv(config.queries),
            gate_samples=DEFAULT_GATE_SAMPLES,
        ).policy
    return CampaignArtifacts(prior=prior, classifier=classifier, acp=acp)


@dataclass
class CampaignResult:
    rows: list[RunSummary]
    wilcoxon: list[WilcoxonRow]
    out_dir: Path


def _run_name(query_id: int, kind: str) -> str:
    return f"q{query_id:03d}_{kind}"


def _write_whole(path: Path, write: Callable[[Path], object]) -> None:
    """``write`` a temporary file beside ``path``, then rename it to ``path``, so ``path`` is whole or absent."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def run_campaign(
    config: CampaignConfig,
    out_dir: str | Path,
    artifacts: CampaignArtifacts | None = None,
) -> CampaignResult:
    """Execute every (query x scoring kind) run and write all output files.

    Each run's CSV and sidecar are written whole or not at all (see :func:`_write_whole`),
    and its summary row is read back from them as :func:`regenerate_report` reads it.
    A failing run is recorded with status ``error`` and excluded from the
    aggregates; it never aborts the campaign. Its sidecar keeps the error and
    its traceback, and one line naming the run goes to stderr. Nothing is
    written when the models cannot score fingerprints (see ``SequenceScorer``).
    """
    queries = read_queries_csv(config.queries)
    if not queries:
        raise ValueError("query file contains no templates")
    if artifacts is None:
        artifacts = build_campaign_artifacts(config)
    base = config.run_settings()
    scorer = SequenceScorer(base.scoring, artifacts.classifier, artifacts.acp, base.significance)
    scorers = {kind: scorer.for_kind(kind) for kind in config.scoring}  # one memo: each sequence is evaluated once
    out = Path(out_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    rows: list[RunSummary] = []
    for query_id, query in enumerate(queries):
        for kind in config.scoring:
            name = _run_name(query_id, kind)
            rl_config = replace(base, scoring=kind, seed=run_seed_for(config.seed, query_id, kind))
            sidecar: dict[str, object] = {
                "query_id": query_id,
                "length": query.length,
                "scoring_fn": kind,
            }
            try:
                record = run_rl(query, rl_config, artifacts.prior, scorers[kind])
                _write_whole(runs_dir / f"{name}.csv", record.write_csv)
                sidecar.update(status="ok", n_unique_valid=len(record.unique_valid),
                               n_conf_eff=len(record.conf_eff_unique))
            except Exception as err:  # per-run isolation
                error = f"{type(err).__name__}: {err}"
                sidecar.update(status="error", error=error, traceback=traceback.format_exc())
                print(f"cpseq campaign: run {name} failed: {error}", file=sys.stderr)
            _write_whole(runs_dir / f"{name}.json", lambda tmp: tmp.write_text(json.dumps(sidecar)))
            rows.append(_read_run_summary(runs_dir / f"{name}.json"))  # as the report reads it back
    return _write_summaries(rows, out)


# -- file output and report -----------------------------------------------------


def write_summary_csv(rows: Sequence[RunSummary], path: str | Path) -> None:
    write_table(path, RunSummary, rows)


def write_wilcoxon_csv(rows: Sequence[WilcoxonRow], path: str | Path) -> None:
    write_table(path, WilcoxonRow, rows)


def write_length_summary_csv(rows: Sequence[LengthSummary], path: str | Path) -> None:
    write_table(path, LengthSummary, rows)


def _write_summaries(rows: list[RunSummary], out: Path) -> CampaignResult:
    """Write summary.csv, wilcoxon.csv and summary_by_length.csv for the run rows, sorted by query and kind."""
    rows = sorted(rows, key=lambda r: (r.query_id, _KIND_CODE[r.scoring_fn]))
    wilcoxon_rows = wilcoxon_vs_baseline(rows)
    write_summary_csv(rows, out / "summary.csv")
    write_wilcoxon_csv(wilcoxon_rows, out / "wilcoxon.csv")
    write_length_summary_csv(stratify_by_length(rows), out / "summary_by_length.csv")
    return CampaignResult(rows=rows, wilcoxon=wilcoxon_rows, out_dir=out)


def _scoring_kind(value) -> str:
    if value not in _KIND_CODE:
        raise ValueError(f"{value!r} is not a scoring kind")
    return value


def _sidecar_summary(meta: dict) -> RunSummary:
    """A run sidecar's summary row, with ``steps_to_half`` left for the run's metrics CSV to give."""
    status = json_field(meta, "status", str)
    key = (json_field(meta, "query_id", int), json_field(meta, "length", int),
           json_field(meta, "scoring_fn", _scoring_kind))
    if status != "ok":
        return RunSummary(*key, None, None, None, "error")
    return RunSummary(*key, json_field(meta, "n_unique_valid", int), json_field(meta, "n_conf_eff", int), None, "ok")


def _read_run_summary(sidecar_path: Path) -> RunSummary:
    """A run's summary row from its sidecar and, for an ok run, its metrics CSV's steps to half."""
    row = read_json(sidecar_path, _sidecar_summary)
    if row.status != "ok":
        return row
    return replace(row, steps_to_half=steps_to_threshold(read_table(sidecar_path.with_suffix(".csv"), StepMetrics)))


def regenerate_report(runs_dir: str | Path, out_dir: str | Path) -> CampaignResult:
    """Rebuild summary/wilcoxon/length CSVs purely from per-run outputs.

    Convergence steps are recomputed from the per-step CSVs; the cumulative
    unique counts come from each run's JSON sidecar.
    """
    runs = Path(runs_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sidecars = sorted(runs.glob("q*_*.json"))
    if not sidecars:
        raise FileNotFoundError(f"no run sidecars found under {runs}")
    return _write_summaries([_read_run_summary(path) for path in sidecars], out)
