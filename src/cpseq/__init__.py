"""Conformal-prediction-guided reinforcement learning for masked token-sequence design."""

from .boosting import BoostedTreeClassifier, ClassifierConfig
from .conformal import (
    Acp,
    ConformalMetrics,
    Icp,
    PredictionSet,
    PValuePair,
    build_acp,
    calibrate_icp,
    is_confident_positive,
    nonconformity,
    predict_set,
    validity_efficiency,
)
from .domain import (
    DEFAULT_VOCABULARY,
    LabeledDataset,
    MASK,
    QueryTemplate,
    Vocabulary,
    assemble,
    fingerprints,
    make_dataset,
    make_queries,
    mask_out,
    oracle_label,
)
from .harness import (
    CampaignConfig,
    run_campaign,
    steps_to_threshold,
    stratify_by_length,
    wilcoxon_signed_rank,
)
from .policy import Policy, PolicyConfig, SampledProposal, build_pretrain_corpus, pretrain_prior
from .rl import RLConfig, RunRecord, SequenceScorer, StepMetrics, augmented_log_likelihood, run_rl, squared_loss
from .scoring import (
    SCORING_KINDS,
    score,
    score_diff,
    score_harsh,
    score_one_minus_p0,
    score_p1,
    score_rm,
    score_soft,
)

__version__ = "0.1.0"
