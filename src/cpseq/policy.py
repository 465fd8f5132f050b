"""Small autoregressive token policy over masked-fill proposals.

A single-layer recurrent categorical model: token embeddings feed a tanh
state update that also consumes a query encoding (mean embedding of the
template, with the mask marker as its own symbol), and a linear projection
produces logits over the fixed emission alphabet at every step. Likelihoods,
sampling, and parameter gradients are all computed in closed form with numpy;
there is no autodiff dependency. The output projection starts at zero, so a
fresh policy is exactly uniform over the emission alphabet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .domain import (
    BEGIN,
    EMISSION_TOKENS,
    MASK,
    MAX_FILL_TOKENS,
    MAX_MASKED,
    SLOT_END,
    QueryTemplate,
    assemble,
    mask_out,
)

MAX_TOKENS_PER_SLOT = MAX_FILL_TOKENS + 1  # content cap plus the terminator
PARAM_NAMES = ("embed", "w_in", "w_query", "w_rec", "b_rec", "w_out", "b_out")
EMBED_DIM = 16
HIDDEN_DIM = 32
INIT_SCALE = 0.1  # standard deviation of the random initial weights
GATE_THRESHOLD = 0.9  # fill-validity a pretrained prior must reach on the gate queries
DEFAULT_PRETRAIN_EPOCHS = 20
DEFAULT_PRETRAIN_LEARNING_RATE = 1e-3
DEFAULT_PRETRAIN_CORPUS_SIZE = 1500  # training sequences masked into the pretraining corpus
DEFAULT_GATE_SAMPLES = 500  # proposals drawn to measure fill-validity

TOKEN_ID = {t: i for i, t in enumerate(EMISSION_TOKENS)}
MASK_ID = len(EMISSION_TOKENS)  # extra embedding row for the mask marker
END_ID = TOKEN_ID[SLOT_END]
BEGIN_ID = TOKEN_ID[BEGIN]


@dataclass(frozen=True)
class SampledProposal:
    """A drawn fill proposal with its log-likelihood and flat token trace."""

    fills: tuple[str, ...]
    log_likelihood: float
    tokens: tuple[str, ...]


def _template_ids(query: QueryTemplate) -> np.ndarray:
    return np.array([MASK_ID if t == MASK else TOKEN_ID[t] for t in query.positions], dtype=np.intp)


def _stream_ids(fills: Sequence[str]) -> list[int]:
    try:
        return [TOKEN_ID[t] for fill in fills for t in fill]
    except KeyError as err:
        raise ValueError(f"proposal token {err.args[0]!r} not in the emission alphabet")


class _Forward(NamedTuple):
    """What a teacher-forced pass computes, kept for backpropagation."""

    template_ids: np.ndarray
    query_encoding: np.ndarray
    inputs: list[int]  # the token id fed in at each step
    states: list[np.ndarray]  # zero state first; step i maps states[i] to states[i + 1]
    probs: list[np.ndarray]  # the emission distribution at each step
    nll: float  # total negative log-likelihood of the stream


class Policy:
    """Autoregressive categorical model over the fixed emission alphabet."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.p = params

    # -- construction -------------------------------------------------------

    @classmethod
    def fresh(cls, seed: int = 0) -> "Policy":
        rng = np.random.default_rng(seed)
        v, de, dh = len(EMISSION_TOKENS), EMBED_DIM, HIDDEN_DIM
        params = {
            "embed": rng.normal(0.0, INIT_SCALE, (v + 1, de)),
            "w_in": rng.normal(0.0, INIT_SCALE, (dh, de)),
            "w_query": rng.normal(0.0, INIT_SCALE, (dh, de)),
            "w_rec": rng.normal(0.0, INIT_SCALE, (dh, dh)),
            "b_rec": np.zeros(dh),
            "w_out": np.zeros((v, dh)),
            "b_out": np.zeros(v),
        }
        return cls(params)

    def copy(self) -> "Policy":
        return Policy({k: v.copy() for k, v in self.p.items()})

    def params_equal(self, other: "Policy") -> bool:
        return all(np.array_equal(self.p[k], other.p[k]) for k in PARAM_NAMES)

    # -- core math -----------------------------------------------------------

    def _step(self, prev_id: int, wq_q: np.ndarray, h: np.ndarray):
        """One recurrence step: returns (new hidden state, softmax probabilities)."""
        a = self.p["w_in"] @ self.p["embed"][prev_id] + wq_q + self.p["w_rec"] @ h + self.p["b_rec"]
        h_new = np.tanh(a)
        logits = self.p["w_out"] @ h_new + self.p["b_out"]
        logits = logits - logits.max()
        exp = np.exp(logits)
        return h_new, exp / exp.sum()

    def _forward(self, query: QueryTemplate, stream: Sequence[int]) -> _Forward:
        """Teacher-forced pass over a token-id stream (see :class:`_Forward`)."""
        template_ids = _template_ids(query)
        q = self.p["embed"][template_ids].mean(axis=0)
        wq_q = self.p["w_query"] @ q
        h = np.zeros(self.p["w_rec"].shape[0])
        prev = BEGIN_ID
        inputs, states, probs_list = [], [h], []
        total = 0.0
        for t in stream:
            inputs.append(prev)
            h, probs = self._step(prev, wq_q, h)
            states.append(h)
            probs_list.append(probs)
            total -= np.log(probs[t])
            prev = t
        return _Forward(template_ids, q, inputs, states, probs_list, float(total))

    def nll(self, query: QueryTemplate, fills: Sequence[str]) -> float:
        """Total negative log-likelihood of the emitted token stream."""
        return self._forward(query, _stream_ids(fills)).nll

    def distributions(self, query: QueryTemplate, fills: Sequence[str]) -> list[np.ndarray]:
        """Per-step emission distributions along a teacher-forced stream."""
        return self._forward(query, _stream_ids(fills)).probs

    def sample(self, query: QueryTemplate, rng: np.random.Generator) -> SampledProposal:
        """Draw one fill per masked slot; a slot ends on the terminator or the cap.

        A cap-hit slot keeps its unterminated tokens, so the proposal later
        fails assembly: that is the intended invalidity channel.
        """
        wq_q = self.p["w_query"] @ self.p["embed"][_template_ids(query)].mean(axis=0)
        h = np.zeros(self.p["w_rec"].shape[0])
        prev = BEGIN_ID
        fills = []
        trace = []
        log_likelihood = 0.0
        for _ in range(query.masked_count):
            fill = []
            for _ in range(MAX_TOKENS_PER_SLOT):
                h, probs = self._step(prev, wq_q, h)
                draw = min(int(np.searchsorted(np.cumsum(probs), rng.random(), side="right")), len(probs) - 1)
                log_likelihood += float(np.log(probs[draw]))
                tok = EMISSION_TOKENS[draw]
                fill.append(tok)
                trace.append(tok)
                prev = draw
                if draw == END_ID:
                    break
            fills.append("".join(fill))
        return SampledProposal(tuple(fills), log_likelihood, tuple(trace))

    def nll_and_grad(
        self, query: QueryTemplate, fills: Sequence[str], upstream_scale: float = 1.0
    ) -> tuple[float, dict[str, np.ndarray]]:
        """NLL plus the analytic gradient of (upstream_scale * NLL).

        Backpropagation through time over the tanh recurrence; the query
        encoding contributes gradients to the embedding rows of every template
        entry (mask marker included) through the mean.
        """
        stream = _stream_ids(fills)
        fwd = self._forward(query, stream)
        grads = {name: np.zeros_like(self.p[name]) for name in PARAM_NAMES}
        if upstream_scale == 0.0 or not stream:
            return fwd.nll, grads

        embed, w_in, w_query, w_rec = (self.p[k] for k in ("embed", "w_in", "w_query", "w_rec"))
        inputs, states, q = fwd.inputs, fwd.states, fwd.query_encoding
        dq = np.zeros_like(q)
        dh = np.zeros(w_rec.shape[0])
        for i in range(len(stream) - 1, -1, -1):
            dlogits = fwd.probs[i].copy()
            dlogits[stream[i]] -= 1.0
            dlogits *= upstream_scale
            grads["w_out"] += np.outer(dlogits, states[i + 1])
            grads["b_out"] += dlogits
            dh = dh + self.p["w_out"].T @ dlogits
            da = dh * (1.0 - states[i + 1] ** 2)
            e_in = embed[inputs[i]]
            grads["w_in"] += np.outer(da, e_in)
            grads["embed"][inputs[i]] += w_in.T @ da
            grads["w_query"] += np.outer(da, q)
            dq += w_query.T @ da
            grads["w_rec"] += np.outer(da, states[i])
            grads["b_rec"] += da
            dh = w_rec.T @ da
        np.add.at(grads["embed"], fwd.template_ids, dq / len(fwd.template_ids))
        return fwd.nll, grads

    def sgd_step(self, grads: dict[str, np.ndarray], learning_rate: float) -> None:
        for name in PARAM_NAMES:
            self.p[name] -= learning_rate * grads[name]

    # -- persistence ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "tokens": list(EMISSION_TOKENS),
            "end_token": SLOT_END,
            "begin_token": BEGIN,
            "params": {k: v.tolist() for k, v in self.p.items()},
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Policy":
        """The policy a :meth:`to_json_dict` payload holds; raises ValueError on any other alphabet."""
        saved = (tuple(payload["tokens"]), payload["end_token"], payload["begin_token"])
        fixed = (EMISSION_TOKENS, SLOT_END, BEGIN)
        if saved != fixed:
            raise ValueError(f"policy alphabet (tokens, end, begin) {saved} is not the fixed one {fixed}")
        return cls({k: np.array(v, dtype=np.float64) for k, v in payload["params"].items()})

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "Policy":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def build_pretrain_corpus(
    sequences: Iterable[str], seed: int = 0
) -> list[tuple[QueryTemplate, tuple[str, ...]]]:
    """Mask random positions of full sequences into (template, true fills) pairs."""
    rng = np.random.default_rng(seed)
    corpus = []
    for seq in sequences:
        m = int(rng.integers(1, min(MAX_MASKED, len(seq) - 1) + 1))
        positions = rng.choice(len(seq), size=m, replace=False)
        corpus.append(mask_out(seq, positions.tolist()))
    return corpus


def fill_validity(
    policy: Policy, queries: Sequence[QueryTemplate], n_samples: int, rng: np.random.Generator
) -> float:
    """Fraction of sampled proposals that assemble into valid sequences."""
    valid = 0
    for i in range(n_samples):
        query = queries[i % len(queries)]
        proposal = policy.sample(query, rng)
        if assemble(query, proposal.fills) is not None:
            valid += 1
    return valid / n_samples


@dataclass
class PretrainResult:
    policy: Policy
    epoch_nll: list[float] = field(default_factory=list)
    gate_validity: float | None = None


class ValidityGateError(RuntimeError):
    """Raised when a pretrained prior misses the fill-validity gate."""


def pretrain_prior(
    corpus: Sequence[tuple[QueryTemplate, Sequence[str]]],
    epochs: int = DEFAULT_PRETRAIN_EPOCHS,
    learning_rate: float = DEFAULT_PRETRAIN_LEARNING_RATE,
    seed: int = 0,
    gate_queries: Sequence[QueryTemplate] | None = None,
    gate_samples: int = DEFAULT_GATE_SAMPLES,
) -> PretrainResult:
    """Maximum-likelihood pretraining of a prior by per-example SGD.

    When ``gate_queries`` are supplied the returned prior must reach the
    fill-validity gate (:data:`GATE_THRESHOLD`) on them, otherwise :class:`ValidityGateError` is raised;
    downstream reinforcement runs assume a gate-passed prior.
    """
    if not corpus:
        raise ValueError("corpus must be nonempty")
    policy = Policy.fresh(seed=np.random.SeedSequence([seed, 0]).generate_state(1)[0])
    shuffle_rng = np.random.default_rng([seed, 1])
    history = []
    order = np.arange(len(corpus))
    for _ in range(epochs):
        shuffle_rng.shuffle(order)
        epoch_total = 0.0
        for idx in order:
            query, fills = corpus[idx]
            nll, grads = policy.nll_and_grad(query, fills)
            policy.sgd_step(grads, learning_rate)
            epoch_total += nll
        history.append(epoch_total / len(corpus))

    gate_validity = None
    if gate_queries is not None:
        gate_rng = np.random.default_rng([seed, 2])
        gate_validity = fill_validity(policy, gate_queries, gate_samples, gate_rng)
        if gate_validity < GATE_THRESHOLD:
            raise ValidityGateError(f"prior fill-validity {gate_validity:.3f} below gate {GATE_THRESHOLD}")
    return PretrainResult(policy, history, gate_validity)
