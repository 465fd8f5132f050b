"""Small autoregressive token policy over masked-fill proposals.

A single-layer recurrent categorical model: token embeddings feed a tanh
state update that also consumes a query encoding (mean embedding of the
template, with the mask marker as its own symbol), and a linear projection
produces vocabulary logits at every step. Likelihoods, sampling, and
parameter gradients are all computed in closed form with numpy; there is no
autodiff dependency. The output projection starts at zero, so a fresh policy
is exactly uniform over the emission alphabet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .domain import (
    DEFAULT_VOCABULARY,
    MAX_FILL_TOKENS,
    MAX_MASKED,
    QueryTemplate,
    Vocabulary,
    assemble,
    mask_out,
)

MAX_TOKENS_PER_SLOT = MAX_FILL_TOKENS + 1  # content cap plus the terminator
PARAM_NAMES = ("embed", "w_in", "w_query", "w_rec", "b_rec", "w_out", "b_out")


@dataclass(frozen=True)
class PolicyConfig:
    embed_dim: int = 16
    hidden_dim: int = 32
    init_scale: float = 0.1


@dataclass(frozen=True)
class SampledProposal:
    """A drawn fill proposal with its log-likelihood and flat token trace."""

    fills: tuple[str, ...]
    log_likelihood: float
    tokens: tuple[str, ...]


class _Forward(NamedTuple):
    """What a teacher-forced pass computes, kept for backpropagation."""

    template_ids: np.ndarray
    query_encoding: np.ndarray
    inputs: list[int]  # the token id fed in at each step
    states: list[np.ndarray]  # zero state first; step i maps states[i] to states[i + 1]
    probs: list[np.ndarray]  # the emission distribution at each step
    nll: float  # total negative log-likelihood of the stream


class Policy:
    """Autoregressive categorical model over an emission alphabet."""

    def __init__(
        self,
        tokens: Sequence[str],
        end_token: str,
        params: dict[str, np.ndarray],
        begin_token: str | None = None,
    ):
        self.tokens = tuple(tokens)
        if end_token not in self.tokens:
            raise ValueError("end_token must be part of the emission alphabet")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("emission tokens must be distinct")
        self.end_token = end_token
        self.begin_token = begin_token if begin_token is not None else self.tokens[-1]
        if self.begin_token not in self.tokens:
            raise ValueError("begin_token must be part of the emission alphabet")
        self.token_id = {t: i for i, t in enumerate(self.tokens)}
        self.mask_id = len(self.tokens)  # extra embedding row for the mask marker
        self.end_id = self.token_id[end_token]
        self.begin_id = self.token_id[self.begin_token]
        self.p = params

    # -- construction -------------------------------------------------------

    @classmethod
    def fresh(
        cls,
        tokens: Sequence[str],
        end_token: str,
        config: PolicyConfig = PolicyConfig(),
        seed: int = 0,
    ) -> "Policy":
        rng = np.random.default_rng(seed)
        v = len(tokens)
        de, dh, s = config.embed_dim, config.hidden_dim, config.init_scale
        params = {
            "embed": rng.normal(0.0, s, (v + 1, de)),
            "w_in": rng.normal(0.0, s, (dh, de)),
            "w_query": rng.normal(0.0, s, (dh, de)),
            "w_rec": rng.normal(0.0, s, (dh, dh)),
            "b_rec": np.zeros(dh),
            "w_out": np.zeros((v, dh)),
            "b_out": np.zeros(v),
        }
        return cls(tokens, end_token, params)

    @classmethod
    def for_vocabulary(
        cls,
        vocab: Vocabulary = DEFAULT_VOCABULARY,
        config: PolicyConfig = PolicyConfig(),
        seed: int = 0,
    ) -> "Policy":
        policy = cls.fresh(vocab.emission_tokens(), vocab.slot_end_token, config, seed)
        assert policy.begin_token == vocab.begin_token
        return policy

    def copy(self) -> "Policy":
        params = {k: v.copy() for k, v in self.p.items()}
        return Policy(self.tokens, self.end_token, params, self.begin_token)

    def params_equal(self, other: "Policy") -> bool:
        return all(np.array_equal(self.p[k], other.p[k]) for k in PARAM_NAMES)

    # -- core math -----------------------------------------------------------

    def _template_ids(self, query: QueryTemplate) -> np.ndarray:
        from .domain import MASK

        return np.array(
            [self.mask_id if t == MASK else self.token_id[t] for t in query.positions],
            dtype=np.intp,
        )

    def encode_query(self, query: QueryTemplate) -> np.ndarray:
        return self.p["embed"][self._template_ids(query)].mean(axis=0)

    def _stream_ids(self, fills: Sequence[str]) -> list[int]:
        try:
            return [self.token_id[t] for fill in fills for t in fill]
        except KeyError as err:
            raise ValueError(f"proposal token {err.args[0]!r} not in the emission alphabet")

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
        template_ids = self._template_ids(query)
        q = self.p["embed"][template_ids].mean(axis=0)
        wq_q = self.p["w_query"] @ q
        h = np.zeros(self.p["w_rec"].shape[0])
        prev = self.begin_id
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
        return self._forward(query, self._stream_ids(fills)).nll

    def distributions(self, query: QueryTemplate, fills: Sequence[str]) -> list[np.ndarray]:
        """Per-step emission distributions along a teacher-forced stream."""
        return self._forward(query, self._stream_ids(fills)).probs

    def sample(
        self,
        query: QueryTemplate,
        rng: np.random.Generator,
        max_tokens_per_slot: int = MAX_TOKENS_PER_SLOT,
    ) -> SampledProposal:
        """Draw one fill per masked slot; a slot ends on the terminator or the cap.

        A cap-hit slot keeps its unterminated tokens, so the proposal later
        fails assembly: that is the intended invalidity channel.
        """
        wq_q = self.p["w_query"] @ self.encode_query(query)
        h = np.zeros(self.p["w_rec"].shape[0])
        prev = self.begin_id
        fills = []
        trace = []
        log_likelihood = 0.0
        for _ in range(query.masked_count):
            fill = []
            for _ in range(max_tokens_per_slot):
                h, probs = self._step(prev, wq_q, h)
                draw = min(int(np.searchsorted(np.cumsum(probs), rng.random(), side="right")), len(probs) - 1)
                log_likelihood += float(np.log(probs[draw]))
                tok = self.tokens[draw]
                fill.append(tok)
                trace.append(tok)
                prev = draw
                if draw == self.end_id:
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
        stream = self._stream_ids(fills)
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
            "tokens": list(self.tokens),
            "end_token": self.end_token,
            "begin_token": self.begin_token,
            "params": {k: v.tolist() for k, v in self.p.items()},
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Policy":
        params = {k: np.array(v, dtype=np.float64) for k, v in payload["params"].items()}
        return cls(tuple(payload["tokens"]), payload["end_token"], params, payload["begin_token"])

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "Policy":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def build_pretrain_corpus(
    sequences: Iterable[str],
    seed: int = 0,
    max_masked: int = MAX_MASKED,
    vocab: Vocabulary = DEFAULT_VOCABULARY,
) -> list[tuple[QueryTemplate, tuple[str, ...]]]:
    """Mask random positions of full sequences into (template, true fills) pairs."""
    rng = np.random.default_rng(seed)
    corpus = []
    for seq in sequences:
        m = int(rng.integers(1, min(max_masked, len(seq) - 1) + 1))
        positions = rng.choice(len(seq), size=m, replace=False)
        corpus.append(mask_out(seq, positions.tolist(), vocab))
    return corpus


def fill_validity(
    policy: Policy,
    queries: Sequence[QueryTemplate],
    n_samples: int,
    rng: np.random.Generator,
    vocab: Vocabulary = DEFAULT_VOCABULARY,
) -> float:
    """Fraction of sampled proposals that assemble into valid sequences."""
    valid = 0
    for i in range(n_samples):
        query = queries[i % len(queries)]
        proposal = policy.sample(query, rng)
        if assemble(query, proposal.fills, vocab) is not None:
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
    epochs: int = 20,
    learning_rate: float = 1e-3,
    seed: int = 0,
    config: PolicyConfig = PolicyConfig(),
    vocab: Vocabulary = DEFAULT_VOCABULARY,
    gate_queries: Sequence[QueryTemplate] | None = None,
    gate_threshold: float = 0.9,
    gate_samples: int = 500,
) -> PretrainResult:
    """Maximum-likelihood pretraining of a prior by per-example SGD.

    When ``gate_queries`` are supplied the returned prior must reach the
    fill-validity gate on them, otherwise :class:`ValidityGateError` is raised;
    downstream reinforcement runs assume a gate-passed prior.
    """
    if not corpus:
        raise ValueError("corpus must be nonempty")
    policy = Policy.for_vocabulary(vocab, config, seed=np.random.SeedSequence([seed, 0]).generate_state(1)[0])
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
        gate_validity = fill_validity(policy, gate_queries, gate_samples, gate_rng, vocab)
        if gate_validity < gate_threshold:
            raise ValidityGateError(
                f"prior fill-validity {gate_validity:.3f} below gate {gate_threshold}"
            )
    return PretrainResult(policy, history, gate_validity)
