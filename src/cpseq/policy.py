"""Small autoregressive token policy over masked-fill proposals.

A single-layer recurrent categorical model: token embeddings feed a tanh
state update that also consumes a query encoding (mean embedding of the
template, with the mask marker as its own symbol), and a linear projection
produces logits over the fixed emission alphabet at every step. Likelihoods,
sampling, and parameter gradients are all computed in closed form with numpy;
there is no autodiff dependency. One recurrence step serves both a padded
teacher-forced pass over a batch of (template, fills) rows, whose row NLLs are
the same bit for bit in any batch, and lockstep sampling. One backward pass over
that batched pass returns the gradient of a weighted sum of its rows' NLLs. The output
projection starts at zero, so a fresh policy is exactly uniform over the emission alphabet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

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
from .tables import json_field, read_json

MAX_TOKENS_PER_SLOT = MAX_FILL_TOKENS + 1  # content cap plus the terminator
EMBED_DIM = 16
HIDDEN_DIM = 32
PARAM_SHAPES = {
    "embed": (len(EMISSION_TOKENS) + 1, EMBED_DIM),  # one more row for the mask marker
    "w_in": (HIDDEN_DIM, EMBED_DIM),
    "w_query": (HIDDEN_DIM, EMBED_DIM),
    "w_rec": (HIDDEN_DIM, HIDDEN_DIM),
    "b_rec": (HIDDEN_DIM,),
    "w_out": (len(EMISSION_TOKENS), HIDDEN_DIM),
    "b_out": (len(EMISSION_TOKENS),),
}
PARAM_NAMES = tuple(PARAM_SHAPES)
INIT_SCALE = 0.1  # standard deviation of the random initial weights
GATE_THRESHOLD = 0.9  # fill-validity a pretrained prior must reach on the gate queries
DEFAULT_PRETRAIN_EPOCHS = 20
DEFAULT_PRETRAIN_LEARNING_RATE = 1e-3
DEFAULT_PRETRAIN_CORPUS_SIZE = 1500  # training sequences masked into the pretraining corpus
PRETRAIN_BATCH = 32  # examples per pretraining SGD step
DEFAULT_GATE_SAMPLES = 500  # proposals drawn to measure fill-validity

TOKEN_ID = {t: i for i, t in enumerate(EMISSION_TOKENS)}
MASK_ID = len(EMISSION_TOKENS)  # extra embedding row for the mask marker
END_ID = TOKEN_ID[SLOT_END]
BEGIN_ID = TOKEN_ID[BEGIN]
_PADDED_TOKENS = np.array([*EMISSION_TOKENS, ""])  # token ids to text, the index past the alphabet to ""


@dataclass(frozen=True)
class SampledProposal:
    """A drawn fill proposal with its log-likelihood and flat token trace."""

    fills: tuple[str, ...]
    log_likelihood: float
    tokens: tuple[str, ...]


def _template_ids(positions: Sequence[str]) -> np.ndarray:
    return np.array([MASK_ID if t == MASK else TOKEN_ID[t] for t in positions], dtype=np.intp)


def _stream_ids(fills: Sequence[str]) -> list[int]:
    try:
        return [TOKEN_ID[t] for fill in fills for t in fill]
    except KeyError as err:
        raise ValueError(f"proposal token {err.args[0]!r} not in the emission alphabet")


class _BatchForward(NamedTuple):
    """What a batched teacher-forced pass computes, kept for backpropagation.

    Row r of the padded arrays holds proposal ``order[r]``; rows are sorted by
    decreasing stream length, so the streams still running at step i are the
    first ``active[i]`` rows. Row r's template is ``templates[group[r]]``.
    """

    templates: list[np.ndarray]  # template token ids of each distinct template
    group: np.ndarray  # (B,) index into templates
    query_encoding: np.ndarray  # (B, E) mean template embedding of each row
    order: np.ndarray
    targets: np.ndarray  # (B, T) emitted token ids, padded with 0
    inputs: np.ndarray  # (B, T) token ids fed in, BEGIN_ID first
    active: list[int]
    states: list[np.ndarray]  # (B, H) zeros first; step i maps states[i][:active[i]] to states[i + 1]
    probs: list[np.ndarray]  # (active[i], V) emission distributions at step i
    nll: np.ndarray  # (B,) in row order


def _matvecs(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ x[b]`` for every row b, one matrix-vector product per row.

    One BLAS gemv per row keeps each row's result independent of the rest of
    its batch, bit for bit; a single ``x @ w.T`` matrix product does not.
    """
    return np.matmul(w, x[:, :, None])[:, :, 0]


def _saved_params(saved: dict) -> dict[str, np.ndarray]:
    """Every parameter of a saved policy; raises ValueError naming a missing one or one of another shape."""
    params = {}
    for name, shape in PARAM_SHAPES.items():
        params[name] = json_field(saved, name, partial(np.array, dtype=np.float64))
        if params[name].shape != shape:
            raise ValueError(f"key {name!r}: shape {params[name].shape} is not {shape}")
    return params


def _proposal_order(order: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows of a batched pass put back in proposal order."""
    out = np.empty_like(rows)
    out[order] = rows
    return out


class Policy:
    """Autoregressive categorical model over the fixed emission alphabet."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.p = params

    # -- construction -------------------------------------------------------

    @classmethod
    def fresh(cls, seed: int = 0) -> "Policy":
        rng = np.random.default_rng(seed)
        random = ("embed", "w_in", "w_query", "w_rec")  # drawn in this order; the rest start at zero
        return cls({
            name: rng.normal(0.0, INIT_SCALE, shape) if name in random else np.zeros(shape)
            for name, shape in PARAM_SHAPES.items()
        })

    def copy(self) -> "Policy":
        return Policy({k: v.copy() for k, v in self.p.items()})

    def params_equal(self, other: "Policy") -> bool:
        return all(np.array_equal(self.p[k], other.p[k]) for k in PARAM_NAMES)

    def non_finite_params(self) -> list[str]:
        """The names of the parameters holding a NaN or an infinity."""
        return [name for name in PARAM_NAMES if not np.isfinite(self.p[name]).all()]

    # -- core math -----------------------------------------------------------

    def _cell(self, prev_ids: np.ndarray, wq_q: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One recurrence step of every row b from token ``prev_ids[b]``: the (B, H) states and (B, V) softmaxes."""
        p = self.p
        h = np.tanh(_matvecs(p["w_in"], p["embed"][prev_ids]) + wq_q + _matvecs(p["w_rec"], h) + p["b_rec"])
        logits = _matvecs(p["w_out"], h) + p["b_out"]
        logits = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return h, exp / exp.sum(axis=1, keepdims=True)

    def nll(self, query: QueryTemplate, fills: Sequence[str]) -> float:
        """Total negative log-likelihood of the emitted token stream."""
        return float(self.nll_batch([query], [fills])[0])

    def sample(self, query: QueryTemplate, rng: np.random.Generator) -> SampledProposal:
        """One proposal: :meth:`sample_batch` with a batch of one."""
        return self.sample_batch(query, 1, rng)[0]

    def sample_batch(self, query: QueryTemplate, n: int, rng: np.random.Generator) -> list[SampledProposal]:
        """Draw ``n`` proposals in lockstep, one fill per masked slot each.

        The rows move through the slots together. At each step the rows still in
        the slot take one ``rng.random`` value each, in proposal order, and invert
        their CDFs, so a batch of one draws as a token-by-token loop does. A row
        leaves a slot on the terminator or at the cap. A cap-hit slot keeps its
        unterminated tokens, so the proposal fails assembly: the invalidity channel.
        """
        wq_q = self.p["w_query"] @ self.p["embed"][_template_ids(query.positions)].mean(axis=0)
        h = np.zeros((n, HIDDEN_DIM))
        prev = np.full(n, BEGIN_ID)
        log_likelihood = np.zeros(n)
        ids = np.full((n, query.masked_count, MAX_TOKENS_PER_SLOT), len(EMISSION_TOKENS))  # padded past the alphabet
        for slot in range(query.masked_count):
            live = np.arange(n)
            for t in range(MAX_TOKENS_PER_SLOT):
                if not live.size:
                    break
                h[live], probs = self._cell(prev[live], wq_q, h[live])
                u = rng.random(len(live))
                draw = np.minimum((np.cumsum(probs, axis=1) <= u[:, None]).sum(axis=1), len(EMISSION_TOKENS) - 1)
                log_likelihood[live] += np.log(probs[np.arange(len(live)), draw])
                ids[live, slot, t] = prev[live] = draw
                live = live[draw != END_ID]
        fills = [tuple(map("".join, row)) for row in _PADDED_TOKENS[ids].tolist()]
        return [SampledProposal(f, ll, tuple("".join(f))) for f, ll in zip(fills, log_likelihood.tolist())]

    def nll_and_grad(
        self, query: QueryTemplate, fills: Sequence[str], upstream_scale: float = 1.0
    ) -> tuple[float, dict[str, np.ndarray]]:
        """NLL plus the analytic gradient of (upstream_scale * NLL), from a batch of one."""
        nll, backward = self.nll_and_backward([query], [fills])
        return float(nll[0]), backward(np.array([upstream_scale]))

    def _forward_batch(
        self, queries: Sequence[QueryTemplate], proposals: Sequence[Sequence[str]]
    ) -> _BatchForward:
        """Teacher-forced pass over rows b filling ``queries[b]`` with ``proposals[b]`` (see :class:`_BatchForward`)."""
        if len(queries) != len(proposals):
            raise ValueError(f"{len(queries)} templates for {len(proposals)} proposals")
        streams = [_stream_ids(fills) for fills in proposals]
        lengths = np.array([len(s) for s in streams], dtype=np.intp)
        order = np.argsort(-lengths, kind="stable")
        n_rows, n_steps = len(streams), int(lengths.max(initial=0))
        targets = np.zeros((n_rows, n_steps), dtype=np.intp)
        for row, b in enumerate(order):
            targets[row, : lengths[b]] = streams[b]
        inputs = np.full_like(targets, BEGIN_ID)
        inputs[:, 1:] = targets[:, :-1]
        sorted_lengths = lengths[order]
        active = [int(np.count_nonzero(sorted_lengths > i)) for i in range(n_steps)]

        # each template's group, in order of first appearance; a positions key hashes in C, a QueryTemplate in Python
        distinct: dict[tuple[str, ...], int] = {}
        group = np.array([distinct.setdefault(q.positions, len(distinct)) for q in queries], dtype=np.intp)[order]
        templates = [_template_ids(positions) for positions in distinct]
        encodings = [self.p["embed"][ids].mean(axis=0) for ids in templates]
        q = np.array(encodings)[group]
        wq_q = np.array([self.p["w_query"] @ e for e in encodings])[group]
        h = np.zeros((n_rows, HIDDEN_DIM))
        states, probs_list = [h], []
        nll = np.zeros(n_rows)
        for i, n in enumerate(active):
            h, probs = self._cell(inputs[:n, i], wq_q[:n], h[:n])
            nll[:n] -= np.log(probs[np.arange(n), targets[:n, i]])
            states.append(h)
            probs_list.append(probs)
        return _BatchForward(templates, group, q, order, targets, inputs, active, states, probs_list, nll)

    def nll_batch(self, queries: Sequence[QueryTemplate], proposals: Sequence[Sequence[str]]) -> np.ndarray:
        """Each row's negative log-likelihood from one batched pass; shape (B,)."""
        fwd = self._forward_batch(queries, proposals)
        return _proposal_order(fwd.order, fwd.nll)

    def nll_and_backward(
        self, queries: Sequence[QueryTemplate], proposals: Sequence[Sequence[str]]
    ) -> tuple[np.ndarray, Callable[[np.ndarray], dict[str, np.ndarray]]]:
        """Each row's NLL from one batched pass, and ``backward(weights)`` over that pass.

        ``backward`` takes (B,) row weights and returns the analytic gradient of
        ``sum_b weights[b] * nll[b]``, summed over the rows: ``{name: shape}``; it may
        be called more than once while the parameters stay as they were. The
        pass's (step, live row) pairs are stacked, so each product over rows and
        steps is one matrix product and only the state gradient runs back in time.
        The query encoding passes gradients to the embedding rows of every
        template entry (mask marker included) through the mean.
        """
        fwd = self._forward_batch(queries, proposals)
        nll, p = _proposal_order(fwd.order, fwd.nll), self.p
        if not fwd.active:  # every stream is empty
            return nll, lambda weights: {name: np.zeros(shape) for name, shape in PARAM_SHAPES.items()}
        rows = np.concatenate([np.arange(n) for n in fwd.active])  # each pair's row
        steps = np.repeat(np.arange(len(fwd.active)), fwd.active)
        ids, pair_group = fwd.inputs[rows, steps], fwd.group[rows]
        h_out = np.concatenate(fwd.states[1:])
        h_in = np.concatenate([h[:n] for h, n in zip(fwd.states, fwd.active)])
        tanh_slope = 1.0 - h_out**2
        emission = np.concatenate(fwd.probs)  # softmax minus one-hot target: d(nll)/d(logits)
        emission[np.arange(len(rows)), fwd.targets[rows, steps]] -= 1.0

        def backward(weights: np.ndarray) -> dict[str, np.ndarray]:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != fwd.order.shape:
                raise ValueError(f"weights of shape {weights.shape} for {len(fwd.order)} rows")
            dlogits = emission * weights[fwd.order][rows, None]
            da = dlogits @ p["w_out"]  # the output's part of each pair's state gradient, then the pre-tanh gradient
            dh = np.zeros((len(fwd.order), HIDDEN_DIM))
            end = len(rows)
            for n in reversed(fwd.active):
                pairs = slice(end - n, end)
                da[pairs] = (dh[:n] + da[pairs]) * tanh_slope[pairs]
                dh[:n] = da[pairs] @ p["w_rec"]
                end -= n
            grads = {"embed": np.zeros_like(p["embed"]), "w_in": da.T @ p["embed"][ids],
                     "w_query": da.T @ fwd.query_encoding[rows], "w_rec": da.T @ h_in, "b_rec": da.sum(axis=0),
                     "w_out": dlogits.T @ h_out, "b_out": dlogits.sum(axis=0)}
            np.add.at(grads["embed"], ids, da @ p["w_in"])
            for g, template in enumerate(fwd.templates):
                np.add.at(grads["embed"], template, da[pair_group == g].sum(axis=0) @ p["w_query"] / len(template))
            return grads

        return nll, backward

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
        """The policy a :meth:`to_json_dict` payload holds; raises ValueError on any other alphabet or shape,
        or on a parameter that is not finite."""
        saved = (json_field(payload, "tokens", tuple), json_field(payload, "end_token", str),
                 json_field(payload, "begin_token", str))
        fixed = (EMISSION_TOKENS, SLOT_END, BEGIN)
        if saved != fixed:
            raise ValueError(f"policy alphabet (tokens, end, begin) {saved} is not the fixed one {fixed}")
        policy = cls(json_field(payload, "params", _saved_params))
        non_finite = policy.non_finite_params()
        if non_finite:
            raise ValueError(f"key 'params': key {non_finite[0]!r}: holds a NaN or an infinity")
        return policy

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "Policy":
        return read_json(path, cls.from_json_dict)


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
    """Fraction of valid proposals when proposal i fills ``queries[i % len(queries)]``, drawn a query at a time."""
    if n_samples < 1 or not queries:
        raise ValueError(f"fill-validity needs at least 1 sample and 1 query, got {n_samples} and {len(queries)}")
    valid = 0
    for j, query in enumerate(queries):
        for proposal in policy.sample_batch(query, len(range(j, n_samples, len(queries))), rng):
            valid += assemble(query, proposal.fills) is not None
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
    """Maximum-likelihood pretraining of a prior by minibatch SGD.

    Each epoch shuffles the corpus and takes one step on the summed NLL gradient
    of each run of :data:`PRETRAIN_BATCH` examples (the last run may be shorter).
    When ``gate_queries`` are supplied the returned prior must reach the
    fill-validity gate (:data:`GATE_THRESHOLD`) on them, otherwise :class:`ValidityGateError` is raised;
    downstream reinforcement runs assume a gate-passed prior. A prior whose
    parameters or mean NLL are not finite after an epoch raises FloatingPointError naming the epoch.
    """
    if not corpus:
        raise ValueError("corpus must be nonempty")
    policy = Policy.fresh(seed=np.random.SeedSequence([seed, 0]).generate_state(1)[0])
    shuffle_rng = np.random.default_rng([seed, 1])
    history = []
    order = np.arange(len(corpus))
    for epoch in range(1, epochs + 1):
        shuffle_rng.shuffle(order)
        epoch_total = 0.0
        for start in range(0, len(order), PRETRAIN_BATCH):
            queries, fills = zip(*(corpus[i] for i in order[start : start + PRETRAIN_BATCH]))
            nll, backward = policy.nll_and_backward(queries, fills)
            policy.sgd_step(backward(np.ones(len(nll))), learning_rate)
            for value in nll.tolist():
                epoch_total += value
        history.append(epoch_total / len(corpus))
        non_finite = policy.non_finite_params()
        if non_finite or not np.isfinite(history[-1]):
            raise FloatingPointError(
                f"epoch {epoch}: the prior is not finite (mean NLL {history[-1]}, non-finite parameters {non_finite})"
            )

    gate_validity = None
    if gate_queries is not None:
        gate_rng = np.random.default_rng([seed, 2])
        gate_validity = fill_validity(policy, gate_queries, gate_samples, gate_rng)
        if gate_validity < GATE_THRESHOLD:
            raise ValidityGateError(f"prior fill-validity {gate_validity:.3f} below gate {GATE_THRESHOLD}")
    return PretrainResult(policy, history, gate_validity)
