"""Small autoregressive token policy over masked-fill proposals.

A single-layer recurrent categorical model: token embeddings feed a tanh
state update that also consumes a query encoding (mean embedding of the
template, with the mask marker as its own symbol), and a linear projection
produces logits over the fixed emission alphabet at every step. Likelihoods,
sampling, and parameter gradients are all computed in closed form with numpy;
there is no autodiff dependency. One driver moves a batch of rows through the
recurrence in lockstep, drawing their tokens (sampling) or reading them
(teacher forcing), and records a tape of its steps when the pass is to be
backpropagated; each row's NLL is the same bit for bit in any batch. A frozen
policy can read a sampling pass's draws as they are made, so a learning step
gets the prior's likelihoods of its batch from the pass that drew it. One
backward pass over a tape returns the gradient of a weighted sum of its rows'
NLLs, so a learning step backpropagates through the pass that drew its batch.
The output projection starts at zero, so a fresh policy is exactly uniform
over the emission alphabet.
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


class _Templates(NamedTuple):
    """The distinct templates of a batch's rows, padded to one array."""

    group: np.ndarray  # (B,) each row's template, numbered in order of first appearance
    ids: np.ndarray  # (G, L) token ids of each template, 0 past its length
    inside: np.ndarray  # (G, L) False past each template's length
    sizes: np.ndarray  # (G,) template lengths


def _templates(queries: Sequence[QueryTemplate]) -> _Templates:
    distinct: dict[tuple[str, ...], int] = {}  # a positions key hashes in C, a QueryTemplate in Python
    group = np.array([distinct.setdefault(q.positions, len(distinct)) for q in queries], dtype=np.intp)
    sizes = np.array([len(positions) for positions in distinct], dtype=np.intp)
    inside = np.arange(sizes.max(initial=0)) < sizes[:, None]
    ids = np.zeros(inside.shape, dtype=np.intp)
    ids[inside] = _template_ids([t for positions in distinct for t in positions])
    return _Templates(group, ids, inside, sizes)


def _stream_ids(fills: Sequence[str]) -> list[int]:
    try:
        return [TOKEN_ID[t] for fill in fills for t in fill]
    except KeyError as err:
        raise ValueError(f"proposal token {err.args[0]!r} not in the emission alphabet")


class _Tape(NamedTuple):
    """What one :meth:`Policy._unroll` pass computes, kept for backpropagation.

    Each step is ``(rows, inputs, targets, h_in, h_out, probs)``: the live rows, in
    proposal order, went from states ``h_in`` on tokens ``inputs`` to states ``h_out``
    and softmaxes ``probs``, and emitted ``targets``.
    """

    templates: _Templates
    encodings: np.ndarray  # (G, E) mean embedding of each template
    steps: list[tuple[np.ndarray, ...]]  # empty for a pass that records none
    nll: np.ndarray  # (B,)
    frozen_nll: np.ndarray | None  # (B,) the frozen policy's NLL of the same tokens, if one read them


class Draws(NamedTuple):
    """A batch drawn in lockstep (see :meth:`Policy.draw`), as arrays."""

    ids: np.ndarray  # (B, S, T) token ids emitted in each slot, padded past the alphabet
    lengths: np.ndarray  # (B, S) tokens emitted in each slot, the terminator included
    nll: np.ndarray  # (B,) the drawing policy's NLL of each row
    prior_nll: np.ndarray | None  # (B,) the prior's NLL of each row, if a prior read the draws
    backward: Callable[[np.ndarray], dict[str, np.ndarray]] | None  # over the pass, if it kept a tape


def _matvecs(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ x[b]`` for every row b, one matrix-vector product per row.

    One BLAS gemv per row keeps each row's result independent of the rest of
    its batch, bit for bit; a single ``x @ w.T`` matrix product does not.
    """
    return np.matmul(w, x[:, :, None])[:, :, 0]


def _row_sums(rows: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """The (n_rows, W) sums of the (N, W) ``values`` by row index ``rows``, each added in order of N from
    zero: ``np.add.at`` into zeros bit for bit, as one ``np.bincount`` over the elements."""
    width = values.shape[1]
    flat = (rows[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(flat, weights=values.reshape(-1), minlength=n_rows * width).reshape(n_rows, width)


def _saved_params(saved: dict) -> dict[str, np.ndarray]:
    """Every parameter of a saved policy; raises ValueError naming a missing one or one of another shape."""
    params = {}
    for name, shape in PARAM_SHAPES.items():
        params[name] = json_field(saved, name, partial(np.array, dtype=np.float64))
        if params[name].shape != shape:
            raise ValueError(f"key {name!r}: shape {params[name].shape} is not {shape}")
    return params


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

    def _cell(self, x: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One recurrence step of every row b from input term ``x[b]`` (see :meth:`_inputs`): the (B, H)
        states and (B, V) softmaxes."""
        p = self.p
        h = np.tanh(x + _matvecs(p["w_rec"], h) + p["b_rec"])
        logits = _matvecs(p["w_out"], h) + p["b_out"]
        logits = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return h, exp / exp.sum(axis=1, keepdims=True)

    def _inputs(self, templates: _Templates) -> tuple[np.ndarray, np.ndarray]:
        """The (G, E) template encodings and the (G, V + 1, H) table of input terms
        ``w_in @ embed[token] + w_query @ encodings[g]``, so a step gathers its rows' terms.

        Each encoding is a mean over one padded gather, summed in template order (a
        -0.0 pad adds nothing, even to -0.0); each product is one gemv per row, so the
        table holds the same bits as a product and a sum at every step.
        """
        p = self.p
        encodings = np.where(templates.inside[..., None], p["embed"][templates.ids], -0.0).sum(axis=1)
        encodings /= templates.sizes[:, None]
        return encodings, _matvecs(p["w_in"], p["embed"])[None] + _matvecs(p["w_query"], encodings)[:, None]

    def nll(self, query: QueryTemplate, fills: Sequence[str]) -> float:
        """Total negative log-likelihood of the emitted token stream."""
        return float(self.nll_batch([query], [fills])[0])

    def sample(self, query: QueryTemplate, rng: np.random.Generator) -> SampledProposal:
        """One proposal: :meth:`sample_batch` with a batch of one."""
        return self.sample_batch(query, 1, rng)[0]

    def sample_batch(self, query: QueryTemplate, n: int, rng: np.random.Generator) -> list[SampledProposal]:
        """Draw ``n`` proposals in lockstep, one fill per masked slot each (see :meth:`sample_and_backward`)."""
        return self.sample_and_backward(query, n, rng, _record=False)[0]

    def sample_and_backward(
        self, query: QueryTemplate, n: int, rng: np.random.Generator, _record: bool = True
    ) -> tuple[list[SampledProposal], Callable[[np.ndarray], dict[str, np.ndarray]] | None]:
        """``n`` proposals drawn in lockstep (see :meth:`draw`), and ``backward(weights)`` over the pass that
        drew them; :meth:`sample_batch` keeps no tape and gets None.

        A cap-hit slot keeps its unterminated tokens, so the proposal fails assembly: the invalidity channel.
        """
        drawn = self.draw(query, n, rng, record=_record)
        fills = [tuple(map("".join, row)) for row in _PADDED_TOKENS[drawn.ids].tolist()]
        proposals = [SampledProposal(f, ll, tuple("".join(f))) for f, ll in zip(fills, (-drawn.nll).tolist())]
        return proposals, drawn.backward

    def draw(
        self, query: QueryTemplate, n: int, rng: np.random.Generator, prior: Policy | None = None,
        record: bool = True,
    ) -> Draws:
        """``n`` rows filling ``query`` drawn in lockstep, one fill per masked slot each, as arrays.

        Each step draws as :meth:`_unroll` does, so a batch of one draws as a
        token-by-token loop does. A row leaves a slot on the terminator or at the
        cap. A ``prior`` reads the draws as they are made, so its NLLs equal its
        :meth:`nll_batch` of the drawn fills bit for bit. With ``record`` the pass
        keeps a tape and ``backward`` is :meth:`nll_and_backward`'s.
        """
        ids = np.full((n, query.masked_count, MAX_TOKENS_PER_SLOT), len(EMISSION_TOKENS))  # padded past the alphabet
        lengths = np.full(ids.shape[:2], MAX_TOKENS_PER_SLOT)
        templates = _templates([query])._replace(group=np.zeros(n, dtype=np.intp))
        tape = self._unroll(templates, ids, lengths, rng, record=record, frozen=prior)
        return Draws(ids, lengths, tape.nll, tape.frozen_nll, partial(self._backward, tape) if record else None)

    def nll_and_grad(
        self, query: QueryTemplate, fills: Sequence[str], upstream_scale: float = 1.0
    ) -> tuple[float, dict[str, np.ndarray]]:
        """NLL plus the analytic gradient of (upstream_scale * NLL), from a batch of one."""
        nll, backward = self.nll_and_backward([query], [fills])
        return float(nll[0]), backward(np.array([upstream_scale]))

    def _unroll(
        self,
        templates: _Templates,
        ids: np.ndarray,
        lengths: np.ndarray,
        rng: np.random.Generator | None = None,
        record: bool = True,
        frozen: Policy | None = None,
    ) -> _Tape:
        """Move rows b filling template ``templates.group[b]`` through the (B, S, T) slots of ``ids`` in lockstep.

        Row b takes ``lengths[b, s]`` steps in slot s, each from the token it
        emitted last (BEGIN_ID first), its state carried across slots. Without
        ``rng`` step t of slot s emits ``ids[b, s, t]``. With ``rng`` the rows
        live at a step take one ``rng.random`` value each, in proposal order,
        and invert their CDFs; the draw is written to ``ids``, and a terminator
        ends the row's slot by writing ``lengths``. Each row's NLL is the same
        bit for bit in any batch (see :func:`_matvecs`). Without ``record`` the
        tape keeps no steps, so a pass that is not backpropagated holds only
        the current step's arrays. A ``frozen`` policy takes each step's inputs
        through its own :meth:`_cell` and adds the emitted token's ``-log`` to
        its own NLL, ``tape.frozen_nll``; it records nothing.
        """
        n_rows, n_slots, cap = ids.shape
        encodings, table = self._inputs(templates)
        h, prev, nll = np.zeros((n_rows, HIDDEN_DIM)), np.full(n_rows, BEGIN_ID), np.zeros(n_rows)
        tape = _Tape(templates, encodings, [], nll, None if frozen is None else np.zeros(n_rows))
        if frozen is not None:
            frozen_table, frozen_h = frozen._inputs(templates)[1], np.zeros((n_rows, HIDDEN_DIM))
        for slot in range(n_slots):
            live = np.arange(n_rows)
            for t in range(cap):
                live = live[lengths[live, slot] > t]
                if not live.size:
                    break
                h_in, inputs, group = h[live], prev[live], templates.group[live]
                h_out, probs = self._cell(table[group, inputs], h_in)
                if rng is None:
                    target = ids[live, slot, t]
                else:
                    u = rng.random(len(live))
                    target = np.minimum((np.cumsum(probs, axis=1) <= u[:, None]).sum(axis=1), len(EMISSION_TOKENS) - 1)
                    ids[live, slot, t] = target
                    lengths[live[target == END_ID], slot] = t + 1
                emitted = np.arange(len(live)), target
                nll[live] -= np.log(probs[emitted])
                if frozen is not None:
                    frozen_h[live], frozen_probs = frozen._cell(frozen_table[group, inputs], frozen_h[live])
                    tape.frozen_nll[live] -= np.log(frozen_probs[emitted])
                if record:
                    tape.steps.append((live, inputs, target, h_in, h_out, probs))
                h[live], prev[live] = h_out, target
        return tape

    def _teacher_forced(
        self, queries: Sequence[QueryTemplate], proposals: Sequence[Sequence[str]], record: bool = True
    ) -> _Tape:
        """The pass over rows b filling ``queries[b]`` with ``proposals[b]``, each row's stream one slot."""
        if len(queries) != len(proposals):
            raise ValueError(f"{len(queries)} templates for {len(proposals)} proposals")
        streams = [_stream_ids(fills) for fills in proposals]
        lengths = np.array([len(s) for s in streams], dtype=np.intp).reshape(-1, 1)
        ids = np.zeros((len(streams), 1, int(lengths.max(initial=0))), dtype=np.intp)
        for b, stream in enumerate(streams):
            ids[b, 0, : len(stream)] = stream
        return self._unroll(_templates(queries), ids, lengths, record=record)

    def nll_batch(self, queries: Sequence[QueryTemplate], proposals: Sequence[Sequence[str]]) -> np.ndarray:
        """Each row's negative log-likelihood from one batched pass; shape (B,)."""
        return self._teacher_forced(queries, proposals, record=False).nll

    def nll_and_backward(
        self, queries: Sequence[QueryTemplate], proposals: Sequence[Sequence[str]]
    ) -> tuple[np.ndarray, Callable[[np.ndarray], dict[str, np.ndarray]]]:
        """Each row's NLL from one batched pass, and ``backward(weights)`` over that pass.

        ``backward`` takes (B,) row weights and returns the analytic gradient of
        ``sum_b weights[b] * nll[b]``, summed over the rows: ``{name: shape}``; it may
        be called more than once while the parameters stay as they were.
        """
        tape = self._teacher_forced(queries, proposals)
        return tape.nll, partial(self._backward, tape)

    def _backward(self, tape: _Tape, weights: np.ndarray) -> dict[str, np.ndarray]:
        """The gradient of ``sum_b weights[b] * tape.nll[b]`` over the tape's pass.

        The pass's (step, live row) pairs are stacked, so each product over rows and
        steps is one matrix product and only the state gradient runs back in time.
        The query encoding passes gradients to the embedding rows of every
        template entry (mask marker included) through the mean.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != tape.nll.shape:
            raise ValueError(f"weights of shape {weights.shape} for {len(tape.nll)} rows")
        if not tape.steps:  # every stream is empty
            return {name: np.zeros(shape) for name, shape in PARAM_SHAPES.items()}
        p = self.p
        rows, ids, targets, h_in, h_out, dlogits = map(np.concatenate, zip(*tape.steps))
        dlogits[np.arange(len(rows)), targets] -= 1.0  # softmax minus one-hot target: d(nll)/d(logits)
        dlogits *= weights[rows, None]
        da = dlogits @ p["w_out"]  # the output's part of each pair's state gradient, then the pre-tanh gradient
        tanh_slope = 1.0 - h_out**2
        dh = np.zeros((len(weights), HIDDEN_DIM))
        end = len(rows)
        for live, *_ in reversed(tape.steps):
            pairs = slice(end - len(live), end)
            da[pairs] = (dh[live] + da[pairs]) * tanh_slope[pairs]
            dh[live] = da[pairs] @ p["w_rec"]
            end -= len(live)
        templates = tape.templates
        group = templates.group[rows]
        # each template's summed pre-tanh gradient, pairs in order, reaches its entries through the mean;
        # the embedding rows add the pairs' inputs first, then the templates' entries
        d_entry = _matvecs(p["w_query"].T, _row_sums(group, da, len(templates.sizes))) / templates.sizes[:, None]
        embed = _row_sums(
            np.concatenate([ids, templates.ids[templates.inside]]),
            np.concatenate([da @ p["w_in"], np.repeat(d_entry, templates.sizes, axis=0)]),
            len(p["embed"]),
        )
        return {"embed": embed, "w_in": da.T @ p["embed"][ids], "w_query": da.T @ tape.encodings[group],
                "w_rec": da.T @ h_in, "b_rec": da.sum(axis=0), "w_out": dlogits.T @ h_out, "b_out": dlogits.sum(axis=0)}

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


def check_gate_settings(n_samples: int, queries: Sequence[QueryTemplate]) -> None:
    """Raises ValueError unless the fill-validity gate has at least one sample and one query."""
    if n_samples < 1 or not queries:
        raise ValueError(f"fill-validity needs at least 1 sample and 1 query, got {n_samples} and {len(queries)}")


def fill_validity(
    policy: Policy, queries: Sequence[QueryTemplate], n_samples: int, rng: np.random.Generator
) -> float:
    """Fraction of valid proposals when proposal i fills ``queries[i % len(queries)]``, drawn a query at a time."""
    check_gate_settings(n_samples, queries)
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


def check_pretrain_settings(epochs: int, learning_rate: float) -> None:
    """Raises ValueError unless there is at least one epoch and the learning rate is positive."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not learning_rate > 0:
        raise ValueError("learning_rate must be > 0")


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
    downstream reinforcement runs assume a gate-passed prior. An empty corpus, or
    settings :func:`check_pretrain_settings` or, with ``gate_queries``, :func:`check_gate_settings` rejects,
    raise ValueError before any step; a prior whose parameters or mean NLL are not finite after an epoch
    raises FloatingPointError naming the epoch.
    """
    if not corpus:
        raise ValueError("corpus must be nonempty")
    check_pretrain_settings(epochs, learning_rate)
    if gate_queries is not None:
        check_gate_settings(gate_samples, gate_queries)
    policy = Policy.fresh(seed=np.random.SeedSequence([seed, 0]).generate_state(1)[0])
    shuffle_rng = np.random.default_rng([seed, 1])
    history = []
    order = np.arange(len(corpus))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # each epoch checks finiteness below
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
                    f"epoch {epoch}: the prior is not finite "
                    f"(mean NLL {history[-1]}, non-finite parameters {non_finite})"
                )

    gate_validity = None
    if gate_queries is not None:
        gate_rng = np.random.default_rng([seed, 2])
        gate_validity = fill_validity(policy, gate_queries, gate_samples, gate_rng)
        if gate_validity < GATE_THRESHOLD:
            raise ValidityGateError(f"prior fill-validity {gate_validity:.3f} below gate {GATE_THRESHOLD}")
    return PretrainResult(policy, history, gate_validity)
