import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpseq.domain import (
    EMISSION_TOKENS,
    MASK,
    MAX_MASKED,
    RESIDUES,
    SLOT_END,
    QueryTemplate,
    assemble,
    assemble_batch,
    make_queries,
)
from cpseq.policy import (
    BEGIN_ID,
    END_ID,
    MAX_TOKENS_PER_SLOT,
    PARAM_NAMES,
    PARAM_SHAPES,
    PRETRAIN_BATCH,
    Policy,
    SampledProposal,
    ValidityGateError,
    _stream_ids,
    _template_ids,
    _templates,
    build_pretrain_corpus,
    fill_validity,
    pretrain_prior,
)

QUERY = QueryTemplate.from_text("AC?DE?G")
FILLS = ("KF$", "M$")


# -- the per-example reference -------------------------------------------------------


def _reference_step(p, prev, wq_q, h):
    """One example's recurrence step: (new state, emission distribution)."""
    h = np.tanh(p["w_in"] @ p["embed"][prev] + wq_q + p["w_rec"] @ h + p["b_rec"])
    logits = p["w_out"] @ h + p["b_out"]
    logits = logits - logits.max()
    exp = np.exp(logits)
    return h, exp / exp.sum()


def _reference_start(policy, query):
    """One example's query product ``w_query @ q`` and zero state."""
    p = policy.p
    return p["w_query"] @ p["embed"][_template_ids(query.positions)].mean(axis=0), np.zeros(p["w_rec"].shape[0])


def _reference_forward(policy, query, stream):
    """One example's teacher-forced pass, a step at a time: (inputs, states, probs, nll)."""
    wq_q, h = _reference_start(policy, query)
    prev = BEGIN_ID
    inputs, states, probs_list = [], [h], []
    total = 0.0
    for t in stream:
        inputs.append(prev)
        h, probs = _reference_step(policy.p, prev, wq_q, h)
        states.append(h)
        probs_list.append(probs)
        total -= np.log(probs[t])
        prev = t
    return inputs, states, probs_list, float(total)


def _reference_sample(policy, query, rng):
    """One proposal drawn a token at a time: one ``rng.random()`` and a search of the CDF per token."""
    wq_q, h = _reference_start(policy, query)
    prev = BEGIN_ID
    fills = []
    trace = []
    log_likelihood = 0.0
    for _ in range(query.masked_count):
        fill = []
        for _ in range(MAX_TOKENS_PER_SLOT):
            h, probs = _reference_step(policy.p, prev, wq_q, h)
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


def _reference_nll_and_grad(policy, query, fills):
    """One example's NLL and its gradient by backpropagation through time, a step at a time."""
    p = policy.p
    stream = _stream_ids(fills)
    inputs, states, probs, nll = _reference_forward(policy, query, stream)
    template_ids = _template_ids(query.positions)
    q = p["embed"][template_ids].mean(axis=0)
    grads = {name: np.zeros_like(p[name]) for name in PARAM_NAMES}
    dq = np.zeros_like(q)
    dh = np.zeros(p["w_rec"].shape[0])
    for i in range(len(stream) - 1, -1, -1):
        dlogits = probs[i].copy()
        dlogits[stream[i]] -= 1.0
        grads["w_out"] += np.outer(dlogits, states[i + 1])
        grads["b_out"] += dlogits
        dh = dh + p["w_out"].T @ dlogits
        da = dh * (1.0 - states[i + 1] ** 2)
        grads["w_in"] += np.outer(da, p["embed"][inputs[i]])
        grads["embed"][inputs[i]] += p["w_in"].T @ da
        grads["w_query"] += np.outer(da, q)
        dq += p["w_query"].T @ da
        grads["w_rec"] += np.outer(da, states[i])
        grads["b_rec"] += da
        dh = p["w_rec"].T @ da
    np.add.at(grads["embed"], template_ids, dq / len(template_ids))
    return nll, grads


def _distributions(policy, query, fills):
    """Per-step emission distributions along a teacher-forced stream."""
    return _reference_forward(policy, query, _stream_ids(fills))[2]


@pytest.fixture
def fresh_policy():
    return Policy.fresh(seed=3)


# -- likelihoods -----------------------------------------------------------------


def test_fresh_policy_is_uniform(fresh_policy):
    n_tokens = sum(len(f) for f in FILLS)
    expected = n_tokens * np.log(len(EMISSION_TOKENS))
    assert fresh_policy.nll(QUERY, FILLS) == pytest.approx(expected, abs=1e-9)


def test_distributions_normalized(fresh_policy):
    rng = np.random.default_rng(0)
    fresh_policy.p["w_out"] = rng.normal(0, 0.3, fresh_policy.p["w_out"].shape)
    for probs in _distributions(fresh_policy, QUERY, FILLS):
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs > 0)


def test_nll_rejects_unknown_tokens(fresh_policy):
    with pytest.raises(ValueError):
        fresh_policy.nll(QUERY, ("K?$",))


# -- sampling ---------------------------------------------------------------------


def test_sample_rescore_consistency(fresh_policy):
    rng = np.random.default_rng(9)
    for _ in range(10):
        proposal = fresh_policy.sample(QUERY, rng)
        assert -proposal.log_likelihood == pytest.approx(
            fresh_policy.nll(QUERY, proposal.fills), abs=1e-9
        )


def test_sample_deterministic(fresh_policy):
    a = fresh_policy.sample(QUERY, np.random.default_rng(42))
    b = fresh_policy.sample(QUERY, np.random.default_rng(42))
    assert a == b


def test_sample_emits_one_fill_per_slot(fresh_policy):
    proposal = fresh_policy.sample(QUERY, np.random.default_rng(1))
    assert len(proposal.fills) == QUERY.masked_count
    assert all(1 <= len(f) <= MAX_TOKENS_PER_SLOT for f in proposal.fills)
    assert proposal.tokens == tuple("".join(proposal.fills))


ACCEPTANCE_QUERIES = make_queries(10, lengths=(6, 7, 10), seed=33)


@pytest.mark.parametrize("trained", [False, True], ids=["fresh", "trained"])
def test_sample_equals_the_token_by_token_reference(request, trained):
    policy = request.getfixturevalue("tiny_prior") if trained else Policy.fresh(seed=3)
    rng, reference_rng = np.random.default_rng(21), np.random.default_rng(21)
    for query in ACCEPTANCE_QUERIES:
        for _ in range(100):
            assert policy.sample(query, rng) == _reference_sample(policy, query, reference_rng)
            assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_lockstep_rows_are_proposals_scored_by_the_batched_pass(tiny_prior):
    rng = np.random.default_rng(8)
    for query in ACCEPTANCE_QUERIES:
        proposals = tiny_prior.sample_batch(query, 32, rng)
        nll = tiny_prior.nll_batch([query] * 32, [p.fills for p in proposals])
        assert [p.log_likelihood for p in proposals] == (-nll).tolist()
        for proposal in proposals:
            assert len(proposal.fills) == query.masked_count
            assert proposal.tokens == tuple("".join(proposal.fills))
            for fill in proposal.fills:  # ends on the terminator, or unterminated at the cap
                assert SLOT_END not in fill[:-1]
                assert fill.endswith(SLOT_END) or len(fill) == MAX_TOKENS_PER_SLOT


@pytest.mark.parametrize("n_rows", [1, 32])
@pytest.mark.parametrize("query_text", ["KINTWGGMN?", "?DM???K"], ids=["one_slot", "four_slots"])
def test_a_prior_reading_the_draws_scores_them_as_its_own_batched_pass(tiny_prior, query_text, n_rows):
    # the prior takes each step's inputs through its own cell while the agent draws: its NLLs must equal
    # nll_batch of the drawn fills bit for bit, and it must not change a draw or the agent's NLLs
    query = QueryTemplate.from_text(query_text)
    agent = tiny_prior.copy()
    for name in PARAM_NAMES:  # so the two differ in every parameter
        agent.p[name] += np.random.default_rng(0).normal(0, 0.1, agent.p[name].shape)
    rng, alone_rng = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(20):
        drawn = agent.draw(query, n_rows, rng, prior=tiny_prior)
        alone = agent.draw(query, n_rows, alone_rng)
        fills = [tuple(map("".join, row)) for row in np.array([*EMISSION_TOKENS, ""])[drawn.ids].tolist()]
        assert drawn.prior_nll.tobytes() == tiny_prior.nll_batch([query] * n_rows, fills).tobytes()
        assert drawn.nll.tobytes() == alone.nll.tobytes() == agent.nll_batch([query] * n_rows, fills).tobytes()
        assert drawn.ids.tobytes() == alone.ids.tobytes() and drawn.lengths.tobytes() == alone.lengths.tobytes()
        assert alone.prior_nll is None
        valid, sequences = assemble_batch(query, drawn.ids, drawn.lengths)
        assert [seq if ok else None for ok, seq in zip(valid, sequences.tolist())] == [assemble(query, f) for f in fills]


# A batch of repeated templates of different lengths (3, 6, 7 and 10 entries), in mixed order
_MIXED_TEMPLATES = [QueryTemplate.from_text(t) for t in ("A?C", "?DM???K"[:6], "TFY?IQS", "TFY?IQSF?E")]
_MIXED_ORDER = [0, 3, 1, 0, 2, 3, 3, 1, 2, 0, 1, 3]


def _per_template_inputs(policy, queries):
    """The input terms a step of row b adds before the recurrence, one row and token at a time:
    ``w_in @ embed[token] + w_query @ (mean template embedding)`` for every token."""
    p = policy.p
    rows = []
    for query in queries:
        encoding = p["embed"][_template_ids(query.positions)].mean(axis=0)
        rows.append([p["w_in"] @ embedding + p["w_query"] @ encoding for embedding in p["embed"]])
    return np.array(rows)


def _per_template_backward(policy, queries, tape, weights):
    """The backward pass with a loop over the templates for their encodings' embedding gradient."""
    p = policy.p
    rows, ids, targets, h_in, h_out, dlogits = map(np.concatenate, zip(*tape.steps))
    dlogits[np.arange(len(rows)), targets] -= 1.0
    dlogits *= weights[rows, None]
    da = dlogits @ p["w_out"]
    tanh_slope = 1.0 - h_out**2
    dh = np.zeros((len(weights), p["w_rec"].shape[0]))
    end = len(rows)
    for live, *_ in reversed(tape.steps):
        pairs = slice(end - len(live), end)
        da[pairs] = (dh[live] + da[pairs]) * tanh_slope[pairs]
        dh[live] = da[pairs] @ p["w_rec"]
        end -= len(live)
    group = tape.templates.group
    templates = [_template_ids(q.positions) for q in dict.fromkeys(queries)]  # in order of first appearance
    encodings = np.array([p["embed"][template].mean(axis=0) for template in templates])
    grads = {"embed": np.zeros_like(p["embed"]), "w_in": da.T @ p["embed"][ids],
             "w_query": da.T @ encodings[group][rows], "w_rec": da.T @ h_in,
             "b_rec": da.sum(axis=0), "w_out": dlogits.T @ h_out, "b_out": dlogits.sum(axis=0)}
    np.add.at(grads["embed"], ids, da @ p["w_in"])
    for g, template in enumerate(templates):
        np.add.at(grads["embed"], template, da[group[rows] == g].sum(axis=0) @ p["w_query"] / len(template))
    return grads


def test_template_work_equals_a_per_template_loop_bit_for_bit(tiny_prior):
    # each distinct template's encoding, query product and embedding gradient come from one padded
    # gather, one batched product and one scatter: the same bytes as a loop over the templates
    queries = [_MIXED_TEMPLATES[i] for i in _MIXED_ORDER]
    rng = np.random.default_rng(3)
    fills = [tiny_prior.sample(query, rng).fills for query in queries]
    templates = _templates(queries)
    assert templates.group.tolist() == [0, 1, 2, 0, 3, 1, 1, 2, 3, 0, 2, 1]
    assert templates.sizes.tolist() == [3, 10, 6, 7]
    _, table = tiny_prior._inputs(templates)
    assert table[templates.group].tobytes() == _per_template_inputs(tiny_prior, queries).tobytes()
    tape = tiny_prior._teacher_forced(queries, fills)
    weights = rng.normal(size=len(queries))
    got = tiny_prior._backward(tape, weights)
    expected = _per_template_backward(tiny_prior, queries, tape, weights)
    assert all(got[name].tobytes() == expected[name].tobytes() for name in PARAM_NAMES)


def test_empty_batch_draws_nothing(fresh_policy):
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert fresh_policy.sample_batch(QUERY, 0, rng) == []
    assert rng.bit_generator.state == before


def test_uniform_policy_validity_matches_independent_monte_carlo(fresh_policy):
    # independent simulator: uniform draws over the alphabet with the same cap rule
    rng = np.random.default_rng(123)
    tokens = EMISSION_TOKENS
    end = SLOT_END
    residues = set(RESIDUES)
    n = 12000

    def simulate_slot():
        fill = []
        for _ in range(MAX_TOKENS_PER_SLOT):
            tok = tokens[rng.integers(0, len(tokens))]
            fill.append(tok)
            if tok == end:
                break
        content = fill[:-1] if fill and fill[-1] == end else fill
        return 1 <= len(content) <= 4 and all(t in residues for t in content)

    sim_valid = sum(
        1 for _ in range(n) if all(simulate_slot() for _ in range(QUERY.masked_count))
    )
    sampled = fresh_policy.sample_batch(QUERY, n, np.random.default_rng(456))
    sampled_valid = sum(1 for proposal in sampled if assemble(QUERY, proposal.fills) is not None)
    assert abs(sim_valid / n - sampled_valid / n) <= 0.02


def test_passes_that_are_not_backpropagated_keep_no_tape(fresh_policy, monkeypatch):
    # sample_batch and nll_batch hold only the current step's arrays: with every step
    # kept, drawing 2,000 rows of two slots peaks near 15 MB
    tracemalloc.start()
    try:
        fresh_policy.sample_batch(QUERY, 2000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    tapes = []
    unroll = Policy._unroll
    monkeypatch.setattr(Policy, "_unroll", lambda *args, **kwargs: tapes.append(unroll(*args, **kwargs)) or tapes[-1])
    sampled, _ = fresh_policy.sample_and_backward(QUERY, 50, np.random.default_rng(0))
    nll = fresh_policy.nll_batch([QUERY] * 50, [p.fills for p in sampled])
    assert [bool(tape.steps) for tape in tapes] == [True, False]  # only the pass with a backward keeps its steps
    assert nll.tobytes() == np.array([-p.log_likelihood for p in sampled]).tobytes()


# -- gradients ---------------------------------------------------------------------


def test_zero_upstream_scale_gives_zero_gradient(fresh_policy):
    _, grads = fresh_policy.nll_and_grad(QUERY, FILLS, upstream_scale=0.0)
    assert all(np.all(g == 0) for g in grads.values())


def test_gradient_matches_finite_differences(fresh_policy):
    rng = np.random.default_rng(7)
    fresh_policy.p["w_out"] = rng.normal(0, 0.2, fresh_policy.p["w_out"].shape)
    fresh_policy.p["b_out"] = rng.normal(0, 0.2, fresh_policy.p["b_out"].shape)
    scale = 1.7
    _, grads = fresh_policy.nll_and_grad(QUERY, FILLS, upstream_scale=scale)
    step = 1e-4
    for name in fresh_policy.p:
        arr = fresh_policy.p[name]
        for flat in rng.choice(arr.size, size=min(10, arr.size), replace=False):
            idx = np.unravel_index(flat, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + step
            up = scale * fresh_policy.nll(QUERY, FILLS)
            arr[idx] = orig - step
            down = scale * fresh_policy.nll(QUERY, FILLS)
            arr[idx] = orig
            fd = (up - down) / (2 * step)
            an = grads[name][idx]
            assert abs(fd - an) <= max(1e-4 * max(abs(fd), abs(an)), 1e-7), (name, idx)


def test_uniform_gradient_has_softmax_minus_onehot_structure(fresh_policy):
    # with a zeroed output projection every step is uniform, so the projection
    # bias gradient reduces to L/V minus the emitted token counts
    _, grads = fresh_policy.nll_and_grad(QUERY, FILLS)
    stream = [t for f in FILLS for t in f]
    v = len(EMISSION_TOKENS)
    expected = np.array(
        [len(stream) / v - sum(1 for t in stream if t == tok) for tok in EMISSION_TOKENS]
    )
    assert np.allclose(grads["b_out"], expected, atol=1e-12)


# -- batched teacher-forced pass -----------------------------------------------------

_CONTENT_TOKENS = [t for t in EMISSION_TOKENS if t != SLOT_END]
_slot_fills = st.one_of(
    st.lists(st.sampled_from(_CONTENT_TOKENS), max_size=MAX_TOKENS_PER_SLOT - 1).map(
        lambda tokens: "".join(tokens) + SLOT_END
    ),
    # a slot that hit the cap unterminated, as sample() leaves it
    st.lists(st.sampled_from(_CONTENT_TOKENS), min_size=MAX_TOKENS_PER_SLOT, max_size=MAX_TOKENS_PER_SLOT).map(
        "".join
    ),
)


def _template(draw):
    masked = draw(st.integers(1, MAX_MASKED))
    fixed = draw(st.lists(st.sampled_from(RESIDUES), min_size=1, max_size=6))
    return QueryTemplate(tuple(draw(st.permutations([*fixed, *[MASK] * masked]))))


_weights = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def _batches(draw):
    """B = 1, 2 or 32 weighted rows over one to three 1- to 4-slot templates (B = 32 always ties some lengths)."""
    templates = [_template(draw) for _ in range(draw(st.integers(1, 3)))]
    size = draw(st.sampled_from([1, 2, 32]))
    queries = draw(st.lists(st.sampled_from(templates), min_size=size, max_size=size))
    proposals = [draw(st.tuples(*[_slot_fills] * query.masked_count)) for query in queries]
    weights = np.array(draw(st.lists(_weights, min_size=size, max_size=size)))
    return queries, proposals, weights


# The summed gradient adds its terms in another order than a loop over rows and
# steps does, so it is held to the reference within GRAD_RTOL of the largest
# entry of sum_b |w_b| * |g_b|, per parameter; the NLLs stay equal bit for bit.
GRAD_RTOL = 1e-12


def _assert_weighted_sum_close(got, weights, row_grads):
    """``got`` is ``sum_b weights[b] * row_grads[b]`` within GRAD_RTOL, for every parameter."""
    for name, shape in PARAM_SHAPES.items():
        expected, scale = np.zeros(shape), np.zeros(shape)
        for weight, grads in zip(weights.tolist(), row_grads):
            expected += weight * grads[name]
            scale += abs(weight) * np.abs(grads[name])
        assert got[name].shape == shape
        assert np.max(np.abs(got[name] - expected)) <= GRAD_RTOL * np.max(scale), name


def _assert_batch_matches_per_example(policy, queries, proposals, weights):
    nll = policy.nll_batch(queries, proposals)
    backward_nll, backward = policy.nll_and_backward(queries, proposals)
    assert nll.shape == (len(proposals),)
    assert np.array_equal(backward_nll, nll)
    references = [_reference_nll_and_grad(policy, query, fills) for query, fills in zip(queries, proposals)]
    _assert_weighted_sum_close(backward(weights), weights, [ref_grads for _, ref_grads in references])
    for b, (query, fills) in enumerate(zip(queries, proposals)):
        one_nll, one_grads = policy.nll_and_grad(query, fills, upstream_scale=weights[b])
        assert nll[b] == references[b][0] == one_nll == policy.nll(query, fills)
        _assert_weighted_sum_close(one_grads, weights[b : b + 1], [references[b][1]])


# derandomize: the examples drawn set this test's run time, so a fixed set
# keeps it comparable from one run of the suite to the next
@given(batch=_batches(), seed=st.integers(0, 2**16))
@settings(max_examples=60, derandomize=True)
def test_summed_backward_matches_weighted_per_example_reference(batch, seed):
    queries, proposals, weights = batch
    policy = Policy.fresh(seed=seed)
    rng = np.random.default_rng(seed)
    for name in ("w_out", "b_out"):  # away from uniform, so every emission differs
        policy.p[name] = rng.normal(0, 0.5, policy.p[name].shape)
    _assert_batch_matches_per_example(policy, queries, proposals, weights)
    drawn = {query: policy.sample_and_backward(query, queries.count(query), rng) for query in dict.fromkeys(queries)}
    for query, (proposals, backward) in drawn.items():  # the backward pass over the pass that drew the proposals
        rows = [b for b, q in enumerate(queries) if q == query]
        references = [_reference_nll_and_grad(policy, query, p.fills)[1] for p in proposals]
        _assert_weighted_sum_close(backward(weights[rows]), weights[rows], references)
    batches = {query: iter(proposals) for query, (proposals, _) in drawn.items()}
    sampled = [next(batches[query]) for query in queries]
    _assert_batch_matches_per_example(policy, queries, [s.fills for s in sampled], weights)
    assert policy.nll_batch(queries, [s.fills for s in sampled]).tolist() == [-s.log_likelihood for s in sampled]


def test_backward_can_run_again_with_other_weights(fresh_policy):
    queries, proposals = [QUERY, QueryTemplate.from_text("?DM???K")], [FILLS, ("A$", "C$", "DE$", "K$")]
    _, backward = fresh_policy.nll_and_backward(queries, proposals)
    first = backward(np.array([1.0, 0.0]))
    backward(np.array([-3.0, 2.0]))
    again = backward(np.array([1.0, 0.0]))
    assert all(np.array_equal(first[name], again[name]) for name in PARAM_NAMES)
    with pytest.raises(ValueError, match=r"weights of shape \(3,\) for 2 rows"):
        backward(np.ones(3))


def test_a_pass_of_no_steps_has_a_zero_gradient(fresh_policy):
    # two rows of empty streams, and a sampled batch of no rows: neither tape records a step
    nll, forced = fresh_policy.nll_and_backward([QUERY, QUERY], [("", "")] * 2)
    proposals, sampled = fresh_policy.sample_and_backward(QUERY, 0, np.random.default_rng(0))
    assert (nll.tolist(), proposals) == ([0.0, 0.0], [])
    for backward, weights in ((forced, [1.0, -2.0]), (sampled, [])):
        grads = backward(np.array(weights))
        assert all(grads[name].tobytes() == np.zeros(shape).tobytes() for name, shape in PARAM_SHAPES.items())
        with pytest.raises(ValueError, match="weights of shape"):
            backward(np.ones(3))


def test_batched_pass_on_a_trained_prior(tiny_prior):
    rng = np.random.default_rng(4)
    for query in make_queries(4, seed=6):
        proposals = [p.fills for p in tiny_prior.sample_batch(query, 32, rng)]
        weights = rng.normal(size=32)
        weights[::5] = 0.0
        _assert_batch_matches_per_example(tiny_prior, [query] * 32, proposals, weights)


def test_batch_needs_one_template_per_proposal(fresh_policy):
    with pytest.raises(ValueError, match="1 templates for 2 proposals"):
        fresh_policy.nll_batch([QUERY], [FILLS, FILLS])


# -- pretraining -------------------------------------------------------------------


def test_single_example_overfit():
    corpus = [(QUERY, FILLS)]
    result = pretrain_prior(corpus, epochs=400, learning_rate=0.05, seed=0)
    assert result.policy.nll(QUERY, FILLS) < 0.1


def test_pretraining_epoch_matches_per_example_reference(tiny_dataset):
    seqs, _ = tiny_dataset.subset("train")
    corpus = build_pretrain_corpus(seqs[:40], seed=2)
    assert PRETRAIN_BATCH < len(corpus) < 2 * PRETRAIN_BATCH  # one full minibatch and one short one
    learning_rate, seed = 1e-2, 3
    result = pretrain_prior(corpus, epochs=1, learning_rate=learning_rate, seed=seed)

    # the same start and shuffle; per-example gradients summed in row order from 0.0
    policy = Policy.fresh(seed=np.random.SeedSequence([seed, 0]).generate_state(1)[0])
    order = np.arange(len(corpus))
    np.random.default_rng([seed, 1]).shuffle(order)
    epoch_total = 0.0
    for start in range(0, len(order), PRETRAIN_BATCH):
        total_grads = {name: np.zeros_like(arr) for name, arr in policy.p.items()}
        for i in order[start : start + PRETRAIN_BATCH]:
            nll, grads = _reference_nll_and_grad(policy, *corpus[i])
            epoch_total += nll
            for name, g in grads.items():
                total_grads[name] += g
        policy.sgd_step(total_grads, learning_rate)
    # the summed gradient differs from the loop's in its last bits (see GRAD_RTOL), and so do the updates
    for name in PARAM_NAMES:
        assert np.max(np.abs(result.policy.p[name] - policy.p[name])) <= 1e-12 * np.max(np.abs(policy.p[name])), name
    assert result.epoch_nll == [pytest.approx(epoch_total / len(corpus), rel=1e-12, abs=0)]


def test_pretraining_fails_loudly_on_a_non_finite_prior(tiny_dataset):
    seqs, _ = tiny_dataset.subset("train")
    corpus = build_pretrain_corpus(seqs[:40], seed=2)
    with pytest.raises(FloatingPointError, match=r"^epoch 1: the prior is not finite"):
        pretrain_prior(corpus, epochs=3, learning_rate=1e300, seed=0)


def test_pretraining_curve_decreases_smoothed(tiny_dataset):
    seqs, _ = tiny_dataset.subset("train")
    corpus = build_pretrain_corpus(seqs[:300], seed=2)
    result = pretrain_prior(corpus, epochs=12, learning_rate=1e-3, seed=0)
    nll = result.epoch_nll
    smoothed = [float(np.mean(nll[max(0, i - 9) : i + 1])) for i in range(len(nll))]
    assert all(b <= a + 1e-9 for a, b in zip(smoothed, smoothed[1:]))


def test_pretraining_deterministic(tiny_dataset):
    seqs, _ = tiny_dataset.subset("train")
    corpus = build_pretrain_corpus(seqs[:60], seed=2)
    a = pretrain_prior(corpus, epochs=3, learning_rate=1e-3, seed=5)
    b = pretrain_prior(corpus, epochs=3, learning_rate=1e-3, seed=5)
    assert a.policy.params_equal(b.policy)


def test_validity_gate_raises_when_unmet(tiny_dataset):
    seqs, _ = tiny_dataset.subset("train")
    corpus = build_pretrain_corpus(seqs[:20], seed=2)
    queries = make_queries(5, seed=1)
    with pytest.raises(ValidityGateError):
        # one epoch on a tiny corpus leaves the policy near uniform
        pretrain_prior(corpus, epochs=1, learning_rate=1e-5, seed=0,
                       gate_queries=queries, gate_samples=200)


def test_gate_draws_each_query_share_in_one_batch(fresh_policy):
    # proposal i fills queries[i % 3], so 7 proposals split 3, 2, 2
    calls = []

    class Recording(Policy):
        def sample_batch(self, query, n, rng):
            calls.append((query, n))
            return super().sample_batch(query, n, rng)

    queries = make_queries(3, seed=1)
    fill_validity(Recording(fresh_policy.p), queries, 7, np.random.default_rng(0))
    assert calls == [(queries[0], 3), (queries[1], 2), (queries[2], 2)]


def test_gate_passes_for_trained_prior(tiny_prior):
    queries = make_queries(8, seed=44)
    validity = fill_validity(tiny_prior, queries, 300, np.random.default_rng(3))
    assert validity >= 0.9


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        pretrain_prior([], epochs=1)


@pytest.mark.parametrize("epochs, learning_rate, gate, message", [
    pytest.param(0, 1e-3, {}, "epochs must be >= 1", id="0-0.001-epochs must be >= 1"),
    pytest.param(1, 0.0, {}, "learning_rate must be > 0", id="1-0.0-learning_rate must be > 0"),
    pytest.param(1, -0.5, {}, "learning_rate must be > 0", id="1--0.5-learning_rate must be > 0"),
    pytest.param(1, float("nan"), {}, "learning_rate must be > 0", id="1-nan-learning_rate must be > 0"),
    pytest.param(20, 1e-3, {"gate_queries": [QUERY], "gate_samples": 0},
                 "fill-validity needs at least 1 sample and 1 query, got 0 and 1", id="no_gate_samples"),
    pytest.param(20, 1e-3, {"gate_queries": [], "gate_samples": 500},
                 "fill-validity needs at least 1 sample and 1 query, got 500 and 0", id="no_gate_queries"),
])
def test_pretraining_rejects_bad_settings_before_any_step(monkeypatch, epochs, learning_rate, gate, message):
    monkeypatch.setattr(Policy, "fresh", None)  # nothing is built
    with pytest.raises(ValueError, match=f"^{message}$"):
        pretrain_prior([(QUERY, FILLS)], epochs=epochs, learning_rate=learning_rate, **gate)


# -- copying and persistence ---------------------------------------------------------


def test_copy_is_deep(fresh_policy):
    clone = fresh_policy.copy()
    clone.p["embed"][0, 0] += 1.0
    assert not fresh_policy.params_equal(clone)


def test_serialization_round_trip(tmp_path, tiny_prior):
    path = tmp_path / "prior.json"
    tiny_prior.save(path)
    back = Policy.load(path)
    assert back.params_equal(tiny_prior)
    assert back.to_json_dict()["tokens"] == list(EMISSION_TOKENS)
    assert back.nll(QUERY, FILLS) == tiny_prior.nll(QUERY, FILLS)


@pytest.mark.parametrize(
    "key, value",
    [("tokens", ["C", "A", *EMISSION_TOKENS[2:]]), ("end_token", "^"), ("begin_token", "$")],
)
def test_load_rejects_another_alphabet(tmp_path, fresh_policy, key, value):
    payload = fresh_policy.to_json_dict()
    payload[key] = value
    path = tmp_path / "prior.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="not the fixed one"):
        Policy.load(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
def test_load_rejects_a_non_finite_parameter(tmp_path, fresh_policy, value):
    payload = fresh_policy.to_json_dict()
    payload["params"]["w_rec"][3][1] = value
    path = tmp_path / "prior.json"
    path.write_text(json.dumps(payload))  # json writes NaN and Infinity and reads them back
    with pytest.raises(ValueError) as info:
        Policy.load(path)
    assert str(info.value) == f"{path}: key 'params': key 'w_rec': holds a NaN or an infinity"
