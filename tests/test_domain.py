import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpseq.domain import (
    BEGIN,
    EMISSION_TOKENS,
    FINGERPRINT_BUCKETS,
    HYDROPHOBIC,
    MASK,
    RESIDUES,
    SLOT_END,
    LabeledDataset,
    QueryTemplate,
    assemble,
    assemble_batch,
    fingerprints,
    make_dataset,
    make_queries,
    mask_out,
    oracle_label,
    read_dataset_csv,
    read_queries_csv,
    write_dataset_csv,
    write_queries_csv,
)

RES = RESIDUES

residue = st.sampled_from(RES)
sequences = st.text(alphabet=st.sampled_from("".join(RES)), min_size=1, max_size=14)


# -- alphabet ------------------------------------------------------------------


def test_default_vocabulary_shape():
    assert len(RES) == 20
    assert len(HYDROPHOBIC) == 8
    assert len(EMISSION_TOKENS) == 22
    assert EMISSION_TOKENS == (*RES, SLOT_END, BEGIN)


def test_alphabet_symbols_are_distinct_single_characters():
    assert len(set(EMISSION_TOKENS)) == len(EMISSION_TOKENS)
    assert all(len(t) == 1 for t in EMISSION_TOKENS)


def test_alphabet_excludes_mask_symbol_and_holds_the_hydrophobic_subset():
    assert MASK not in EMISSION_TOKENS
    assert HYDROPHOBIC <= set(RES)


# -- templates and assembly ------------------------------------------------------


def test_template_counts():
    t = QueryTemplate.from_text("A?C?EF")
    assert t.length == 6
    assert t.masked_count == 2
    assert t.masked_positions == (1, 3)


def test_template_requires_a_mask():
    with pytest.raises(ValueError):
        QueryTemplate.from_text("ACDEF")


def test_template_rejects_too_many_masks():
    with pytest.raises(ValueError):
        QueryTemplate.from_text("?????A")


def test_assemble_direct_substitution():
    q = QueryTemplate(("A", MASK, "C"))
    assert assemble(q, ("G$",)) == "AGC"


def test_assemble_fill_count_mismatch():
    q = QueryTemplate(("A", MASK, MASK))
    assert assemble(q, ("G$",)) is None


def test_assemble_multi_token_fill():
    q = QueryTemplate(("A", MASK))
    assert assemble(q, ("GD$",)) == "AGD"


def test_assemble_invalid_channels():
    q = QueryTemplate(("A", MASK, "C"))
    assert assemble(q, ("$",)) is None  # empty content
    assert assemble(q, ("GGGGG",)) is None  # cap-hit: five unterminated tokens
    assert assemble(q, ("GGGGD$",)) is None  # terminated but content too long
    assert assemble(q, ("G^$",)) is None  # non-residue symbol in content
    assert assemble(q, ("G$D$",)) is None  # terminator mid-fill ends up in content


def test_assemble_unterminated_short_fill_is_valid_content():
    # a fill lacking the terminator is judged on its content alone
    q = QueryTemplate(("A", MASK))
    assert assemble(q, ("GD",)) == "AGD"


@given(seq=st.text(alphabet=st.sampled_from("".join(RES)), min_size=2, max_size=12), data=st.data())
@settings(max_examples=150)
def test_mask_then_assemble_is_identity(seq, data):
    max_m = min(4, len(seq) - 1)
    m = data.draw(st.integers(1, max_m))
    positions = data.draw(
        st.lists(st.integers(0, len(seq) - 1), min_size=m, max_size=m, unique=True)
    )
    template, fills = mask_out(seq, positions)
    assert assemble(template, fills) == seq


_CAP = 5  # tokens a slot can hold: four of content and the terminator
_TOKEN_IDS = st.one_of(  # every emission id, with the terminator and BEGIN drawn often
    st.integers(0, len(EMISSION_TOKENS) - 1), st.sampled_from([EMISSION_TOKENS.index(SLOT_END), EMISSION_TOKENS.index(BEGIN)])
)


@st.composite
def _emitted_batches(draw):
    """A template and (B, S, 5) emitted ids with (B, S) slot lengths from 0 to the cap; ids past a length are
    the padding id or any other."""
    fixed = draw(st.lists(residue, min_size=1, max_size=8))
    masked = draw(st.integers(1, min(4, len(fixed))))
    query = QueryTemplate(tuple(draw(st.permutations([*fixed, *[MASK] * masked]))))
    n_rows = draw(st.integers(1, 6))
    shape = (n_rows, masked, _CAP)
    ids = np.array(draw(st.lists(_TOKEN_IDS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))).reshape(shape)
    lengths = np.array(draw(st.lists(st.integers(0, _CAP), min_size=n_rows * masked, max_size=n_rows * masked)))
    lengths = lengths.reshape(shape[:2])
    if draw(st.booleans()):
        ids[np.arange(_CAP) >= lengths[..., None]] = len(EMISSION_TOKENS)  # padded past the alphabet, as drawn
    return query, ids, lengths


@given(batch=_emitted_batches())
@settings(max_examples=150, derandomize=True)
def test_assemble_batch_equals_assemble_of_each_row(batch):
    # assemble is the reference: the arrays' validity and sequences must equal it on the fills the ids spell
    query, ids, lengths = batch
    valid, sequences = assemble_batch(query, ids, lengths)
    assert valid.shape == sequences.shape == (len(ids),)
    for row, slot_lengths, ok, sequence in zip(ids, lengths, valid.tolist(), sequences.tolist()):
        fills = tuple("".join(EMISSION_TOKENS[i] for i in slot[:n]) for slot, n in zip(row, slot_lengths))
        expected = assemble(query, fills)
        assert ok == (expected is not None), fills
        if ok:
            assert sequence == expected


def test_assemble_batch_covers_each_invalid_channel():
    q = QueryTemplate(("A", MASK, "C"))
    fills = ["G$", "$", "GGGGG", "GGGG$", "G^$", "GD", "^", ""]  # valid, empty, cap-hit, full, BEGIN, unterminated
    ids = np.full((len(fills), 1, _CAP), len(EMISSION_TOKENS))
    for b, fill in enumerate(fills):
        ids[b, 0, : len(fill)] = [EMISSION_TOKENS.index(t) for t in fill]
    valid, sequences = assemble_batch(q, ids, np.array([[len(f)] for f in fills]))
    assert valid.tolist() == [assemble(q, (f,)) is not None for f in fills] == [True, False, False, True, False,
                                                                                 True, False, False]
    assert sequences[valid].tolist() == ["AGC", "AGGGGC", "AGDC"]
    with pytest.raises(ValueError, match="2 slots for a template of 1 masked positions"):
        assemble_batch(q, np.zeros((1, 2, _CAP), dtype=int), np.ones((1, 2), dtype=int))


# -- oracle ----------------------------------------------------------------------


def test_oracle_window_examples():
    # length 10, exactly 5 hydrophobic -> h = 0.5 -> label 1
    assert oracle_label("AVILM" + "DEGHK") == 1
    # length 10, no hydrophobic -> 0
    assert oracle_label("DEGHKNPQRS") == 0
    # length 12, h = 0.5 -> length clause forces 0
    assert oracle_label("AVILMF" + "DEGHKN") == 0


def test_oracle_window_boundaries_exact():
    # h = 0.4 and h = 0.7 are inside the window (integer arithmetic, no float edge)
    assert oracle_label("AVIL" + "DEGHKN") == 1  # 4/10
    assert oracle_label("AVILMFW" + "DEG") == 1  # 7/10
    assert oracle_label("AVI" + "DEGHKNP") == 0  # 3/10
    assert oracle_label("AVILMFWC" + "DE") == 0  # 8/10


@given(seq=sequences, data=st.data())
@settings(max_examples=100)
def test_oracle_permutation_invariant(seq, data):
    perm = data.draw(st.permutations(list(seq)))
    assert oracle_label(seq) == oracle_label("".join(perm))


# -- fingerprints -----------------------------------------------------------------


def _naive_bigram_counts(seq):
    counts = {}
    for a, b in zip(seq, seq[1:]):
        counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def _fnv1a_bucket(i, j):
    # independent reimplementation of the documented hash
    h = 0xCBF29CE484222325
    for b in (i, j):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h % FINGERPRINT_BUCKETS


def test_fingerprint_length_one_is_zero():
    assert fingerprints(["A"])[0].sum() == 0


def test_fingerprint_bigram_hand_count():
    # ACAC: bigrams AC, CA, AC -> bucket(A,C) = 2, bucket(C,A) = 1
    fp = fingerprints(["ACAC"])[0]
    ia, ic = RES.index("A"), RES.index("C")
    assert fp[_fnv1a_bucket(ia, ic)] == 2
    assert fp[_fnv1a_bucket(ic, ia)] == 1
    assert fp.sum() == 3
    assert np.count_nonzero(fp) == 2  # no collision for this pair


@given(seq=sequences)
@settings(max_examples=100)
def test_fingerprint_matches_naive_counter(seq):
    fp = fingerprints([seq])[0]
    expected = np.zeros(FINGERPRINT_BUCKETS, dtype=np.int64)
    for (a, b), c in _naive_bigram_counts(seq).items():
        expected[_fnv1a_bucket(RES.index(a), RES.index(b))] += c
    assert np.array_equal(fp, expected)


@given(seq=sequences)
@settings(max_examples=100)
def test_fingerprint_total_is_length_minus_one(seq):
    assert fingerprints([seq])[0].sum() == len(seq) - 1


def test_fingerprint_deterministic():
    assert np.array_equal(fingerprints(["AVILMFWC"])[0], fingerprints(["AVILMFWC"])[0])


def test_fingerprints_batch_matches_single():
    seqs = ["ACAC", "AVILM", "D"]
    batch = fingerprints(seqs)
    for row, seq in zip(batch, seqs):
        assert np.array_equal(row, fingerprints([seq])[0])


@given(seqs=st.lists(st.one_of(st.just(""), residue, sequences), max_size=8))
@settings(max_examples=100)
def test_fingerprint_batches_match_the_naive_counter(seqs):
    # one pass over the whole batch: no pair may span two sequences, and empty or
    # length-1 entries keep their all-zero rows
    expected = np.zeros((len(seqs), FINGERPRINT_BUCKETS), dtype=np.int64)
    for row, seq in zip(expected, seqs):
        for (a, b), c in _naive_bigram_counts(seq).items():
            row[_fnv1a_bucket(RES.index(a), RES.index(b))] += c
    fp = fingerprints(seqs)
    assert fp.dtype == np.uint8
    assert np.array_equal(fp, expected)


def test_fingerprint_counts_stop_at_255():
    ia = RES.index("A")
    assert fingerprints(["A" * 256])[0, _fnv1a_bucket(ia, ia)] == 255
    message = rf"^sequence 'A{{20}}'\.\.\. \(length 257\) puts 256 bigrams in bucket {_fnv1a_bucket(ia, ia)}; "
    with pytest.raises(ValueError, match=message + "a fingerprint count must be at most 255$"):
        fingerprints(["AC", "A" * 257])


@pytest.mark.parametrize(
    "seqs, shown, symbol",
    [(["X"], "'X'", "X"), (["AC", "", "CXA"], "'CXA'", "X"), (["AC?"], "'AC?'", "?"),
     (["AC" * 15 + "b"], "'ACACACACACACACACACAC'... (length 31)", "b")],
    ids=["length-1", "in-batch", "mask", "long"],
)
def test_fingerprint_rejects_a_symbol_that_is_not_a_residue(seqs, shown, symbol):
    message = f"sequence {shown} holds {symbol!r}, which is not a residue token"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fingerprints(seqs)


def test_fingerprints_of_the_dataset_allocate_little_beyond_their_rows(dataset5k):
    # 5,000 rows of uint8 counts are 10.2 MB; the bound leaves room for the batch's scratch, not for a wider dtype
    seqs = list(dataset5k.sequences)
    tracemalloc.start()
    try:
        fingerprints(seqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# -- dataset generation ------------------------------------------------------------


def test_make_dataset_deterministic():
    a = make_dataset(300, seed=7)
    b = make_dataset(300, seed=7)
    assert a.sequences == b.sequences
    assert np.array_equal(a.labels, b.labels)
    assert a.splits == b.splits


def test_make_dataset_no_noise_matches_oracle():
    ds = make_dataset(300, noise_rate=0.0, seed=5)
    for seq, label in zip(ds.sequences, ds.labels):
        assert label == oracle_label(seq)


def test_make_dataset_noise_fraction_in_binomial_range():
    ds = make_dataset(1000, noise_rate=0.05, seed=12)
    flipped = sum(
        1 for seq, label in zip(ds.sequences, ds.labels) if label != oracle_label(seq)
    )
    assert 0.03 <= flipped / 1000 <= 0.07


def test_make_dataset_split_sizes_and_partition():
    ds = make_dataset(1000, seed=2)
    train = sum(1 for s in ds.splits if s == "train")
    assert train == 900
    assert len(set(ds.sequences)) == 1000


def test_make_dataset_capacity_guard():
    # one more than the 20**6 distinct length-6 sequences: raises before drawing anything
    with pytest.raises(ValueError):
        make_dataset(20**6 + 1, length_weights={6: 1.0})


def test_conflicting_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        LabeledDataset(
            ("ACDEFG", "ACDEFG"), np.array([0, 1], dtype=np.int8), ("train", "train")
        )


# -- query generation ---------------------------------------------------------------


def test_make_queries_count_and_mask_bounds():
    queries = make_queries(150, lengths=(6, 7, 10), seed=4)
    assert len(queries) == 150
    assert all(1 <= q.masked_count <= 4 for q in queries)
    assert set(q.length for q in queries) <= {6, 7, 10}


def test_make_queries_deterministic():
    a = make_queries(20, seed=9)
    b = make_queries(20, seed=9)
    assert [q.to_text() for q in a] == [q.to_text() for q in b]


def test_make_queries_rejects_out_of_range_lengths():
    with pytest.raises(ValueError):
        make_queries(5, lengths=(4, 6), seed=0)


# -- csv round-trips -----------------------------------------------------------------


def test_dataset_csv_round_trip(tmp_path):
    ds = make_dataset(120, seed=6)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert back.sequences == ds.sequences
    assert np.array_equal(back.labels, ds.labels)
    assert back.splits == ds.splits
    assert path.read_text().splitlines()[0] == "sequence,label,split"


def test_queries_csv_round_trip(tmp_path):
    queries = make_queries(25, seed=14)
    path = tmp_path / "queries.csv"
    write_queries_csv(queries, path)
    back = read_queries_csv(path)
    assert [q.to_text() for q in back] == [q.to_text() for q in queries]
    assert path.read_text().splitlines()[0] == "template"
    assert MASK in path.read_text()


@pytest.mark.parametrize("row", ["ACDEFG", "ACDEFG,1,train,extra"], ids=["short", "long"])
def test_dataset_csv_rejects_a_row_of_another_width(tmp_path, row):
    path = tmp_path / "data.csv"
    path.write_text(f"sequence,label,split\nACDEFH,0,test\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 3 cells")):
        read_dataset_csv(path)


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("data.csv", "sequence,label,split\nACDEFH,0,test\nACDXFG,1,train\n", ":3: non-residue symbol"),
        ("data.csv", "sequence,label,split\nACDEFH,x,test\n", ":2: invalid literal"),
        ("queries.csv", "template\nAC?DE\nAC?XE\n", ":3: template entry 'X'"),
        ("queries.csv", "template\nACDE\n", ":2: masked_count"),
    ],
    ids=["residue", "label", "template_entry", "unmasked_template"],
)
def test_csv_readers_name_the_file_and_line_of_a_bad_cell(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    read = read_dataset_csv if name == "data.csv" else read_queries_csv
    with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
        read(path)
