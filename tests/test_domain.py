import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpseq.domain import (
    DEFAULT_VOCABULARY,
    FINGERPRINT_BUCKETS,
    MASK,
    LabeledDataset,
    QueryTemplate,
    Vocabulary,
    assemble,
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

VOCAB = DEFAULT_VOCABULARY
RES = VOCAB.residue_tokens

residue = st.sampled_from(RES)
sequences = st.text(alphabet=st.sampled_from("".join(RES)), min_size=1, max_size=14)


# -- vocabulary ----------------------------------------------------------------


def test_default_vocabulary_shape():
    assert len(RES) == 20
    assert len(VOCAB.hydrophobic_tokens) == 8
    assert VOCAB.size == 22


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocabulary(residue_tokens=tuple("AAC"), hydrophobic_tokens=frozenset("A"))


def test_vocabulary_rejects_mask_symbol():
    with pytest.raises(ValueError):
        Vocabulary(residue_tokens=("?", "A"), hydrophobic_tokens=frozenset("A"))


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
@settings(max_examples=150, deadline=None)
def test_mask_then_assemble_is_identity(seq, data):
    max_m = min(4, len(seq) - 1)
    m = data.draw(st.integers(1, max_m))
    positions = data.draw(
        st.lists(st.integers(0, len(seq) - 1), min_size=m, max_size=m, unique=True)
    )
    template, fills = mask_out(seq, positions)
    assert assemble(template, fills) == seq


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
@settings(max_examples=100, deadline=None)
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
@settings(max_examples=100, deadline=None)
def test_fingerprint_matches_naive_counter(seq):
    fp = fingerprints([seq])[0]
    expected = np.zeros(FINGERPRINT_BUCKETS, dtype=np.int64)
    for (a, b), c in _naive_bigram_counts(seq).items():
        expected[_fnv1a_bucket(RES.index(a), RES.index(b))] += c
    assert np.array_equal(fp, expected)


@given(seq=sequences)
@settings(max_examples=100, deadline=None)
def test_fingerprint_total_is_length_minus_one(seq):
    assert fingerprints([seq])[0].sum() == len(seq) - 1


def test_fingerprint_deterministic():
    assert np.array_equal(fingerprints(["AVILMFWC"])[0], fingerprints(["AVILMFWC"])[0])


def test_fingerprints_batch_matches_single():
    seqs = ["ACAC", "AVILM", "D"]
    batch = fingerprints(seqs)
    for row, seq in zip(batch, seqs):
        assert np.array_equal(row, fingerprints([seq])[0])


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
    small = Vocabulary(
        residue_tokens=tuple("AC"), hydrophobic_tokens=frozenset("A")
    )
    with pytest.raises(ValueError):
        make_dataset(100, length_weights={6: 1.0}, seed=0, vocab=small)


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
