"""Surrogate sequence domain: the fixed alphabet, masked-fill templates, assembly,
ground-truth labels, hashed bigram fingerprints, and dataset/query generation.

Sequences are plain strings of single-character residue tokens. A query
template is a sequence with some positions replaced by the mask marker ``?``;
a proposal fills each masked slot with a short run of residue tokens
terminated by the slot-end symbol.

The alphabet is fixed: 20 residue tokens, of which 8 are hydrophobic, plus the
slot-end and begin symbols the policy emits and starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .tables import check_count, read_table, write_table

MASK = "?"
RESIDUES = tuple("ACDEFGHIKLMNPQRSTVWY")
HYDROPHOBIC = frozenset("AVILMFWC")  # drives the ground-truth label rule
SLOT_END = "$"  # terminates a slot fill during generation
BEGIN = "^"  # marks the start of the emission stream
EMISSION_TOKENS = (*RESIDUES, SLOT_END, BEGIN)
MAX_MASKED = 4
MAX_FILL_TOKENS = 4
FINGERPRINT_BUCKETS = 2048
TRAIN_FRACTION = 0.9

# lengths 6/7/10 weighted 40/30/30
DEFAULT_LENGTH_WEIGHTS = {6: 0.4, 7: 0.3, 10: 0.3}
DEFAULT_QUERY_LENGTHS = tuple(DEFAULT_LENGTH_WEIGHTS)  # queries come in the dataset's lengths
DEFAULT_NOISE_RATE = 0.05  # share of dataset labels flipped

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_UINT64_MASK = 0xFFFFFFFFFFFFFFFF
_MAX_COUNT = np.iinfo(np.uint8).max  # the largest bigram count a fingerprint holds
_END_INDEX = EMISSION_TOKENS.index(SLOT_END)
_CODEPOINTS = np.array([*map(ord, EMISSION_TOKENS), 0], dtype=np.uint32)  # the index past the alphabet reads as NUL


def _fnv1a_pair(i: int, j: int) -> int:
    """FNV-1a 64-bit hash of two small token ordinals, one byte each."""
    h = _FNV_OFFSET
    for b in (i, j):
        h ^= b
        h = (h * _FNV_PRIME) & _UINT64_MASK
    return h


_RESIDUE_INDEX = {t: i for i, t in enumerate(RESIDUES)}
# the fingerprint bucket of every ordered residue pair
_BUCKET_TABLE = np.array(
    [[_fnv1a_pair(i, j) % FINGERPRINT_BUCKETS for j in range(len(RESIDUES))]
     for i in range(len(RESIDUES))],
    dtype=np.int64,
)


@dataclass(frozen=True)
class QueryTemplate:
    """A residue-token sequence with 1..4 positions masked out for generation."""

    positions: tuple[str, ...]

    def __post_init__(self):
        for p in self.positions:  # an entry of several characters is not a residue token either
            if p != MASK and p not in _RESIDUE_INDEX:
                raise ValueError(f"template entry {p!r} is not a residue token")
        m = self.masked_count
        if not 1 <= m <= MAX_MASKED:
            raise ValueError(f"masked_count must be in [1, {MAX_MASKED}], got {m}")
        if m >= len(self.positions):
            raise ValueError("masked_count must be smaller than template length")

    @property
    def length(self) -> int:
        return len(self.positions)

    @property
    def masked_count(self) -> int:
        return sum(1 for p in self.positions if p == MASK)

    def to_text(self) -> str:
        return "".join(self.positions)

    @classmethod
    def from_text(cls, text: str) -> "QueryTemplate":
        return cls(tuple(text))


def assemble(query: QueryTemplate, fills: Sequence[str]) -> str | None:
    """Substitute slot fills into the template; ``None`` marks an invalid proposal.

    A fill is the raw emitted slot string: residue tokens optionally ending in
    the slot-end symbol (absent when generation hit the per-slot cap). Invalid
    outcomes: wrong fill count, empty content, content longer than
    ``MAX_FILL_TOKENS``, or any non-residue symbol in the content.
    """
    if len(fills) != query.masked_count:
        return None
    out: list[str] = []
    fill_iter = iter(fills)
    for entry in query.positions:
        if entry != MASK:
            out.append(entry)
            continue
        fill = next(fill_iter)
        content = fill[:-1] if fill.endswith(SLOT_END) else fill
        if not 1 <= len(content) <= MAX_FILL_TOKENS:
            return None
        if any(t not in _RESIDUE_INDEX for t in content):
            return None
        out.append(content)
    return "".join(out)


def assemble_batch(query: QueryTemplate, ids: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`assemble` of B rows of emitted token ids at once: each row's validity and sequence.

    Row b emitted ``ids[b, s, :lengths[b, s]]`` in slot s, as indices into
    ``EMISSION_TOKENS``; ids past a slot's length are ignored, and may be the
    index past the alphabet. A slot's content is its tokens less a final
    terminator, and a row is valid when every content is 1 to
    ``MAX_FILL_TOKENS`` residue tokens, exactly when :func:`assemble` of its
    fills is not None. Returns (B,) booleans and the (B,) sequences as a
    string array, whose entries at invalid rows mean nothing. The contents are
    viewed as fixed-width strings and joined to the template's fixed runs with
    a few vectorized string additions.
    """
    n_slots, cap = ids.shape[1:]
    if n_slots != query.masked_count:
        raise ValueError(f"{n_slots} slots for a template of {query.masked_count} masked positions")
    position = np.arange(cap)
    content = lengths - ((ids == _END_INDEX) & (position == lengths[..., None] - 1)).any(axis=2)
    inside = position < content[..., None]
    residues = ~(inside & (ids >= len(RESIDUES))).any(axis=2)
    valid = ((content >= 1) & (content <= MAX_FILL_TOKENS) & residues).all(axis=1)
    fills = np.where(inside, _CODEPOINTS[ids], 0).view(f"<U{cap}")[..., 0]
    pieces = query.to_text().split(MASK)  # the fixed runs around the slots
    sequences = np.full(len(ids), pieces[0])
    for slot, piece in enumerate(pieces[1:]):
        sequences = np.char.add(np.char.add(sequences, fills[:, slot]), piece)
    return valid, sequences


def mask_out(seq: str, positions: Iterable[int]) -> tuple[QueryTemplate, tuple[str, ...]]:
    """Turn a full sequence into (template, ground-truth fills) by masking positions."""
    pos = sorted(set(positions))
    entries = list(seq)
    fills = []
    for p in pos:
        fills.append(seq[p] + SLOT_END)
        entries[p] = MASK
    return QueryTemplate(tuple(entries)), tuple(fills)


def oracle_label(seq: str) -> int:
    """Deterministic ground-truth label.

    Label 1 iff the hydrophobic fraction h lies in [0.4, 0.7] and the sequence
    is at most 10 tokens long. The window test uses exact integer arithmetic
    (0.4 <= h <=> 5*count >= 2*len, h <= 0.7 <=> 10*count <= 7*len).
    """
    n = len(seq)
    count = sum(1 for t in seq if t in HYDROPHOBIC)
    in_window = 5 * count >= 2 * n and 10 * count <= 7 * n
    return int(in_window and n <= 10)


def fingerprints(seqs: Sequence[str]) -> np.ndarray:
    """Hashed bigram count fingerprints with 2048 buckets, one ``uint8`` row per sequence.

    Each adjacent token pair is hashed with 64-bit FNV-1a over the two residue
    ordinals and counted modulo the bucket count; a length-1 sequence maps to
    the all-zero vector. Raises ValueError naming the sequence when it holds a
    symbol that is not a residue token, or more than 255 bigrams in one bucket.
    """
    text = "".join(seqs)
    ords = np.fromiter(map(_RESIDUE_INDEX.get, text, repeat(-1)), dtype=np.intp, count=len(text))
    row = np.repeat(np.arange(len(seqs)), [len(seq) for seq in seqs])  # each token's sequence
    if ords.min(initial=0) < 0:
        first = int(ords.argmin())
        raise ValueError(f"sequence {_shown(seqs[row[first]])} holds {text[first]!r}, which is not a residue token")
    inside = row[1:] == row[:-1]  # the pairs that stay within one sequence
    cells = row[1:][inside] * FINGERPRINT_BUCKETS + _BUCKET_TABLE[ords[:-1][inside], ords[1:][inside]]
    cells, counts = np.unique(cells, return_counts=True)
    if counts.max(initial=0) > _MAX_COUNT:
        seq, bucket = divmod(int(cells[counts.argmax()]), FINGERPRINT_BUCKETS)
        raise ValueError(
            f"sequence {_shown(seqs[seq])} puts {counts.max()} bigrams in bucket {bucket}; "
            f"a fingerprint count must be at most {_MAX_COUNT}"
        )
    out = np.zeros((len(seqs), FINGERPRINT_BUCKETS), dtype=np.uint8)
    out.flat[cells] = counts
    return out


def _shown(seq: str) -> str:
    """A sequence as an error message names it: whole up to 20 symbols, else its start and its length."""
    return repr(seq) if len(seq) <= 20 else f"{seq[:20]!r}... (length {len(seq)})"


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Labeled sequences with train/test split tags."""

    sequences: tuple[str, ...]
    labels: np.ndarray  # int8, values in {0, 1}
    splits: tuple[str, ...]  # "train" | "test"

    def __post_init__(self):
        n = len(self.sequences)
        if len(self.labels) != n or len(self.splits) != n:
            raise ValueError("sequences, labels and splits must have equal length")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        if any(s not in ("train", "test") for s in self.splits):
            raise ValueError("split tags must be 'train' or 'test'")
        seen: dict[str, int] = {}
        for seq, label in zip(self.sequences, self.labels):
            if seen.setdefault(seq, int(label)) != int(label):
                raise ValueError(f"conflicting labels for duplicate sequence {seq!r}")

    def __len__(self) -> int:
        return len(self.sequences)

    def subset(self, split: str) -> tuple[list[str], np.ndarray]:
        keep = [i for i, s in enumerate(self.splits) if s == split]
        seqs = [self.sequences[i] for i in keep]
        return seqs, self.labels[np.array(keep, dtype=np.intp)]


def make_dataset(
    n: int,
    length_weights: dict[int, float] | None = None,
    noise_rate: float = DEFAULT_NOISE_RATE,
    seed: int = 0,
) -> LabeledDataset:
    """Generate n unique random sequences with noisy oracle labels and a 90/10 split.

    Label-flip noise applies only here, at dataset-generation time; the oracle
    itself stays clean for property checks.
    """
    check_count("n", n)
    if not 0 <= noise_rate < 1:
        raise ValueError("noise_rate must be in [0, 1)")
    weights = dict(length_weights or DEFAULT_LENGTH_WEIGHTS)
    lengths = sorted(weights)
    if any(weights[L] < 0 for L in lengths) or sum(weights.values()) <= 0:
        raise ValueError("length weights must be nonnegative with positive sum")
    capacity = sum(len(RESIDUES) ** L for L in lengths)
    if n > capacity:
        raise ValueError(f"n={n} exceeds the {capacity} distinct sequences available")

    rng = np.random.default_rng(seed)
    probs = np.array([weights[L] for L in lengths], dtype=float)
    probs /= probs.sum()

    seqs: list[str] = []
    seen: set[str] = set()
    attempts = 0
    max_attempts = 1000 * n + 10_000
    while len(seqs) < n:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError("exhausted attempts drawing unique sequences")
        L = lengths[rng.choice(len(lengths), p=probs)]
        seq = "".join(RESIDUES[i] for i in rng.integers(0, len(RESIDUES), L))
        if seq not in seen:
            seen.add(seq)
            seqs.append(seq)

    labels = np.array([oracle_label(s) for s in seqs], dtype=np.int8)
    flips = rng.random(n) < noise_rate
    labels = np.where(flips, 1 - labels, labels).astype(np.int8)

    n_train = int(TRAIN_FRACTION * n)
    order = rng.permutation(n)
    split_tags = np.empty(n, dtype=object)
    split_tags[order[:n_train]] = "train"
    split_tags[order[n_train:]] = "test"
    return LabeledDataset(tuple(seqs), labels, tuple(split_tags))


def make_queries(
    n: int,
    lengths: Sequence[int] = DEFAULT_QUERY_LENGTHS,
    max_masked: int = MAX_MASKED,
    seed: int = 0,
) -> list[QueryTemplate]:
    """Draw n random templates with 1..max_masked masked positions each."""
    check_count("n", n)
    lengths = sorted(set(lengths))
    if not lengths or any(L < 6 or L > 12 for L in lengths):
        raise ValueError("query lengths must lie in [6, 12]")
    if not 1 <= max_masked <= MAX_MASKED:
        raise ValueError(f"max_masked must be in [1, {MAX_MASKED}]")
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(n):
        L = lengths[rng.integers(0, len(lengths))]
        seq = "".join(RESIDUES[i] for i in rng.integers(0, len(RESIDUES), L))
        m = int(rng.integers(1, max_masked + 1))
        positions = rng.choice(L, size=m, replace=False)
        template, _ = mask_out(seq, positions.tolist())
        queries.append(template)
    return queries


@dataclass(frozen=True)
class _DatasetRow:
    sequence: str
    label: int
    split: str

    def __post_init__(self):
        if not self.sequence or any(t not in _RESIDUE_INDEX for t in self.sequence):
            raise ValueError(f"non-residue symbol in sequence {self.sequence!r}")
        if self.label not in (0, 1):
            raise ValueError(f"label {self.label} is not 0 or 1")
        if self.split not in ("train", "test"):
            raise ValueError(f"split {self.split!r} is not 'train' or 'test'")


@dataclass(frozen=True)
class _QueryRow:
    template: str

    def __post_init__(self):
        QueryTemplate.from_text(self.template)  # built here, so a bad template names its file and line


def write_dataset_csv(dataset: LabeledDataset, path: str | Path) -> None:
    rows = zip(dataset.sequences, dataset.labels.tolist(), dataset.splits)
    write_table(path, _DatasetRow, [_DatasetRow(*row) for row in rows])


def read_dataset_csv(path: str | Path) -> LabeledDataset:
    """The dataset a CSV holds; a bad row, or a sequence given two labels, raises ValueError naming file and line."""
    rows = read_table(path, _DatasetRow)
    first: dict[str, int] = {}  # sequence -> index of its first row; row i is line i + 2 unless a quoted cell wraps
    for i, row in enumerate(rows):
        j = first.setdefault(row.sequence, i)
        if rows[j].label != row.label:
            raise ValueError(f"{path}:{i + 2}: sequence {row.sequence!r} has label {row.label}, "
                             f"but line {j + 2} gave it label {rows[j].label}")
    labels = np.array([row.label for row in rows], dtype=np.int8)
    return LabeledDataset(tuple(row.sequence for row in rows), labels, tuple(row.split for row in rows))


def write_queries_csv(queries: Sequence[QueryTemplate], path: str | Path) -> None:
    write_table(path, _QueryRow, [_QueryRow(q.to_text()) for q in queries])


def read_queries_csv(path: str | Path) -> list[QueryTemplate]:
    """The templates a CSV holds; a bad row raises ValueError naming the file and the line."""
    return [QueryTemplate.from_text(row.template) for row in read_table(path, _QueryRow)]
