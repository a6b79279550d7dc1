"""Embedding tables and per-graph node input assembly.

Word/attribute and sentence vectors are consumed from text files (they
are produced elsewhere); the trainable user and item tables live with the
model parameters.  Vector file format: first line `<count> <dim>`, then
`<id> <v1> ... <vdim>` per line, whitespace separated.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass, field

import numpy as np

from .corpus import UNK_TOKEN, Sentence

log = logging.getLogger(__name__)


class VectorFileError(Exception):
    pass


@dataclass
class EmbeddingTable:
    vectors: np.ndarray  # (count, dim)
    index: dict[str, int]  # id -> row
    path: str = ""  # the vector file it was read from

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    def lookup(self, key: str) -> np.ndarray | None:
        row = self.index.get(key)
        return None if row is None else self.vectors[row]


def load_vector_file(path) -> EmbeddingTable:
    """Parse a vector file into a table.

    A file that is not UTF-8, a malformed header, a row of the wrong length
    or with a non-numeric, NaN or infinite value, and a duplicate id are
    fatal and named by row; a completely empty file yields an empty table
    with a warning.  Blank lines are skipped: rows are counted, and numbered
    from 1, over data lines only.  The table is built from the rows read, so
    a header's count and dim allocate nothing.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return _read_vectors(fh, path)
    except UnicodeDecodeError as exc:
        raise VectorFileError(f"{path}: not UTF-8 ({exc.reason})") from None


def _read_vectors(fh, path) -> EmbeddingTable:
    header = fh.readline().split()
    if not header:
        log.warning("vector file %s is empty", path)
        return EmbeddingTable(np.zeros((0, 0)), index={}, path=str(path))
    if len(header) != 2 or not all(h.isdecimal() for h in header):
        raise VectorFileError(
            f"{path}: header row must be '<count> <dim>' as two integers, got {' '.join(header)!r}"
        )
    count, dim = int(header[0]), int(header[1])
    index: dict[str, int] = {}
    values_read = array("d")  # 8 bytes a value, where a list of floats takes 32
    for line in fh:
        parts = line.split()
        if not parts:
            continue
        row = len(index)  # every earlier data row added one id
        if row >= count:
            raise VectorFileError(f"{path}: more rows than the declared count {count}")
        key = parts[0]
        values = parts[1:]
        if len(values) != dim:
            raise VectorFileError(
                f"{path}: row {row + 1} ({key!r}) has {len(values)} values, expected {dim}"
            )
        if key in index:
            raise VectorFileError(f"{path}: duplicate id {key!r} at row {row + 1}")
        index[key] = row
        try:
            values_read.extend(map(float, values))
        except ValueError as exc:
            raise VectorFileError(
                f"{path}: row {row + 1} ({key!r}) has a non-numeric value ({exc})"
            ) from exc
    if len(index) != count:
        raise VectorFileError(f"{path}: declared {count} rows, found {len(index)}")
    vectors = np.frombuffer(values_read, dtype=float).reshape(count, dim)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        key = next(k for k, r in index.items() if r == row)
        raise VectorFileError(f"{path}: row {row + 1} ({key!r}) has a non-finite value")
    return EmbeddingTable(vectors, index=index, path=str(path))


def sentence_fallback_embedding(words, word_table: EmbeddingTable) -> np.ndarray:
    """Mean of the word vectors; unknown words contribute the unknown-token
    vector (or zero when the table has none).  Empty input gives zeros.
    """
    if not len(words):
        log.warning("averaging embedding of an empty token list; returning zeros")
        return np.zeros(word_table.dim)
    unk = word_table.lookup(UNK_TOKEN)
    if unk is None:
        unk = np.zeros(word_table.dim)
    rows = [word_table.lookup(w) if word_table.lookup(w) is not None else unk for w in words]
    return np.mean(rows, axis=0)


@dataclass
class NodeFeatureProvider:
    """Builds the static (non-trainable) node input matrices for a graph.

    Attribute node vectors come from the word table (attributes are
    vocabulary words; multiword surfaces average their constituents) and
    must match `hidden`.  Sentence vectors come from the sentence table
    when present; without one (the average-word-embedding ablation) they
    average word vectors.  An empty word or sentence table is an error.
    Missing attribute words count as zeros; a missing sentence id is an
    error, as the table is from another preprocess run.
    """

    hidden: int
    word_table: EmbeddingTable
    sentence_table: EmbeddingTable | None = None
    missing_attr: set[str] = field(default_factory=set, init=False)  # surfaces given zeros

    def __post_init__(self):
        if len(self.word_table) == 0:
            raise VectorFileError(f"{self.word_table.path}: attribute/word vector table is empty")
        if self.word_table.dim != self.hidden:
            raise VectorFileError(
                f"attribute/word vectors have dim {self.word_table.dim}, expected {self.hidden}"
            )
        if self.sentence_table is not None and len(self.sentence_table) == 0:
            raise VectorFileError(f"{self.sentence_table.path}: sentence vector table is empty")

    @property
    def sentence_dim(self) -> int:
        if self.sentence_table is not None:
            return self.sentence_table.dim
        return self.word_table.dim

    def attribute_vector(self, surface: str) -> np.ndarray:
        parts = surface.split()
        rows = []
        for p in parts:
            row = self.word_table.lookup(p)
            if row is not None:
                rows.append(row)
        if not rows:
            self.missing_attr.add(surface)
            return np.zeros(self.hidden)
        return np.mean(rows, axis=0)

    def sentence_vector(self, sentence: Sentence) -> np.ndarray:
        if self.sentence_table is None:
            return sentence_fallback_embedding(sentence.words, self.word_table)
        row = self.sentence_table.lookup(sentence.sentence_id)
        if row is None:
            raise VectorFileError(f"{self.sentence_table.path}: no vector for sentence id {sentence.sentence_id!r}; rebuild it from this corpus")
        return row

    def attr_matrix(self, surfaces: list[str]) -> np.ndarray:
        if not surfaces:
            return np.zeros((0, self.hidden))
        return np.stack([self.attribute_vector(s) for s in surfaces])

    def sent_matrix(self, sentences: list[Sentence]) -> np.ndarray:
        if not sentences:
            return np.zeros((0, self.sentence_dim))
        return np.stack([self.sentence_vector(s) for s in sentences])

    def report_misses(self) -> None:
        if self.missing_attr:
            log.warning("%d attribute vectors missing; used zeros", len(self.missing_attr))


@dataclass
class GraphInputs:
    """Static node inputs plus embedding-table rows for one graph."""

    attr_X: np.ndarray  # (M, hidden)
    sent_X: np.ndarray  # (S, sentence_dim)
    user_row: int
    item_row: int


def graph_inputs(graph, corpus, provider: NodeFeatureProvider, user_row: int, item_row: int) -> GraphInputs:
    surfaces = [corpus.lexicon.surface(a) for a in graph.attribute_ids]
    sentences = [corpus.sentences[s] for s in graph.sentence_ids]
    return GraphInputs(
        attr_X=provider.attr_matrix(surfaces),
        sent_X=provider.sent_matrix(sentences),
        user_row=user_row,
        item_row=item_row,
    )
