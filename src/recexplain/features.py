"""Embedding tables and per-graph node input assembly.

Word/attribute and sentence vectors are consumed from text files (they
are produced elsewhere); the trainable user and item tables live with the
model parameters.  Vector file format: first line `<count> <dim>`, then
`<id> <v1> ... <vdim>` per line, whitespace separated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import UNK_TOKEN, Sentence

log = logging.getLogger(__name__)


class VectorFileError(Exception):
    pass


@dataclass
class EmbeddingTable:
    vectors: np.ndarray  # (count, dim)
    index: dict[str, int] | None = None  # id -> row; None for positional tables

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1]) if self.vectors.ndim == 2 else 0

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    def lookup(self, key: str) -> np.ndarray | None:
        if self.index is None:
            raise VectorFileError("table has no id index")
        row = self.index.get(key)
        return None if row is None else self.vectors[row]


def load_vector_file(path) -> EmbeddingTable:
    """Parse a vector file into a table.

    Row-length mismatches and duplicate ids are fatal; a completely empty
    file yields an empty table with a warning.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if not header:
            log.warning("vector file %s is empty", path)
            return EmbeddingTable(np.zeros((0, 0)), index={})
        if len(header) != 2:
            raise VectorFileError(f"{path}: header must be '<count> <dim>'")
        count, dim = int(header[0]), int(header[1])
        index: dict[str, int] = {}
        vectors = np.zeros((count, dim))
        for row, line in enumerate(fh):
            parts = line.split()
            if not parts:
                continue
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
            vectors[row] = [float(v) for v in values]
        if len(index) != count:
            raise VectorFileError(f"{path}: declared {count} rows, found {len(index)}")
    return EmbeddingTable(vectors, index=index)


def save_vector_file(path, index: dict[str, int], vectors: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{vectors.shape[0]} {vectors.shape[1]}\n")
        for key, row in sorted(index.items(), key=lambda kv: kv[1]):
            vals = " ".join(repr(float(v)) for v in vectors[row])
            fh.write(f"{key} {vals}\n")


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
    average word vectors.  Missing ids fall back with counted warnings.
    """

    hidden: int
    word_table: EmbeddingTable | None = None
    sentence_table: EmbeddingTable | None = None
    missing_attr: int = field(default=0, init=False)
    missing_sent: int = field(default=0, init=False)

    def __post_init__(self):
        if self.word_table is not None and len(self.word_table) and self.word_table.dim != self.hidden:
            raise VectorFileError(
                f"attribute/word vectors have dim {self.word_table.dim}, expected {self.hidden}"
            )
        if self.sentence_table is not None and len(self.sentence_table) == 0:
            raise VectorFileError("sentence vector table is empty")
        if self.sentence_table is None and self.word_table is None:
            raise VectorFileError("need a word table for average-word sentence embeddings")

    @property
    def sentence_dim(self) -> int:
        if self.sentence_table is not None:
            return self.sentence_table.dim
        return self.word_table.dim

    def attribute_vector(self, surface: str) -> np.ndarray:
        if self.word_table is None:
            self.missing_attr += 1
            return np.zeros(self.hidden)
        parts = surface.split()
        rows = []
        for p in parts:
            row = self.word_table.lookup(p)
            if row is not None:
                rows.append(row)
        if not rows:
            self.missing_attr += 1
            return np.zeros(self.hidden)
        return np.mean(rows, axis=0)

    def sentence_vector(self, sentence: Sentence) -> np.ndarray:
        if self.sentence_table is not None:
            row = self.sentence_table.lookup(sentence.sentence_id)
            if row is not None:
                return row
            self.missing_sent += 1
            if self.word_table is not None:
                return sentence_fallback_embedding(sentence.words, self.word_table)
            return np.zeros(self.sentence_dim)
        return sentence_fallback_embedding(sentence.words, self.word_table)

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
            log.warning("%d attribute vectors missing; used zeros", self.missing_attr)
        if self.missing_sent:
            log.warning("%d sentence vectors missing; used word averages", self.missing_sent)


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
