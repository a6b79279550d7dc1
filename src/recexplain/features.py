"""Embedding tables and per-graph node input assembly.

Word/attribute and sentence vectors are consumed from text files (they
are produced elsewhere); the trainable user and item tables live with the
model parameters.  Vector file format: first line `<count> <dim>`, then
`<id> <v1> ... <vdim>` per line, whitespace separated.

This module owns each node's input vector: `provider_from_vectors` builds
a `NodeFeatureProvider`, the attribute and sentence tables, once per
training run from the vector files; every checkpoint stores the tables,
and select reads them back (`training.checkpoint_provider`).
`graph_inputs` gathers one graph's rows.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass

import numpy as np

from .corpus import UNK_TOKEN, Corpus

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
    fatal and named by row; a file of blank lines only yields an empty table
    with a warning.  Blank lines are skipped, before the header too: rows
    are counted, and numbered from 1, over data lines only.  The table is
    built from the rows read, so a header's count and dim allocate nothing.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return _read_vectors(fh, path)
    except UnicodeDecodeError as exc:
        raise VectorFileError(f"{path}: not UTF-8 ({exc.reason})") from None


def _read_vectors(fh, path) -> EmbeddingTable:
    header = next((parts for line in fh if (parts := line.split())), None)
    if header is None:
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
    rows = [unk if (row := word_table.lookup(w)) is None else row for w in words]
    return np.mean(rows, axis=0)


@dataclass
class NodeFeatureProvider:
    """The static (non-trainable) node input tables of one training run:
    train builds them (`provider_from_vectors`), select reads them from a
    checkpoint (`training.checkpoint_provider`)."""

    attr_X: np.ndarray  # (lexicon size, hidden): a row per attribute id
    sent_X: np.ndarray  # (training sentences, sentence_dim): rows in `Corpus.sentence_rows` order

    @property
    def sentence_dim(self) -> int:
        return int(self.sent_X.shape[1])


def provider_from_vectors(corpus: Corpus, hidden: int, word_table: EmbeddingTable, sentence_table: EmbeddingTable | None = None) -> NodeFeatureProvider:
    """The node input tables of `corpus`, built from the vector files.

    `attr_X` comes from the word table, whose width must be `hidden`: an
    attribute's row averages the vectors of its lexicon tokens (so `wi-fi`
    averages `wi`, `-` and `fi`).  An attribute none of whose tokens has a
    word vector gets zeros; their count is logged once.  `sent_X` rows come
    from the sentence table when present; without one (the
    average-word-embedding ablation) they average word vectors.  An empty word or sentence table is an error, and so is a
    training sentence the sentence table lacks: the table is from another
    preprocess run.
    """
    if len(word_table) == 0:
        raise VectorFileError(f"{word_table.path}: attribute/word vector table is empty")
    if word_table.dim != hidden:
        raise VectorFileError(f"attribute/word vectors have dim {word_table.dim}, expected {hidden}")
    if sentence_table is not None and len(sentence_table) == 0:
        raise VectorFileError(f"{sentence_table.path}: sentence vector table is empty")

    attr_X = np.zeros((len(corpus.lexicon), hidden))
    missing = 0
    for fid, tokens in enumerate(corpus.lexicon.tokens):
        rows = [row for p in tokens if (row := word_table.lookup(p)) is not None]
        if rows:
            attr_X[fid] = np.mean(rows, axis=0)
        else:
            missing += 1
    if missing:
        log.warning("%d attribute vectors missing; used zeros", missing)

    sids = list(corpus.sentence_rows)
    if sentence_table is None:
        sent_X = np.zeros((len(sids), word_table.dim))
        for i, sid in enumerate(sids):
            sent_X[i] = sentence_fallback_embedding(corpus.sentences[sid].words, word_table)
    else:
        rows = [sentence_table.index.get(sid) for sid in sids]
        if None in rows:
            sid = sids[rows.index(None)]
            raise VectorFileError(f"{sentence_table.path}: no vector for sentence id {sid!r}; rebuild it from this corpus")
        sent_X = sentence_table.vectors[rows]
    return NodeFeatureProvider(attr_X, sent_X)


@dataclass
class GraphInputs:
    """Static node inputs plus embedding-table rows for one graph."""

    attr_X: np.ndarray  # (M, hidden)
    sent_X: np.ndarray  # (S, sentence_dim)
    user_row: int
    item_row: int


def graph_inputs(graph, corpus: Corpus, provider: NodeFeatureProvider) -> GraphInputs:
    """The graph's node inputs: its attribute and sentence rows gathered
    from the provider's tables, its user and item rows from the corpus."""
    return GraphInputs(
        attr_X=provider.attr_X[list(graph.attribute_ids)],
        sent_X=provider.sent_X[[corpus.sentence_rows[s] for s in graph.sentence_ids]],
        user_row=corpus.user_rows[graph.user_id],
        item_row=corpus.item_rows[graph.item_id],
    )
