"""Per-(user, item) heterogeneous graph construction.

This module owns the pool rule (`build_pair_graph`).  A `PairGraph` is
structure only: node inputs are `features.graph_inputs`'s, and labels and
targets are `training.Trainer`'s.

Each graph has one user node, one item node, the attribute nodes occurring
in the candidate sentences, and the candidate sentence nodes.  Edges are
undirected and binary: user-attribute and item-attribute co-occurrence
links (from training reviews) and attribute-sentence membership links.
Node order is fixed (user, item, attributes by id, sentences by id) so
downstream tensors are reproducible.

Self loops are always on: attention always includes each node itself, so
every node attends to at least one node.  Each graph keeps its attention
edges as index arrays, derived once from `neighbors` when it is made, and
`PairGraph.edge_arrays` returns them (`Edges`); nothing n x n is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, CorpusError

USER_NODE = 0
ITEM_NODE = 1


class EmptyPoolError(CorpusError):
    """Raised when a (user, item) pair has no candidate sentences."""


class Edges(NamedTuple):
    """A graph's attention edges i <- j: `neighbors` plus every self loop,
    sorted by (dst, src), so row i's edges are `starts[i]` up to
    `starts[i + 1]` and none is empty."""

    dst: np.ndarray  # (E,) attending node i
    src: np.ndarray  # (E,) attended node j
    starts: np.ndarray  # (n,) row i's first edge
    flat: np.ndarray  # (E,) dst * n + src, the edge's cell in a raveled (n, n) array


@dataclass
class PairGraph:
    user_id: str
    item_id: str
    attribute_ids: tuple[int, ...]
    sentence_ids: tuple[str, ...]
    neighbors: list[np.ndarray]  # undirected adjacency, no self-loops, sorted
    _edges: Edges = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # derived here from `neighbors`, so a graph made by any caller has them
        n = len(self.neighbors)
        nodes = np.arange(n)
        rows = np.repeat(nodes, np.fromiter(map(len, self.neighbors), dtype=np.int64, count=n))
        flat = np.concatenate([rows * n + np.concatenate(self.neighbors), nodes * (n + 1)])
        flat.sort()
        dst, src = np.divmod(flat, n)
        self._edges = Edges(dst=dst, src=src, starts=np.searchsorted(dst, nodes), flat=flat)

    @property
    def n_nodes(self) -> int:
        return 2 + len(self.attribute_ids) + len(self.sentence_ids)

    @property
    def attr_slice(self) -> slice:
        return slice(2, 2 + len(self.attribute_ids))

    @property
    def sent_slice(self) -> slice:
        return slice(2 + len(self.attribute_ids), self.n_nodes)

    def edge_arrays(self) -> Edges:
        """The attention edges, built when the graph was made."""
        return self._edges


def build_pair_graph(corpus: Corpus, user_id: str, item_id: str) -> PairGraph:
    """Construct the heterogeneous graph for one (user, item) pair.

    Sentence nodes are the union of the user's and the item's training
    sentences, restricted, as in the paper, to those sharing at least one
    attribute with the item's training reviews.  So a held-out review is
    never in its pair's pool, and a training review always is: it is the
    user's, and its sentences carry the item's attributes.  Attribute nodes
    are exactly the attributes of retained sentences.  An empty pool is an
    `EmptyPoolError`.
    """
    item_attrs = corpus.item_attributes[item_id]
    union = corpus.user_sentences[user_id] | corpus.item_sentences[item_id]
    pool = tuple(s for s in sorted(union) if corpus.sentences[s].attributes & item_attrs)
    if not pool:
        raise EmptyPoolError(f"empty candidate pool for ({user_id}, {item_id})")
    attr_ids = sorted({a for s in pool for a in corpus.sentences[s].attributes})
    attr_pos = {a: 2 + i for i, a in enumerate(attr_ids)}
    adj: list[set[int]] = [set() for _ in range(2 + len(attr_ids) + len(pool))]

    def link(i: int, j: int) -> None:
        adj[i].add(j)
        adj[j].add(i)

    user_attrs = corpus.user_attributes[user_id]
    for a, ai in attr_pos.items():
        if a in user_attrs:
            link(USER_NODE, ai)
        if a in item_attrs:
            link(ITEM_NODE, ai)
    for si, s in enumerate(pool, start=2 + len(attr_ids)):
        for a in corpus.sentences[s].attributes:
            link(si, attr_pos[a])

    return PairGraph(
        user_id=user_id,
        item_id=item_id,
        attribute_ids=tuple(attr_ids),
        sentence_ids=pool,
        neighbors=[np.array(sorted(s), dtype=np.int64) for s in adj],
    )
