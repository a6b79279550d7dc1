"""Per-(user, item) heterogeneous graph construction.

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

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, EmptyPoolError

log = logging.getLogger(__name__)

USER_NODE = 0
ITEM_NODE = 1


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
    attr_labels: np.ndarray | None = None  # (M,) 0/1, train mode only
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


def build_pair_graph(corpus: Corpus, user_id: str, item_id: str, mode: str) -> PairGraph:
    """Construct the heterogeneous graph for one (user, item) pair.

    Sentence nodes are the candidate pool restricted, as in the paper, to
    sentences sharing at least one attribute with the item's training
    reviews.  Attribute nodes are exactly the attributes of retained
    sentences.  In train mode the graph carries per-attribute 0/1 labels:
    whether the target review mentions the attribute.
    """
    pool = corpus.candidate_pool(user_id, item_id, mode)
    item_attrs = corpus.item_train_attributes(item_id)
    pool = tuple(s for s in pool if corpus.sentences[s].attributes & item_attrs)
    if not pool:
        raise EmptyPoolError(f"item-attribute restriction emptied the pool for ({user_id}, {item_id})")
    attr_ids = sorted({a for s in pool for a in corpus.sentences[s].attributes})
    attr_pos = {a: 2 + i for i, a in enumerate(attr_ids)}
    sent_pos = {s: 2 + len(attr_ids) + i for i, s in enumerate(pool)}
    n = 2 + len(attr_ids) + len(pool)

    adj: list[set[int]] = [set() for _ in range(n)]
    user_attrs = corpus.user_train_attributes(user_id)
    for a in attr_ids:
        ai = attr_pos[a]
        if a in user_attrs:
            adj[USER_NODE].add(ai)
            adj[ai].add(USER_NODE)
        if a in item_attrs:
            adj[ITEM_NODE].add(ai)
            adj[ai].add(ITEM_NODE)
    for s in pool:
        si = sent_pos[s]
        for a in corpus.sentences[s].attributes:
            ai = attr_pos[a]
            adj[si].add(ai)
            adj[ai].add(si)

    attr_labels = None
    if mode == "train":
        target = corpus.ground_truth_sentences(user_id, item_id, "train")
        target_attrs = set().union(*(corpus.sentences[sid].attributes for sid in target))
        attr_labels = np.array([1.0 if a in target_attrs else 0.0 for a in attr_ids])

    return PairGraph(
        user_id=user_id,
        item_id=item_id,
        attribute_ids=tuple(attr_ids),
        sentence_ids=pool,
        neighbors=[np.array(sorted(s), dtype=np.int64) for s in adj],
        attr_labels=attr_labels,
    )
