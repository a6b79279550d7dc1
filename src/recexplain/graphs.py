"""Per-(user, item) heterogeneous graph construction.

Each graph has one user node, one item node, the attribute nodes occurring
in the candidate sentences, and the candidate sentence nodes.  Edges are
undirected and binary: user-attribute and item-attribute co-occurrence
links (from training reviews) and attribute-sentence membership links.
Node order is fixed (user, item, attributes by id, sentences by id) so
downstream tensors are reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, EmptyPoolError

log = logging.getLogger(__name__)

USER_NODE = 0
ITEM_NODE = 1


class GraphError(Exception):
    pass


@dataclass
class PairGraph:
    user_id: str
    item_id: str
    attribute_ids: tuple[int, ...]
    sentence_ids: tuple[str, ...]
    neighbors: list[np.ndarray]  # undirected adjacency, no self-loops, sorted
    self_loops: bool = True
    positives: frozenset[str] | None = None
    attr_labels: np.ndarray | None = None  # (M,) 0/1, train mode only
    _csr: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return 2 + len(self.attribute_ids) + len(self.sentence_ids)

    @property
    def attr_slice(self) -> slice:
        return slice(2, 2 + len(self.attribute_ids))

    @property
    def sent_slice(self) -> slice:
        return slice(2 + len(self.attribute_ids), self.n_nodes)

    def neighbor_view(self, node: int) -> np.ndarray:
        """Neighbors of `node`, including itself when self-loops are on."""
        if not 0 <= node < self.n_nodes:
            raise GraphError(f"unknown node index {node}")
        nbrs = self.neighbors[node]
        if self.self_loops:
            pos = int(np.searchsorted(nbrs, node))
            return np.insert(nbrs, pos, node)
        return nbrs

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat attention edges as (center, neighbor, indptr), cached.

        The center array is sorted; neighbors are sorted within each
        center segment.  Raises if any node has an empty neighborhood,
        which can only happen with self-loops disabled.
        """
        if self._csr is None:
            centers = []
            nbrs = []
            indptr = [0]
            for i in range(self.n_nodes):
                view = self.neighbor_view(i)
                if view.size == 0:
                    raise GraphError(
                        f"node {i} has no neighbors and self-loops are disabled"
                    )
                centers.append(np.full(view.size, i, dtype=np.int64))
                nbrs.append(view.astype(np.int64))
                indptr.append(indptr[-1] + view.size)
            self._csr = (
                np.concatenate(centers),
                np.concatenate(nbrs),
                np.asarray(indptr, dtype=np.int64),
            )
        return self._csr

    def sentence_attr_indices(self) -> list[np.ndarray]:
        """Per sentence node, the indices of its attribute node neighbors."""
        lo, hi = self.attr_slice.start, self.attr_slice.stop
        out = []
        for i in range(self.sent_slice.start, self.sent_slice.stop):
            nbrs = self.neighbors[i]
            out.append(nbrs[(nbrs >= lo) & (nbrs < hi)])
        return out


def build_pair_graph(
    corpus: Corpus,
    user_id: str,
    item_id: str,
    mode: str,
    self_loops: bool = True,
    restrict_to_item_attributes: bool = True,
) -> PairGraph:
    """Construct the heterogeneous graph for one (user, item) pair.

    Sentence nodes are the candidate pool, optionally restricted to
    sentences sharing at least one attribute with the item's training
    reviews.  Attribute nodes are exactly the attributes of retained
    sentences.  In train mode the graph carries the target review's
    sentence ids and per-attribute 0/1 labels.
    """
    pool = corpus.candidate_pool(user_id, item_id, mode)
    item_attrs = corpus.item_train_attributes(item_id)
    if restrict_to_item_attributes:
        pool = tuple(s for s in pool if corpus.sentences[s].attributes & item_attrs)
        if not pool:
            raise EmptyPoolError(
                f"item-attribute restriction emptied the pool for ({user_id}, {item_id})"
            )
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

    positives = None
    attr_labels = None
    if mode == "train":
        target = corpus.ground_truth_sentences(user_id, item_id, "train")
        positives = frozenset(target) & set(pool)
        target_attrs: set[int] = set()
        for sid in target:
            target_attrs |= corpus.sentences[sid].attributes
        attr_labels = np.array([1.0 if a in target_attrs else 0.0 for a in attr_ids])

    return PairGraph(
        user_id=user_id,
        item_id=item_id,
        attribute_ids=tuple(attr_ids),
        sentence_ids=pool,
        neighbors=[np.array(sorted(s), dtype=np.int64) for s in adj],
        self_loops=self_loops,
        positives=positives,
        attr_labels=attr_labels,
    )
