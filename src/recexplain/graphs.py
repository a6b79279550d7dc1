"""Per-(user, item) heterogeneous graph construction.

Each graph has one user node, one item node, the attribute nodes occurring
in the candidate sentences, and the candidate sentence nodes.  Edges are
undirected and binary: user-attribute and item-attribute co-occurrence
links (from training reviews) and attribute-sentence membership links.
Node order is fixed (user, item, attributes by id, sentences by id) so
downstream tensors are reproducible.

Self loops are always on: attention always includes each node itself, so
every row of the attention mask has at least one entry.
`PairGraph.edge_arrays` returns that (n, n) boolean mask; the benchmark's
trace hook looks the method up by this name, so the name stays until the
hook is renamed with it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, EmptyPoolError

log = logging.getLogger(__name__)

USER_NODE = 0
ITEM_NODE = 1


@dataclass
class PairGraph:
    user_id: str
    item_id: str
    attribute_ids: tuple[int, ...]
    sentence_ids: tuple[str, ...]
    neighbors: list[np.ndarray]  # undirected adjacency, no self-loops, sorted
    positives: frozenset[str] | None = None
    attr_labels: np.ndarray | None = None  # (M,) 0/1, train mode only

    @property
    def n_nodes(self) -> int:
        return 2 + len(self.attribute_ids) + len(self.sentence_ids)

    @property
    def attr_slice(self) -> slice:
        return slice(2, 2 + len(self.attribute_ids))

    @property
    def sent_slice(self) -> slice:
        return slice(2 + len(self.attribute_ids), self.n_nodes)

    def edge_arrays(self) -> np.ndarray:
        """The (n, n) boolean attention mask: `neighbors` plus every node's
        self loop, built afresh on each call (nothing n x n is kept on the
        graph)."""
        n = self.n_nodes
        mask = np.eye(n, dtype=bool)
        rows = np.repeat(np.arange(n), [len(nbrs) for nbrs in self.neighbors])
        mask[rows, np.concatenate(self.neighbors)] = True
        return mask


def build_pair_graph(
    corpus: Corpus,
    user_id: str,
    item_id: str,
    mode: str,
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
        positives=positives,
        attr_labels=attr_labels,
    )
