import weakref

import numpy as np
import pytest

from recexplain.features import GraphInputs, NodeFeatureProvider
from recexplain.graphs import PairGraph, attention_edges
from recexplain.model import Model


def toy_labelled_graph(n_attr, n_sent, rng, user_attrs=None, item_attrs=None):
    """Random well-formed pair graph: every sentence touches >= 1 attribute
    and every attribute touches >= 1 sentence; with (n_attr,) random 0/1
    attribute labels, drawn last.
    """
    n = 2 + n_attr + n_sent
    adj = [set() for _ in range(n)]
    attr_nodes = list(range(2, 2 + n_attr))
    sent_nodes = list(range(2 + n_attr, n))
    for k, si in enumerate(sent_nodes):
        picks = {attr_nodes[k % n_attr]}
        extra = rng.integers(0, n_attr, size=int(rng.integers(0, 3)))
        picks |= {attr_nodes[e] for e in extra}
        for ai in picks:
            adj[si].add(ai)
            adj[ai].add(si)
    for ai in attr_nodes:
        if not any(j in sent_nodes for j in adj[ai]):
            si = sent_nodes[int(rng.integers(0, n_sent))]
            adj[ai].add(si)
            adj[si].add(ai)
    user_attrs = attr_nodes if user_attrs is None else user_attrs
    item_attrs = attr_nodes if item_attrs is None else item_attrs
    for ai in user_attrs:
        if rng.uniform() < 0.8:
            adj[0].add(ai)
            adj[ai].add(0)
    for ai in item_attrs:
        if rng.uniform() < 0.8:
            adj[1].add(ai)
            adj[ai].add(1)
    labels = rng.integers(0, 2, size=n_attr).astype(float)
    graph = PairGraph(
        user_id="u",
        item_id="c",
        attribute_ids=tuple(range(n_attr)),
        sentence_ids=tuple(f"s{k}" for k in range(n_sent)),
        edges=attention_edges(n, [(i, j) for i in range(n) for j in adj[i] if i < j]),
    )
    return graph, labels


def toy_graph(n_attr, n_sent, rng, user_attrs=None, item_attrs=None):
    """`toy_labelled_graph`'s graph.  The labels are drawn all the same, so
    a seeded test sees the same numbers whichever of the two it calls."""
    return toy_labelled_graph(n_attr, n_sent, rng, user_attrs, item_attrs)[0]


def toy_inputs(graphs, hidden, sent_dim, rng, rows=None):
    """Random node inputs for a chunk of `graphs`: a provider whose small
    tables stack the graphs' attribute rows and their sentence rows, drawn
    graph by graph (attributes first), and each graph's `GraphInputs`, its
    indices into them.  `rows` holds each graph's (user row, item row),
    (0, 0) by default.  Returns (inputs, provider)."""
    rows = [(0, 0)] * len(graphs) if rows is None else rows
    attr, sent, inputs = [], [], []
    n_attr = n_sent = 0
    for graph, (user_row, item_row) in zip(graphs, rows, strict=True):
        m, s = len(graph.attribute_ids), len(graph.sentence_ids)
        attr.append(rng.normal(size=(m, hidden)))
        sent.append(rng.normal(size=(s, sent_dim)))
        inputs.append(GraphInputs(np.arange(n_attr, n_attr + m), np.arange(n_sent, n_sent + s), user_row, item_row))
        n_attr, n_sent = n_attr + m, n_sent + s
    return inputs, NodeFeatureProvider(np.concatenate(attr), np.concatenate(sent))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def one_live_trace(monkeypatch):
    """Wraps `Model.forward` to check that no trace it returned earlier is
    still referenced when it runs again: a chunk's attention traces must
    be released before the next chunk's forward.  Returns the list of
    weak references, one per forward call."""
    forward = Model.forward
    traces = []

    def checked(self, *args, **kwargs):
        assert all(ref() is None for ref in traces), "an earlier chunk's trace is still alive"
        trace = forward(self, *args, **kwargs)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(Model, "forward", checked)
    return traces
