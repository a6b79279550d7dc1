"""Sentence scoring network with exact hand-written gradients.

Architecture: stacked multi-head graph attention layers over the pair
graph, then a parallel cross network / deep network (DCN, Wang et al.
2017, arXiv 1708.05123) over one row per sentence,

    x0 = [user | item | sentence]      final node states, 3 * node_dim wide.

A linear head scores each sentence's row; a logistic head predicts each
attribute node's probability of appearing in the explanation.

x0 is never formed.  Its first ds = 2 * node_dim columns, g = [user |
item], are the same on every row of a graph, and the rest, R, are the
sentence's own.  A cross layer x_{l+1} = x0 (x_l . w_l) + b_l + x_l keeps

    x_l = c_l x0 + B_l,   c_0 = 1, c_{l+1} = c_l + c_l (x0 . w_l) + B_l . w_l,
                          B_0 = 0, B_{l+1} = B_l + b_l,

one scalar c_l per row and one vector B_l, the same for every graph.  So
one product R @ V[ds:] plus g @ V[:ds] gives x0 . w_l for every cross
weight and x0 . h for the score head's cross half h (the columns of V),
the recursion runs on (S,) vectors, deep layer 0 is R W0[:, ds:]^T +
(W0[:, :ds] g + b0), and a score is c_L (x0 . h) + B_L . h + deep . h_deep.
Backward splits the same way: a weight's shared columns get a product
with g, its row columns a product with R, and the user and item states
get their gradient as one vector per graph instead of a sum over S rows.
The last cross layer's bias would enter the scores only as b_{L-1} . h,
the same shift on every score of a graph, which the pairwise ranking loss
cannot see and the attribute head does not read; its gradient is 0, so
the model has no such bias.

One readout per chunk.  `Model.forward` takes a chunk of graphs.  It runs
attention per graph, then the readout (the DCN, the score head and the
attribute head) once over the chunk, as PyTorch Geometric batches graphs
as one disjoint union with a row-to-graph index (Fey & Lenssen 2019,
arXiv 1903.02428).  The shared blocks form G (B, ds), one row per graph,
and the sentence rows of all B graphs are stacked, graph by graph, into R:
a = R @ V[ds:] + (G @ V[:ds])[gid], gid being each row's graph.  Backward
takes the per-graph sums with `np.add.reduceat` over the graphs' first
rows, so a weight's shared columns get one product with G per chunk
(`deep.0.w`: dz_graph^T G), not one full-size write per graph.  A chunk
holds every graph's attention trace until backward, so `readout_chunks`
caps its sentence rows at READOUT_ROWS; a graph with more rows forms a
chunk by itself.  Training drops a chunk's trace after its backward;
`Model.scores` owns scoring without backward (validation, select) and
drops each trace before yielding, so one chunk's traces are alive at a time.

The two model ablations change x0's layout or what reads it, nothing
else.  --no-gat runs no attention layer (node_dim = hidden) and adds the
mean input of the sentence's linked attributes as a block of its own:
x0 = [user | item | pooled attributes | sentence], 4 * hidden wide, with
R = [pooled attributes | sentence].  --no-dcn drops the feature
interaction and scores R @ head: a linear head on all of x0 would also
add g . h_g, one shift to every score of a graph, which the pairwise
ranking loss cannot see (its gradient is 0).  A deep_hidden-wide linear
layer in front of the head would make the same family of functions;
`init_params` draws such a layer and a deep_hidden-wide head
Glorot-uniform and keeps the R rows of their product, so `head.attr`,
drawn after them, keeps its bytes.  A bias on that layer would only
shift a graph's scores alike too.  At the benchmark's shapes --no-dcn
trains 32,896 parameters on sparse_pools (229,248 with the hidden layer
and the g rows) and 2,912 on dense_pools (15,136).

Attention for node i over N(i), its graph neighbors plus i itself:

    z_ij  = LeakyReLU(q . h_i + k . h_j)     slope 0.2, as in GAT
    a_ij  = softmax_j(z_ij)           over j in N(i)
    h_i'  = ELU(sum_j a_ij h_j)       per head, heads concatenated

GAT (Velickovic et al. 2018, arXiv 1710.10903) writes the logit as
w_a . [W_q h_i || W_k h_j] = (W_q^T w_a[:A]) . h_i + (W_k^T w_a[A:]) . h_j.
The sum runs over raw neighbor states (no linear transform inside it), so
the factors act only through q = W_q^T w_a[:A] and k = W_k^T w_a[A:], and
each head trains q and k, two vectors of its input width: the same
functions, another Adam trajectory.  `init_params` draws W_q, W_k and w_a
Glorot-uniform and stores q and k: the factored init, bit for bit.  PAPER.md
holds only the abstract, so the published equation is not checked.  Heads
keep their input width and concatenate, so widths multiply layer by layer;
at hidden 128, heads (4, 1) the stack has 2,048 parameters (263,424 as
factors), 251,904 in all on the sparse_pools benchmark, 17,728 on
dense_pools.  The feature interaction is 2 cross layers beside 2 ReLU deep
layers, as published; user and item embeddings start uniform in
[-0.1, 0.1], everything else Glorot-uniform, and every tensor is float64.

Each head works on the graph's edge list (`PairGraph.edge_arrays`: dst,
src, row starts, flat cell index), as PyTorch Geometric does: u = H q and
v = H k, the logit u[dst] + v[src] and its LeakyReLU per edge, the row
max and row sum by `reduceat` over the row starts.  The weights are
scattered into a zero (n, n) alpha and aggregated as alpha @ H, one BLAS
product: gathering H[src] per edge instead costs more at sparse_pools'
width 512.  That alpha is transient, one buffer per layer in forward and
again in backward; the heads share the edges, so each head's scatter
overwrites every cell the last one wrote.  Besides the node states, a
trace keeps each head's logits and weights, O(E) numbers, so a chunk's
traces stay small while they wait for backward.  ELU's derivative comes
from the layer's output h', the next layer's input or the final states:
1 where h' > 0, else h' + 1 (= exp of the aggregate), so the aggregate is
not kept and backward computes no exponential.

`backward` consumes the trace produced by `forward` and adds the gradient
of any upstream loss on the chunk's scores/probabilities, with respect to
every trainable tensor including the touched user/item embedding rows,
into a dict the caller owns.  Each tensor element gets exactly one `+=`
per chunk (`deep.0.w` and `head.score` take theirs in two disjoint
slices; a head's q and k are summed over the chunk's graphs first, an
embedding row over the chunk's graphs of its user or item).  So the
result is the same, bit for bit, as adding one fresh gradient dict per
chunk.  Chunking a batch another way sums the same terms in another
order, which agrees to rounding (1e-12 of each tensor's largest entry in
the tests), not bit for bit.  Verified against central finite
differences in the test suite.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .features import GraphInputs
from .graphs import ITEM_NODE, USER_NODE, Edges, PairGraph


LEAKY_SLOPE = 0.2  # attention logits, Velickovic et al. 2018
EMBED_INIT_SCALE = 0.1  # user/item embeddings start uniform in [-0.1, 0.1]
CROSS_LAYERS = 2
DEEP_LAYERS = 2
READOUT_ROWS = 128  # sentence rows per readout call; see `readout_chunks`


@dataclass
class ModelConfig:
    hidden: int = 256
    gat_heads: tuple[int, ...] = (4, 1)
    deep_hidden: int = 128
    disable_gat: bool = False
    disable_dcn: bool = False


def readout_chunks(items: Iterable, rows: Callable[[object], int]) -> Iterator[list]:
    """Consecutive runs of `items`, in order, whose `rows(item)` add up to
    at most READOUT_ROWS; an item with more rows than that is a run by
    itself.  `items` is consumed lazily, one run ahead at most."""
    chunk, total = [], 0
    for item in items:
        n = rows(item)
        if chunk and total + n > READOUT_ROWS:
            yield chunk
            chunk, total = [], 0
        chunk.append(item)
        total += n
    if chunk:
        yield chunk


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def gat_layer(H: np.ndarray, edges: Edges, head_params: list[tuple]):
    """One multi-head attention layer; returns (H_next, [(logits, weights)
    per head]), both (E,) per edge: u[dst] + v[src] before the LeakyReLU
    (u = H @ q, v = H @ k) and the attention weight a_ij (i = dst, j = src).

    `edges` are the graph's attention edges (`PairGraph.edge_arrays`);
    logits, row max and row sum are computed per edge, and only the
    aggregation forms the (n, n) alpha, which is not kept.  `head_params`
    is a list of (q, k) per head, both of shape (Din,).
    """
    dst, src, starts, flat = edges
    n = H.shape[0]
    alpha = np.zeros(n * n)
    outs = []
    heads = []
    for q, k in head_params:
        pre = (H @ q)[dst] + (H @ k)[src]
        z = np.where(pre > 0, pre, LEAKY_SLOPE * pre)
        ex = np.exp(z - np.maximum.reduceat(z, starts)[dst])
        weights = ex / np.add.reduceat(ex, starts)[dst]
        alpha[flat] = weights
        outs.append(_elu(alpha.reshape(n, n) @ H))
        heads.append((pre, weights))
    return np.concatenate(outs, axis=1), heads


def _gat_layer_backward(dH_out, H, H_out, edges: Edges, head_params, heads):
    """Gradients of one attention layer from `H` to `H_out`, whose heads
    gave the per-edge (logits, weights) `heads`.

    Returns (dH_in, per-head [(dq, dk)]).  ELU's derivative is read off
    the output.  The message term goes through the dense alpha, scattered
    again from the edge weights, as two BLAS products; the softmax and
    LeakyReLU steps run per edge, gathering d(alpha) at the edges' flat
    cells, and the logit u_i + v_j hands its gradient to u by row sums and
    to v by sums over each src.
    """
    dst, src, starts, flat = edges
    n, din = H.shape
    dH = np.zeros_like(H)
    dout = dH_out * np.where(H_out > 0, 1.0, H_out + 1.0)
    alpha = np.zeros(n * n)
    grads = []
    for head, ((q, k), (logits, a)) in enumerate(zip(head_params, heads)):
        dagg = dout[:, head * din : (head + 1) * din]
        # message term: agg = alpha @ H
        alpha[flat] = a
        da = (dagg @ H.T).ravel()[flat]
        dH += alpha.reshape(n, n).T @ dagg
        # row softmax, then LeakyReLU of the logit u_i + v_j
        dz = a * (da - np.add.reduceat(a * da, starts)[dst])
        dpre = np.where(logits > 0, dz, LEAKY_SLOPE * dz)
        du = np.add.reduceat(dpre, starts)
        dv = np.bincount(src, weights=dpre, minlength=n)
        # u = H @ q and v = H @ k
        dH += np.outer(du, q) + np.outer(dv, k)
        grads.append((H.T @ du, H.T @ dv))
    return dH, grads


def _row_graphs(starts: np.ndarray, n_rows: int) -> np.ndarray:
    """The graph of each of `n_rows` stacked rows, graph b's starting at
    starts[b].  Every graph must have a row: `np.add.reduceat` gives an
    empty segment the row at its start, not 0."""
    bounds = starts.tolist() + [n_rows]
    counts = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    if bounds[0] != 0 or min(counts) <= 0:
        raise ValueError(f"row starts {bounds[:-1]} over {n_rows} rows leave a graph without rows")
    return np.repeat(np.arange(len(counts)), counts)


@dataclass
class DcnTrace:
    V: np.ndarray  # (d0, L+1) columns w_0 .. w_{L-1} and the score head's cross half h
    a: np.ndarray  # (S, L+1) x0 . V
    c: list[np.ndarray]  # c_0 .. c_L, (S,) each: x_l = c_l x0 + B_l
    B: list[np.ndarray]  # B_0 .. B_L, (d0,) each: the cross biases summed so far
    deep: list[np.ndarray]  # (S, deep_hidden) ReLU output of each deep layer


def dcn_forward(G: np.ndarray, R: np.ndarray, starts: np.ndarray, params) -> tuple[np.ndarray, DcnTrace]:
    """Scores from the cross network, the deep network and the score head
    over x0 = [G[b] | R[s]] for every sentence row s of every graph b,
    without forming x0.

    G (B, ds) holds each graph's shared block and R (S, dr) the sentence
    rows of all B graphs, graph b's from row starts[b] on.  Cross layer
    x_{l+1} = x0 (x_l . w_l) + b_l + x_l, run as its (S,) coefficients c_l
    and shared sums B_l; deep layer x_{l+1} = relu(W_l x_l + b_l), its
    first layer split at the shared columns.  Returns (scores (S,),
    DcnTrace).
    """
    gid = _row_graphs(starts, len(R))
    ds = G.shape[1]
    head = params["head.score"]
    d0 = ds + R.shape[1]
    V = np.column_stack([params[f"cross.{l}.w"] for l in range(CROSS_LAYERS)] + [head[:d0]])
    a = R @ V[ds:] + (G @ V[:ds])[gid]
    c = [np.ones(len(R))]
    B = [np.zeros(d0)]
    for l in range(CROSS_LAYERS):
        c.append(c[l] + c[l] * a[:, l] + B[l] @ V[:, l])
        B.append(B[l] + params[f"cross.{l}.b"] if l < CROSS_LAYERS - 1 else B[l])
    W0 = params["deep.0.w"]
    deep = [np.maximum(R @ W0[:, ds:].T + (G @ W0[:, :ds].T + params["deep.0.b"])[gid], 0.0)]
    for l in range(1, DEEP_LAYERS):
        deep.append(np.maximum(deep[-1] @ params[f"deep.{l}.w"].T + params[f"deep.{l}.b"], 0.0))
    scores = c[-1] * a[:, -1] + B[-1] @ V[:, -1] + deep[-1] @ head[d0:]
    return scores, DcnTrace(V=V, a=a, c=c, B=B, deep=deep)


def _dcn_backward(d_scores, G, R, starts, params, trace: DcnTrace, grads) -> tuple[np.ndarray, np.ndarray]:
    """Add the gradients of `dcn_forward`'s tensors into `grads`, one `+=`
    per element; return (dG, dR).

    Per-graph sums are `np.add.reduceat` over `starts`; the shared columns
    of each weight then get one product with G, the row columns one with
    R, and dG has one row per graph.
    """
    ds = G.shape[1]
    V, a, c, B = trace.V, trace.a, trace.c, trace.B
    d0 = V.shape[0]
    L = CROSS_LAYERS
    # scores = c_L (x0 . h) + B_L . h + ...; dA holds d/d(x0 . V) per column
    dA = np.empty_like(a)
    dA[:, L] = d_scores * c[L]
    dc = d_scores * a[:, L]
    shift = np.empty(L + 1)  # d/d(B_l . V[:, l]), the same for every row
    shift[L] = d_scores.sum()
    dB = shift[L] * V[:, L]
    for l in range(L - 1, -1, -1):
        # c_{l+1} = c_l + c_l (x0 . w_l) + B_l . w_l, B_{l+1} = B_l + b_l
        dA[:, l] = dc * c[l]
        shift[l] = dc.sum()
        if l < L - 1:
            grads[f"cross.{l}.b"] += dB
        dB = dB + shift[l] * V[:, l]
        dc = dc + dc * a[:, l]
    dA_graph = np.add.reduceat(dA, starts, axis=0)
    dV = np.empty_like(V)
    np.matmul(G.T, dA_graph, out=dV[:ds])
    np.matmul(R.T, dA, out=dV[ds:])
    dV += np.column_stack(B) * shift
    for l in range(L):
        grads[f"cross.{l}.w"] += dV[:, l]
    grads["head.score"][:d0] += dV[:, L]
    dG = dA_graph @ V[:ds].T
    dR = dA @ V[ds:].T

    grads["head.score"][d0:] += trace.deep[-1].T @ d_scores
    dd = np.outer(d_scores, params["head.score"][d0:])
    for l in range(DEEP_LAYERS - 1, 0, -1):
        dz = dd * (trace.deep[l] > 0)
        grads[f"deep.{l}.w"] += dz.T @ trace.deep[l - 1]
        grads[f"deep.{l}.b"] += dz.sum(axis=0)
        dd = dz @ params[f"deep.{l}.w"]
    dz = dd * (trace.deep[0] > 0)
    dz_graph = np.add.reduceat(dz, starts, axis=0)
    W0, dW0 = params["deep.0.w"], grads["deep.0.w"]
    dW0[:, :ds] += dz_graph.T @ G
    dW0[:, ds:] += dz.T @ R
    grads["deep.0.b"] += dz_graph.sum(axis=0)
    dG += dz_graph @ W0[:, :ds]
    dR += dz @ W0[:, ds:]
    return dG, dR


def _add_rows(table: np.ndarray, rows: list[int], values: np.ndarray) -> None:
    """table[rows] += values, one `+=` per touched element: the values of
    a repeated row are summed first."""
    members: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        members.setdefault(row, []).append(i)
    for row, idx in members.items():
        table[row] += values[idx].sum(axis=0)


@dataclass
class ForwardTrace:
    graphs: Sequence[PairGraph]
    inputs: Sequence[GraphInputs]
    states: list[list[np.ndarray]]  # per graph, each attention layer's input, then the final node states
    attention: list[list[list[tuple]]]  # per graph and layer, each head's per-edge (logits, weights)
    sent_bounds: np.ndarray  # (B+1,) graph b's sentences are rows sent_bounds[b]:sent_bounds[b+1]
    attr_bounds: np.ndarray  # (B+1,) graph b's attributes are rows attr_bounds[b]:attr_bounds[b+1]
    shared: np.ndarray  # (B, ds) G, each graph's [user | item], the part of x0 its rows repeat
    rows: np.ndarray  # (S, d0 - ds) R = [(pooled attributes, --no-gat) | sentence], stacked
    attr_rows: np.ndarray  # (M, node_dim) the attribute nodes' final states, stacked
    dcn: DcnTrace | None
    scores: np.ndarray  # (S,)
    attr_probs: np.ndarray  # (M,)

    def sentences(self, b: int) -> slice:
        """Graph b's rows of `scores` and `rows`."""
        return slice(self.sent_bounds[b], self.sent_bounds[b + 1])

    def attributes(self, b: int) -> slice:
        """Graph b's rows of `attr_probs` and `attr_rows`."""
        return slice(self.attr_bounds[b], self.attr_bounds[b + 1])


class Model:
    """Binds a config to concrete tensor shapes and drives forward/backward."""

    def __init__(self, cfg: ModelConfig, n_users: int, n_items: int, sentence_dim: int):
        self.cfg = cfg
        self.n_users = n_users
        self.n_items = n_items
        self.sentence_dim = sentence_dim
        d = cfg.hidden
        self.project_sentences = sentence_dim != d
        # x0 = [user | item | (pooled attributes, --no-gat only) | sentence]
        self.gat_in = []
        width = d
        for heads in () if cfg.disable_gat else cfg.gat_heads:
            self.gat_in.append(width)
            width *= heads
        self.node_dim = width
        self.d0 = (4 if cfg.disable_gat else 3) * width
        self.deep_dims = [self.d0] + [cfg.deep_hidden] * DEEP_LAYERS

    # -- parameters ---------------------------------------------------------

    def _glorot(self, rng, shape):
        fan_in = shape[-1] if len(shape) > 1 else shape[0]
        fan_out = shape[0] if len(shape) > 1 else 1
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    def init_params(self, seed: int) -> dict[str, np.ndarray]:
        cfg = self.cfg
        rng = np.random.default_rng([seed, 0])
        p: dict[str, np.ndarray] = {}
        scale = EMBED_INIT_SCALE
        p["embed.user"] = rng.uniform(-scale, scale, size=(self.n_users, cfg.hidden))
        p["embed.item"] = rng.uniform(-scale, scale, size=(self.n_items, cfg.hidden))
        if self.project_sentences:
            p["proj.w"] = self._glorot(rng, (cfg.hidden, self.sentence_dim))
            p["proj.b"] = np.zeros(cfg.hidden)
        for l, din in enumerate(self.gat_in):
            for h in range(cfg.gat_heads[l]):
                # GAT's factors W_q, W_k (hidden x din) and w_a, folded
                w_q = self._glorot(rng, (cfg.hidden, din))
                w_k = self._glorot(rng, (cfg.hidden, din))
                w_a = self._glorot(rng, (2 * cfg.hidden,))
                p[f"gat.{l}.{h}.q"] = w_q.T @ w_a[: cfg.hidden]
                p[f"gat.{l}.{h}.k"] = w_k.T @ w_a[cfg.hidden :]
        if cfg.disable_dcn:
            # a deep_hidden-wide linear layer (zero bias) and its head,
            # folded; the rows that would read g = [user | item] are dropped
            lin = self._glorot(rng, (cfg.deep_hidden, self.d0))
            p["head.score"] = (lin.T @ self._glorot(rng, (cfg.deep_hidden,)))[2 * self.node_dim :]
        else:
            for l in range(CROSS_LAYERS):
                p[f"cross.{l}.w"] = self._glorot(rng, (self.d0,))
                if l < CROSS_LAYERS - 1:  # the last layer's bias would shift every score alike
                    p[f"cross.{l}.b"] = np.zeros(self.d0)
            for l in range(DEEP_LAYERS):
                p[f"deep.{l}.w"] = self._glorot(rng, (self.deep_dims[l + 1], self.deep_dims[l]))
                p[f"deep.{l}.b"] = np.zeros(self.deep_dims[l + 1])
            p["head.score"] = self._glorot(rng, (self.d0 + cfg.deep_hidden,))
        p["head.attr"] = self._glorot(rng, (self.node_dim,))
        return p

    def _head_params(self, params):
        """Per attention layer, its heads' (q, k)."""
        return [
            [(params[f"gat.{l}.{h}.q"], params[f"gat.{l}.{h}.k"]) for h in range(self.cfg.gat_heads[l])]
            for l in range(len(self.gat_in))
        ]

    # -- forward ------------------------------------------------------------

    def _input_states(self, graph: PairGraph, inputs: GraphInputs, sentences: np.ndarray, params) -> np.ndarray:
        h0 = np.zeros((graph.n_nodes, self.cfg.hidden))
        h0[USER_NODE] = params["embed.user"][inputs.user_row]
        h0[ITEM_NODE] = params["embed.item"][inputs.item_row]
        # NodeFeatureProvider has already checked the attribute vectors' width
        h0[graph.attr_slice] = inputs.attr_X
        h0[graph.sent_slice] = sentences
        return h0

    def forward(self, graphs: Sequence[PairGraph], inputs: Sequence[GraphInputs], params) -> ForwardTrace:
        """Scores and attribute probabilities of a chunk of graphs, each
        graph's in its rows of the trace (`ForwardTrace.sentences` and
        `.attributes`)."""
        nd = self.node_dim
        sent_bounds = np.cumsum([0] + [len(g.sentence_ids) for g in graphs])
        attr_bounds = np.cumsum([0] + [len(g.attribute_ids) for g in graphs])
        sent_X = np.concatenate([inp.sent_X for inp in inputs])
        if self.project_sentences:
            sent_X = sent_X @ params["proj.w"].T + params["proj.b"][None, :]
        heads = self._head_params(params)
        G = np.empty((len(graphs), 2 * nd))
        rows, attr_rows, states, attention = [], [], [], []
        for b, (graph, inp) in enumerate(zip(graphs, inputs)):
            H = self._input_states(graph, inp, sent_X[sent_bounds[b] : sent_bounds[b + 1]], params)
            edges = graph.edge_arrays()
            states.append([H])
            attention.append([])
            for head_params in heads:
                H, per_head = gat_layer(H, edges, head_params)
                states[-1].append(H)
                attention[-1].append(per_head)
            G[b, :nd] = H[USER_NODE]
            G[b, nd:] = H[ITEM_NODE]
            attr_rows.append(H[graph.attr_slice])
            R = H[graph.sent_slice]
            if self.cfg.disable_gat:
                # mean of each sentence's attribute inputs; every sentence has
                # one.  Its edges run to attributes and, last, to itself.
                a0, s0 = graph.attr_slice.start, graph.sent_slice.start
                dst, src = edges.dst[edges.starts[s0] :], edges.src[edges.starts[s0] :]
                to_attr = src < s0
                links = np.zeros((len(R), len(graph.attribute_ids)))
                links[dst[to_attr] - s0, src[to_attr] - a0] = 1.0
                R = np.concatenate([(links @ attr_rows[-1]) / links.sum(axis=1, keepdims=True), R], axis=1)
            rows.append(R)
        R = np.concatenate(rows)
        A = np.concatenate(attr_rows)
        attr_probs = _sigmoid(A @ params["head.attr"])
        if self.cfg.disable_dcn:
            scores, dcn_trace = R @ params["head.score"], None
        else:
            scores, dcn_trace = dcn_forward(G, R, sent_bounds[:-1], params)
        return ForwardTrace(
            graphs=graphs,
            inputs=inputs,
            states=states,
            attention=attention,
            sent_bounds=sent_bounds,
            attr_bounds=attr_bounds,
            shared=G,
            rows=R,
            attr_rows=A,
            dcn=dcn_trace,
            scores=scores,
            attr_probs=attr_probs,
        )

    def scores(self, items: Iterable[tuple[PairGraph, GraphInputs]], params) -> Iterator[tuple[PairGraph, np.ndarray]]:
        """(graph, its sentence scores) for each (graph, inputs) of `items`,
        in order: one `forward` per `readout_chunks` chunk, whose trace is
        dropped before the chunk's first yield.  `items` is read lazily,
        as `readout_chunks` reads it."""
        for chunk in readout_chunks(items, lambda item: len(item[0].sentence_ids)):
            trace = self.forward([graph for graph, _ in chunk], [inputs for _, inputs in chunk], params)
            scores = [trace.scores[trace.sentences(b)] for b in range(len(chunk))]
            del trace
            yield from zip([graph for graph, _ in chunk], scores)

    # -- backward -----------------------------------------------------------

    def _readout_backward(self, trace: ForwardTrace, params, d_scores, d_attr_probs, grads) -> list[np.ndarray]:
        """The score and attribute heads and the DCN: add their gradients
        into `grads` and return d(loss)/d(final node states) per graph.
        Under --no-gat the pooled block and the attribute rows read only the attribute
        inputs, which nothing trains, so their gradients are not formed;
        under --no-dcn the scores do not read the user and item rows."""
        dlogit = d_attr_probs * trace.attr_probs * (1.0 - trace.attr_probs)
        grads["head.attr"] += trace.attr_rows.T @ dlogit
        if self.cfg.disable_dcn:
            # scores = R @ head; G is not read
            grads["head.score"] += trace.rows.T @ d_scores
            dG, dR = None, np.outer(d_scores, params["head.score"])
        else:
            dG, dR = _dcn_backward(d_scores, trace.shared, trace.rows, trace.sent_bounds[:-1], params, trace.dcn, grads)
        d_attr = np.outer(dlogit, params["head.attr"]) if self.gat_in else None

        nd = self.node_dim
        dXhat = []
        for b, graph in enumerate(trace.graphs):
            dX = np.zeros((graph.n_nodes, nd))
            if d_attr is not None:
                dX[graph.attr_slice] = d_attr[trace.attributes(b)]
            if dG is not None:
                dX[USER_NODE] = dG[b, :nd]
                dX[ITEM_NODE] = dG[b, nd:]
            dX[graph.sent_slice] = dR[trace.sentences(b), -nd:]
            dXhat.append(dX)
        return dXhat

    def zero_grads(self, params) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(t) for name, t in params.items()}

    def backward(
        self, trace: ForwardTrace, params, d_scores: np.ndarray, d_attr_probs: np.ndarray, grads: dict[str, np.ndarray]
    ) -> None:
        """Add the exact gradients for upstream d(loss)/d(scores) and
        d(loss)/d(probs), over the chunk's rows, into `grads`, one `+=` per
        tensor element."""
        dXhat = self._readout_backward(trace, params, d_scores, d_attr_probs, grads)
        heads = self._head_params(params)
        head_grads: dict[str, np.ndarray] = {}
        d_user = np.empty((len(trace.graphs), self.cfg.hidden))
        d_item = np.empty_like(d_user)
        d_sent = []
        for b, graph in enumerate(trace.graphs):
            # attention stack; each layer's output is the next one's input
            states, edges = trace.states[b], graph.edge_arrays()
            dH = dXhat[b]
            for l in range(len(heads) - 1, -1, -1):
                dH, layer_grads = _gat_layer_backward(dH, states[l], states[l + 1], edges, heads[l], trace.attention[b][l])
                for h, (dq, dk) in enumerate(layer_grads):
                    for name, d in ((f"gat.{l}.{h}.q", dq), (f"gat.{l}.{h}.k", dk)):
                        head_grads[name] = head_grads.get(name, 0.0) + d
            d_user[b] = dH[USER_NODE]
            d_item[b] = dH[ITEM_NODE]
            d_sent.append(dH[graph.sent_slice])
        for name, d in head_grads.items():
            grads[name] += d

        # input states back to trainable tables
        _add_rows(grads["embed.user"], [inp.user_row for inp in trace.inputs], d_user)
        _add_rows(grads["embed.item"], [inp.item_row for inp in trace.inputs], d_item)
        if self.project_sentences:
            d_sent = np.concatenate(d_sent)
            grads["proj.w"] += d_sent.T @ np.concatenate([inp.sent_X for inp in trace.inputs])
            if self.gat_in or not self.cfg.disable_dcn:
                # under --no-gat --no-dcn every score is linear in its own
                # sentence row, so proj.b shifts a graph's scores alike; the
                # ranking loss cannot see that, its gradient is analytically
                # 0, and Adam leaves the tensor at its initial value
                grads["proj.b"] += d_sent.sum(axis=0)
