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
(`deep.0.w`: dz_graph^T G), not one full-size write per graph.  A graph
brings row indices only (`features.GraphInputs`): `forward` gathers the
chunk's attribute and sentence inputs from the provider's tables, one
gather per table, and the trace keeps the gathered sentence block, which
the `proj.w` gradient reads.  A chunk holds every graph's attention trace
until backward, so `readout_chunks` caps its sentence rows at
READOUT_ROWS; a graph with more rows forms a chunk by itself.  Training
drops a chunk's trace after its backward; `Model.scores` owns scoring
without backward (validation, select) and drops each trace before
yielding, so one chunk's traces are alive at a time.

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
the factors act only through q = W_q^T w_a[:A] and k = W_k^T w_a[A:], two
vectors of the head's input width, and q and k are what trains: the same
functions, another Adam trajectory.  Layer l keeps all its heads in one
tensor, `gat.{l}.qk` (Din, 2h), the matrix the layer multiplies by: column
t is head t's q and column h + t its k.  `init_params` draws each head's
W_q, W_k and w_a Glorot-uniform and writes its q and k into those columns:
the factored init, bit for bit.  PAPER.md holds only the abstract, so the
published equation is not checked.  Heads keep their input width and
concatenate, so widths multiply layer by layer; at hidden 128, heads (4, 1)
the stack is `gat.0.qk` (128, 8) and `gat.1.qk` (512, 2), 2,048 parameters
(263,424 as factors), 251,904 in all on the sparse_pools benchmark, 17,728
on dense_pools.  The feature interaction is 2 cross layers beside 2 ReLU deep
layers, as published; user and item embeddings start uniform in
[-0.1, 0.1], everything else Glorot-uniform, and every tensor is float64.

A layer works on the graph's one adjacency, its edge list
(`PairGraph.edge_arrays`, made once by `graphs.attention_edges`: dst, src,
row starts, flat cell index, self loops included), like PyTorch
Geometric's `edge_index`, and does its per-edge work once for all h
heads, with the head as a column: one product H @ `gat.{l}.qk` gives
every u and v, the logits u[dst] + v[src] and their LeakyReLU form one
(E, h) array, and the row max and row sum are `reduceat` over the row
starts along its first axis.
The per-edge softmax never forms a dense (h, n, n) one.  Each head's
weights are scattered into a zero (n, n) alpha and aggregated as alpha @
H, one BLAS product written into the head's column block of the output:
gathering H[src] per edge instead costs more at sparse_pools' width 512.
That alpha is transient, one buffer per layer in forward and again in
backward; the heads share the edges, so each head's scatter overwrites
every cell the last one wrote.  ELU then runs once, in place, on the whole
output.  Besides the node states, a trace keeps each layer's (E, h)
logits and weights, O(E) numbers per head, so a chunk's traces stay small
while they wait for backward.  ELU's derivative comes from the layer's
output h', the next layer's input or the final states: 1 where h' > 0,
else h' + 1 (= exp of the aggregate), so the aggregate is not kept and
backward computes no exponential.  Backward runs the softmax and
LeakyReLU gradients once over (E, h), and one product with `gat.{l}.qk`^T
and one with H^T serve every head's u and v.

`backward` consumes the trace produced by `forward` and adds the gradient
of any upstream loss on the chunk's scores/probabilities, with respect to
every trainable tensor including the touched user/item embedding rows,
into a dict the caller owns.  Each tensor element gets exactly one `+=`
per chunk (`deep.0.w` and `head.score` take theirs in two disjoint
slices; each layer's `gat.{l}.qk` gradient is summed over the chunk's
graphs first, an embedding row over the chunk's graphs of its
user or item).  So the result is the same, bit for bit, as adding one
fresh gradient dict per chunk.  Chunking a batch another way sums the
same terms in another order, which agrees to rounding (1e-12 of each
tensor's largest entry in the tests), not bit for bit.  Verified against
central finite differences in the test suite.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .features import GraphInputs, NodeFeatureProvider
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


def gat_layer(H: np.ndarray, edges: Edges, QK: np.ndarray):
    """One multi-head attention layer, every head's per-edge work at once.

    `QK` (Din, 2h) stacks the heads' (q, k) as columns [q_1 .. q_h | k_1 ..
    k_h], and `edges` are the graph's attention edges
    (`PairGraph.edge_arrays`).  Returns (H_next, logits, weights): the
    logits u[dst] + v[src] before the LeakyReLU (u = H @ q, v = H @ k) and
    the attention weights a_ij (i = dst, j = src), both (E, h) with head t
    in column t.  Only the aggregation forms an (n, n) alpha, one buffer
    that each head overwrites in turn and that is not kept.
    """
    dst, src, starts, flat = edges
    n, din = H.shape
    heads = QK.shape[1] // 2
    UV = H @ QK
    logits = UV[dst, :heads] + UV[src, heads:]
    weights = np.maximum(logits, LEAKY_SLOPE * logits)
    weights -= np.maximum.reduceat(weights, starts, axis=0)[dst]
    np.exp(weights, out=weights)
    weights /= np.add.reduceat(weights, starts, axis=0)[dst]
    out = np.empty((n, heads * din))
    alpha = np.zeros(n * n)
    for t in range(heads):
        alpha[flat] = weights[:, t]
        np.matmul(alpha.reshape(n, n), H, out=out[:, t * din : (t + 1) * din])
    # ELU in place: max(x, 0) + expm1(min(x, 0))
    neg = np.minimum(out, 0.0)
    np.expm1(neg, out=neg)
    np.maximum(out, 0.0, out=out)
    out += neg
    return out, logits, weights


def _gat_layer_backward(dH_out, H, H_out, edges: Edges, QK, logits, weights):
    """Gradients of one attention layer from `H` to `H_out`, whose heads
    gave the per-edge (E, h) `logits` and `weights`.

    Returns (dH_in, dQK), dQK (Din, 2h) laid out as `QK`.  ELU's derivative
    is read off the output.  The message term goes through the dense alpha,
    scattered again from each head's edge weights, as two BLAS products per
    head; the softmax and LeakyReLU steps run once over (E, h), gathering
    d(alpha) at the edges' flat cells, and the logit u_i + v_j hands its
    gradient to u by row sums and to v by sums over each src.  Then one
    product with QK^T and one with H^T serve every head's u and v.
    """
    dst, src, starts, flat = edges
    n, din = H.shape
    heads = weights.shape[1]
    dout = np.minimum(H_out, 0.0)
    dout += 1.0
    dout *= dH_out
    dH = np.zeros_like(H)
    da = np.empty_like(weights)
    alpha = np.zeros(n * n)
    for t in range(heads):
        dagg = dout[:, t * din : (t + 1) * din]
        # message term: agg = alpha @ H
        alpha[flat] = weights[:, t]
        da[:, t] = (dagg @ H.T).ravel()[flat]
        dH += alpha.reshape(n, n).T @ dagg
    # row softmax, then LeakyReLU of the logit u_i + v_j
    dz = da - np.add.reduceat(weights * da, starts, axis=0)[dst]
    dz *= weights
    dpre = np.where(logits > 0, dz, LEAKY_SLOPE * dz)
    dUV = np.empty((n, 2 * heads))
    dUV[:, :heads] = np.add.reduceat(dpre, starts, axis=0)
    cells = (src[:, None] * heads + np.arange(heads)).ravel()
    dUV[:, heads:] = np.bincount(cells, weights=dpre.ravel(), minlength=n * heads).reshape(n, heads)
    # [u | v] = H @ QK
    dH += dUV @ QK.T
    return dH, H.T @ dUV


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
    sent_inputs: np.ndarray | None  # (S, sentence_dim) the gathered sentence rows, kept when they are projected
    states: list[list[np.ndarray]]  # per graph, each attention layer's input, then the final node states
    attention: list[list[tuple]]  # per graph and layer, its (E, h) per-edge (logits, weights)
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

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Every trainable tensor's shape, in the order `init_params` draws
        them."""
        cfg = self.cfg
        shapes = {"embed.user": (self.n_users, cfg.hidden), "embed.item": (self.n_items, cfg.hidden)}
        if self.project_sentences:
            shapes["proj.w"] = (cfg.hidden, self.sentence_dim)
            shapes["proj.b"] = (cfg.hidden,)
        for l, (din, heads) in enumerate(zip(self.gat_in, cfg.gat_heads)):
            shapes[f"gat.{l}.qk"] = (din, 2 * heads)
        if cfg.disable_dcn:
            shapes["head.score"] = (self.d0 - 2 * self.node_dim,)  # x0 without [user | item]
        else:
            for l in range(CROSS_LAYERS):
                shapes[f"cross.{l}.w"] = (self.d0,)
                if l < CROSS_LAYERS - 1:  # the last layer's bias would shift every score alike
                    shapes[f"cross.{l}.b"] = (self.d0,)
            for l in range(DEEP_LAYERS):
                shapes[f"deep.{l}.w"] = (self.deep_dims[l + 1], self.deep_dims[l])
                shapes[f"deep.{l}.b"] = (self.deep_dims[l + 1],)
            shapes["head.score"] = (self.d0 + cfg.deep_hidden,)
        shapes["head.attr"] = (self.node_dim,)
        return shapes

    def init_params(self, seed: int) -> dict[str, np.ndarray]:
        """A fresh draw of every tensor of `param_shapes`, in its order:
        embeddings uniform, biases zero, the rest Glorot-uniform, attention
        and the --no-dcn head drawn as factors and folded."""
        cfg = self.cfg
        rng = np.random.default_rng([seed, 0])
        p: dict[str, np.ndarray] = {}
        for name, shape in self.param_shapes().items():
            if name.startswith("embed."):
                p[name] = rng.uniform(-EMBED_INIT_SCALE, EMBED_INIT_SCALE, size=shape)
            elif name.endswith(".b"):
                p[name] = np.zeros(shape)
            elif name.startswith("gat."):
                din, heads = shape[0], shape[1] // 2
                qk = p[name] = np.empty(shape)
                for h in range(heads):
                    # GAT's factors W_q, W_k (hidden x din) and w_a, folded
                    w_q = self._glorot(rng, (cfg.hidden, din))
                    w_k = self._glorot(rng, (cfg.hidden, din))
                    w_a = self._glorot(rng, (2 * cfg.hidden,))
                    qk[:, h] = w_q.T @ w_a[: cfg.hidden]
                    qk[:, heads + h] = w_k.T @ w_a[cfg.hidden :]
            elif name == "head.score" and cfg.disable_dcn:
                # a deep_hidden-wide linear layer (zero bias) and its head,
                # folded; the rows that would read g = [user | item] are dropped
                lin = self._glorot(rng, (cfg.deep_hidden, self.d0))
                p[name] = (lin.T @ self._glorot(rng, (cfg.deep_hidden,)))[2 * self.node_dim :]
            else:
                p[name] = self._glorot(rng, shape)
        return p

    # -- forward ------------------------------------------------------------

    def _input_states(
        self, graph: PairGraph, inputs: GraphInputs, attributes: np.ndarray, sentences: np.ndarray, params
    ) -> np.ndarray:
        h0 = np.zeros((graph.n_nodes, self.cfg.hidden))
        h0[USER_NODE] = params["embed.user"][inputs.user_row]
        h0[ITEM_NODE] = params["embed.item"][inputs.item_row]
        # provider_from_vectors (train) or checkpoint_provider (select) has checked the attribute vectors' width
        h0[graph.attr_slice] = attributes
        h0[graph.sent_slice] = sentences
        return h0

    def forward(
        self, graphs: Sequence[PairGraph], inputs: Sequence[GraphInputs], params, provider: NodeFeatureProvider
    ) -> ForwardTrace:
        """Scores and attribute probabilities of a chunk of graphs, each
        graph's in its rows of the trace (`ForwardTrace.sentences` and
        `.attributes`).  The graphs' input rows are gathered from
        `provider`'s tables, one gather per table for the chunk."""
        nd = self.node_dim
        sent_bounds = np.cumsum([0] + [len(g.sentence_ids) for g in graphs])
        attr_bounds = np.cumsum([0] + [len(g.attribute_ids) for g in graphs])
        attr_X = provider.attr_X[np.concatenate([inp.attr_rows for inp in inputs])]
        sent_inputs = provider.sent_X[np.concatenate([inp.sent_rows for inp in inputs])]
        sent_X = sent_inputs
        if self.project_sentences:
            sent_X = sent_inputs @ params["proj.w"].T + params["proj.b"][None, :]
        G = np.empty((len(graphs), 2 * nd))
        rows, attr_rows, states, attention = [], [], [], []
        for b, (graph, inp) in enumerate(zip(graphs, inputs)):
            H = self._input_states(
                graph,
                inp,
                attr_X[attr_bounds[b] : attr_bounds[b + 1]],
                sent_X[sent_bounds[b] : sent_bounds[b + 1]],
                params,
            )
            edges = graph.edge_arrays()
            states.append([H])
            attention.append([])
            for l in range(len(self.gat_in)):
                H, logits, weights = gat_layer(H, edges, params[f"gat.{l}.qk"])
                states[-1].append(H)
                attention[-1].append((logits, weights))
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
            sent_inputs=sent_inputs if self.project_sentences else None,
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

    def scores(
        self, items: Iterable[tuple[PairGraph, GraphInputs]], params, provider: NodeFeatureProvider
    ) -> Iterator[tuple[PairGraph, np.ndarray]]:
        """(graph, its sentence scores) for each (graph, inputs) of `items`,
        in order: one `forward` per `readout_chunks` chunk, whose trace is
        dropped before the chunk's first yield.  `items` is read lazily,
        as `readout_chunks` reads it."""
        for chunk in readout_chunks(items, lambda item: len(item[0].sentence_ids)):
            trace = self.forward([graph for graph, _ in chunk], [inputs for _, inputs in chunk], params, provider)
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
        qk = [params[f"gat.{l}.qk"] for l in range(len(self.gat_in))]
        dQK = [np.zeros_like(QK) for QK in qk]
        d_user = np.empty((len(trace.graphs), self.cfg.hidden))
        d_item = np.empty_like(d_user)
        d_sent = []
        for b, graph in enumerate(trace.graphs):
            # attention stack; each layer's output is the next one's input
            states, edges = trace.states[b], graph.edge_arrays()
            dH = dXhat[b]
            for l in range(len(qk) - 1, -1, -1):
                dH, d = _gat_layer_backward(dH, states[l], states[l + 1], edges, qk[l], *trace.attention[b][l])
                dQK[l] += d
            d_user[b] = dH[USER_NODE]
            d_item[b] = dH[ITEM_NODE]
            d_sent.append(dH[graph.sent_slice])
        for l, d in enumerate(dQK):
            grads[f"gat.{l}.qk"] += d

        # input states back to trainable tables
        _add_rows(grads["embed.user"], [inp.user_row for inp in trace.inputs], d_user)
        _add_rows(grads["embed.item"], [inp.item_row for inp in trace.inputs], d_item)
        if self.project_sentences:
            d_sent = np.concatenate(d_sent)
            grads["proj.w"] += d_sent.T @ trace.sent_inputs
            if self.gat_in or not self.cfg.disable_dcn:
                # under --no-gat --no-dcn every score is linear in its own
                # sentence row, so proj.b shifts a graph's scores alike; the
                # ranking loss cannot see that, its gradient is analytically
                # 0, and Adam leaves the tensor at its initial value
                grads["proj.b"] += d_sent.sum(axis=0)
