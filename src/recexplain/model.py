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

one scalar c_l per row and one vector B_l per graph.  So one product
R @ V[ds:] plus g @ V[:ds] gives x0 . w_l for every cross weight and
x0 . h for the score head's cross half h (the columns of V), the
recursion runs on (S,) vectors, deep layer 0 is R W0[:, ds:]^T +
(W0[:, :ds] g + b0), and a score is c_L (x0 . h) + B_L . h + deep . h_deep.
Backward splits the same way: a weight's shared columns get an outer
product with g, its row columns a product with R, and the user and item
states get their gradient as one vector instead of a sum over S rows.
The last cross layer's bias would enter the scores only as b_{L-1} . h,
the same shift on every score of a graph, which the pairwise ranking loss
cannot see and the attribute head does not read; its gradient is 0, so
the model has no such bias.

The two model ablations change x0's layout or what reads it, nothing
else.  --no-gat runs no attention layer (node_dim = hidden) and adds the
mean input of the sentence's linked attributes as a block of its own:
x0 = [user | item | pooled attributes | sentence], 4 * hidden wide, with
R = [pooled attributes | sentence].  --no-dcn drops the feature
interaction, so the score head reads x0: g . head[:ds] + R @ head[ds:].  A
deep_hidden-wide linear layer in front of that head would make the same
family of functions, one linear map of x0; `init_params` draws such a
layer and a deep_hidden-wide head Glorot-uniform and stores their product,
so the initial scores are those of the two-layer init up to rounding, and
`head.attr`, drawn after them, keeps its bytes.  A bias on that layer
would only shift all of a graph's scores alike, which neither the
pairwise ranking loss nor the selector sees.  At the benchmark's shapes
--no-dcn trains 33,920 parameters on sparse_pools (229,248 with the
hidden layer) and 3,168 on dense_pools (15,136).

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
src, row starts, flat cell index), as PyTorch Geometric does (Fey &
Lenssen 2019, arXiv 1903.02428): u = H q and v = H k, the logit
u[dst] + v[src] and its LeakyReLU per edge, the row max and row sum by
`reduceat` over the row starts.  The weights are scattered into a zero
(n, n) alpha and aggregated as alpha @ H, one BLAS product: gathering
H[src] per edge instead costs more at sparse_pools' width 512.  Each
head keeps its alpha for backward, so memory is still O(n^2) per head;
the benchmark's largest graph (145 nodes, dense_pools) makes that 168 KB
a head, and a synthetic n = 2,032 graph (hidden 32, heads (4, 1)) peaked
at 213 MB for one forward plus backward against 346 MB for the dense
masked form this replaced.

`backward` consumes the trace produced by `forward` and adds the gradient
of any upstream loss on the scores/probabilities, with respect to every
trainable tensor including the touched user/item embedding rows, into a
dict the caller owns.  Each tensor element gets exactly one `+=` per graph
(`deep.0.w` and `head.score` take theirs in two disjoint slices), so the
trainer zeroes one buffer per batch and the sum is the same, bit for bit,
as adding up one fresh gradient dict per graph.  Verified against central
finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import GraphInputs
from .graphs import ITEM_NODE, USER_NODE, Edges, PairGraph


LEAKY_SLOPE = 0.2  # attention logits, Velickovic et al. 2018
EMBED_INIT_SCALE = 0.1  # user/item embeddings start uniform in [-0.1, 0.1]
CROSS_LAYERS = 2
DEEP_LAYERS = 2


@dataclass
class ModelConfig:
    hidden: int = 256
    gat_heads: tuple[int, ...] = (4, 1)
    deep_hidden: int = 128
    disable_gat: bool = False
    disable_dcn: bool = False


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def _delu(x):
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


@dataclass
class HeadTrace:
    logits: np.ndarray  # (E,) u[dst] + v[src] per edge, before the LeakyReLU (u = H @ q, v = H @ k)
    alpha: np.ndarray  # (n, n) attention weights, 0 off the edges
    agg: np.ndarray  # (n, Din) pre-activation aggregate


@dataclass
class LayerTrace:
    H_in: np.ndarray
    edges: Edges
    heads: list[HeadTrace]


def gat_layer(H: np.ndarray, edges: Edges, head_params: list[tuple]):
    """One multi-head attention layer; returns (H_next, LayerTrace).

    `edges` are the graph's attention edges (`PairGraph.edge_arrays`);
    logits, row max and row sum are computed per edge, and only the
    aggregation forms the (n, n) alpha.  `head_params` is a list of (q, k)
    per head, both of shape (Din,).
    """
    dst, src, starts, flat = edges
    n = H.shape[0]
    outs = []
    traces = []
    for q, k in head_params:
        pre = (H @ q)[dst] + (H @ k)[src]
        z = np.where(pre > 0, pre, LEAKY_SLOPE * pre)
        ex = np.exp(z - np.maximum.reduceat(z, starts)[dst])
        alpha = np.zeros(n * n)
        alpha[flat] = ex / np.add.reduceat(ex, starts)[dst]
        alpha = alpha.reshape(n, n)
        agg = alpha @ H
        outs.append(_elu(agg))
        traces.append(HeadTrace(logits=pre, alpha=alpha, agg=agg))
    return np.concatenate(outs, axis=1), LayerTrace(H_in=H, edges=edges, heads=traces)


def _gat_layer_backward(dH_out, head_params, trace: LayerTrace):
    """Gradients of one attention layer.

    Returns (dH_in, per-head [(dq, dk)]).  The message term goes through
    the dense alpha as two BLAS products; the softmax and LeakyReLU steps
    run per edge, gathering d(alpha) at the edges' flat cells, and the
    logit u_i + v_j hands its gradient to u by row sums and to v by sums
    over each src.
    """
    H = trace.H_in
    dst, src, starts, flat = trace.edges
    n, din = H.shape
    dH = np.zeros_like(H)
    grads = []
    for head, (q, k) in enumerate(head_params):
        ht = trace.heads[head]
        dagg = dH_out[:, head * din : (head + 1) * din] * _delu(ht.agg)
        # message term: agg = alpha @ H
        da = (dagg @ H.T).ravel()[flat]
        dH += ht.alpha.T @ dagg
        # row softmax, then LeakyReLU of the logit u_i + v_j
        a = ht.alpha.ravel()[flat]
        dz = a * (da - np.add.reduceat(a * da, starts)[dst])
        dpre = np.where(ht.logits > 0, dz, LEAKY_SLOPE * dz)
        du = np.add.reduceat(dpre, starts)
        dv = np.bincount(src, weights=dpre, minlength=n)
        # u = H @ q and v = H @ k
        dH += np.outer(du, q) + np.outer(dv, k)
        grads.append((H.T @ du, H.T @ dv))
    return dH, grads


@dataclass
class DcnTrace:
    V: np.ndarray  # (d0, L+1) columns w_0 .. w_{L-1} and the score head's cross half h
    a: np.ndarray  # (S, L+1) x0 . V
    c: list[np.ndarray]  # c_0 .. c_L, (S,) each: x_l = c_l x0 + B_l
    B: list[np.ndarray]  # B_0 .. B_L, (d0,) each: the cross biases summed so far
    deep: list[np.ndarray]  # (S, deep_hidden) ReLU output of each deep layer


def dcn_forward(g: np.ndarray, R: np.ndarray, params) -> tuple[np.ndarray, DcnTrace]:
    """Scores from the cross network, the deep network and the score head
    over x0 = [g | R[s]] for every sentence s, without forming x0.

    g (ds,) is the graph's shared block, R (S, dr) the per-sentence block.
    Cross layer x_{l+1} = x0 (x_l . w_l) + b_l + x_l, run as its (S,)
    coefficients c_l and shared sums B_l; deep layer x_{l+1} = relu(W_l x_l
    + b_l), its first layer split at the shared columns.  Returns
    (scores (S,), DcnTrace).
    """
    ds = g.size
    head = params["head.score"]
    d0 = ds + R.shape[1]
    V = np.column_stack([params[f"cross.{l}.w"] for l in range(CROSS_LAYERS)] + [head[:d0]])
    a = R @ V[ds:] + g @ V[:ds]
    c = [np.ones(len(R))]
    B = [np.zeros(d0)]
    for l in range(CROSS_LAYERS):
        c.append(c[l] + c[l] * a[:, l] + B[l] @ V[:, l])
        B.append(B[l] + params[f"cross.{l}.b"] if l < CROSS_LAYERS - 1 else B[l])
    W0 = params["deep.0.w"]
    deep = [np.maximum(R @ W0[:, ds:].T + (W0[:, :ds] @ g + params["deep.0.b"]), 0.0)]
    for l in range(1, DEEP_LAYERS):
        deep.append(np.maximum(deep[-1] @ params[f"deep.{l}.w"].T + params[f"deep.{l}.b"], 0.0))
    scores = c[-1] * a[:, -1] + B[-1] @ V[:, -1] + deep[-1] @ head[d0:]
    return scores, DcnTrace(V=V, a=a, c=c, B=B, deep=deep)


def _dcn_backward(d_scores, g, R, params, trace: DcnTrace, grads) -> tuple[np.ndarray, np.ndarray]:
    """Add the gradients of `dcn_forward`'s tensors into `grads`, one `+=`
    per element; return (dg, dR).

    The shared columns of each weight get an outer product with g, the
    row columns a product with R, and dg is one vector: nothing is summed
    over S copies of g.
    """
    ds = g.size
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
    total = dA.sum(axis=0)
    dV = np.empty_like(V)
    np.outer(g, total, out=dV[:ds])
    np.matmul(R.T, dA, out=dV[ds:])
    dV += np.column_stack(B) * shift
    for l in range(L):
        grads[f"cross.{l}.w"] += dV[:, l]
    grads["head.score"][:d0] += dV[:, L]
    dg = V[:ds] @ total
    dR = dA @ V[ds:].T

    grads["head.score"][d0:] += trace.deep[-1].T @ d_scores
    dd = np.outer(d_scores, params["head.score"][d0:])
    for l in range(DEEP_LAYERS - 1, 0, -1):
        dz = dd * (trace.deep[l] > 0)
        grads[f"deep.{l}.w"] += dz.T @ trace.deep[l - 1]
        grads[f"deep.{l}.b"] += dz.sum(axis=0)
        dd = dz @ params[f"deep.{l}.w"]
    dz = dd * (trace.deep[0] > 0)
    dz_total = dz.sum(axis=0)
    W0, dW0 = params["deep.0.w"], grads["deep.0.w"]
    dW0[:, :ds] += np.outer(dz_total, g)
    dW0[:, ds:] += dz.T @ R
    grads["deep.0.b"] += dz_total
    dg += dz_total @ W0[:, :ds]
    dR += dz @ W0[:, ds:]
    return dg, dR


@dataclass
class ForwardTrace:
    graph: PairGraph
    inputs: GraphInputs
    layer_traces: list[LayerTrace]
    Xhat: np.ndarray
    shared: np.ndarray  # (ds,) g = [user | item], the part of x0 every row repeats
    rows: np.ndarray  # (S, d0 - ds) R = [(pooled attributes, --no-gat) | sentence]
    dcn: DcnTrace | None
    scores: np.ndarray  # (S,)
    attr_probs: np.ndarray  # (M,)


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
        self.d_cd = self.d0 if cfg.disable_dcn else self.d0 + cfg.deep_hidden
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
            # a deep_hidden-wide linear layer (zero bias) and its head, folded
            lin = self._glorot(rng, (cfg.deep_hidden, self.d0))
            p["head.score"] = lin.T @ self._glorot(rng, (cfg.deep_hidden,))
        else:
            for l in range(CROSS_LAYERS):
                p[f"cross.{l}.w"] = self._glorot(rng, (self.d0,))
                if l < CROSS_LAYERS - 1:  # the last layer's bias would shift every score alike
                    p[f"cross.{l}.b"] = np.zeros(self.d0)
            for l in range(DEEP_LAYERS):
                p[f"deep.{l}.w"] = self._glorot(rng, (self.deep_dims[l + 1], self.deep_dims[l]))
                p[f"deep.{l}.b"] = np.zeros(self.deep_dims[l + 1])
            p["head.score"] = self._glorot(rng, (self.d_cd,))
        p["head.attr"] = self._glorot(rng, (self.node_dim,))
        return p

    def _head_params(self, params, layer):
        return [(params[f"gat.{layer}.{h}.q"], params[f"gat.{layer}.{h}.k"]) for h in range(self.cfg.gat_heads[layer])]

    # -- forward ------------------------------------------------------------

    def _input_states(self, graph: PairGraph, inputs: GraphInputs, params) -> np.ndarray:
        n = graph.n_nodes
        h0 = np.zeros((n, self.cfg.hidden))
        h0[USER_NODE] = params["embed.user"][inputs.user_row]
        h0[ITEM_NODE] = params["embed.item"][inputs.item_row]
        # NodeFeatureProvider has already checked the attribute vectors' width
        h0[graph.attr_slice] = inputs.attr_X
        if self.project_sentences:
            h0[graph.sent_slice] = inputs.sent_X @ params["proj.w"].T + params["proj.b"][None, :]
        else:
            h0[graph.sent_slice] = inputs.sent_X
        return h0

    def forward(self, graph: PairGraph, inputs: GraphInputs, params) -> ForwardTrace:
        H = self._input_states(graph, inputs, params)
        edges = graph.edge_arrays()
        layer_traces: list[LayerTrace] = []
        for l in range(len(self.gat_in)):
            H, lt = gat_layer(H, edges, self._head_params(params, l))
            layer_traces.append(lt)
        Xhat = H

        attr_rows = Xhat[graph.attr_slice]
        attr_probs = _sigmoid(attr_rows @ params["head.attr"])

        g = np.concatenate([Xhat[USER_NODE], Xhat[ITEM_NODE]])
        R = Xhat[graph.sent_slice]
        if self.cfg.disable_gat:
            # mean of each sentence's attribute inputs; every sentence has
            # one.  Its edges run to attributes and, last, to itself.
            a0, s0 = graph.attr_slice.start, graph.sent_slice.start
            dst, src = edges.dst[edges.starts[s0] :], edges.src[edges.starts[s0] :]
            to_attr = src < s0
            links = np.zeros((len(R), len(graph.attribute_ids)))
            links[dst[to_attr] - s0, src[to_attr] - a0] = 1.0
            R = np.concatenate([(links @ attr_rows) / links.sum(axis=1, keepdims=True), R], axis=1)

        if self.cfg.disable_dcn:
            head = params["head.score"]
            scores, dcn_trace = R @ head[g.size :] + g @ head[: g.size], None
        else:
            scores, dcn_trace = dcn_forward(g, R, params)
        return ForwardTrace(
            graph=graph,
            inputs=inputs,
            layer_traces=layer_traces,
            Xhat=Xhat,
            shared=g,
            rows=R,
            dcn=dcn_trace,
            scores=scores,
            attr_probs=attr_probs,
        )

    # -- backward -----------------------------------------------------------

    def _readout_backward(self, trace: ForwardTrace, params, d_scores, d_attr_probs, grads) -> np.ndarray:
        """The score and attribute heads and the DCN: add their gradients
        into `grads` and return d(loss)/d(Xhat).  Under --no-gat the pooled
        block and the attribute rows read only the attribute inputs, which
        nothing trains, so their gradients are not formed."""
        graph = trace.graph
        g, R = trace.shared, trace.rows
        dlogit = d_attr_probs * trace.attr_probs * (1.0 - trace.attr_probs)
        grads["head.attr"] += trace.Xhat[graph.attr_slice].T @ dlogit
        if self.cfg.disable_dcn:
            # scores = g . head[:ds] + R @ head[ds:]
            ds, head, total = g.size, params["head.score"], d_scores.sum()
            grads["head.score"][:ds] += total * g
            grads["head.score"][ds:] += R.T @ d_scores
            dg, dR = total * head[:ds], np.outer(d_scores, head[ds:])
        else:
            dg, dR = _dcn_backward(d_scores, g, R, params, trace.dcn, grads)

        nd = self.node_dim
        dXhat = np.zeros_like(trace.Xhat)
        if self.gat_in:
            dXhat[graph.attr_slice] += np.outer(dlogit, params["head.attr"])
        dXhat[USER_NODE] += dg[:nd]
        dXhat[ITEM_NODE] += dg[nd:]
        dXhat[graph.sent_slice] += dR[:, -nd:]
        return dXhat

    def zero_grads(self, params) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(t) for name, t in params.items()}

    def backward(
        self, trace: ForwardTrace, params, d_scores: np.ndarray, d_attr_probs: np.ndarray, grads: dict[str, np.ndarray]
    ) -> None:
        """Add the exact gradients for upstream d(loss)/d(scores) and
        d(loss)/d(probs) into `grads`, one `+=` per tensor element."""
        graph = trace.graph
        dH0 = self._readout_backward(trace, params, d_scores, d_attr_probs, grads)

        # attention stack
        for l in range(len(self.gat_in) - 1, -1, -1):
            dH0, head_grads = _gat_layer_backward(dH0, self._head_params(params, l), trace.layer_traces[l])
            for h, (dq, dk) in enumerate(head_grads):
                grads[f"gat.{l}.{h}.q"] += dq
                grads[f"gat.{l}.{h}.k"] += dk

        # input states back to trainable tables
        grads["embed.user"][trace.inputs.user_row] += dH0[USER_NODE]
        grads["embed.item"][trace.inputs.item_row] += dH0[ITEM_NODE]
        if self.project_sentences:
            dsent = dH0[graph.sent_slice]
            grads["proj.w"] += dsent.T @ trace.inputs.sent_X
            grads["proj.b"] += dsent.sum(axis=0)
