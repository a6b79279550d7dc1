"""Sentence scoring network with exact hand-written gradients.

Architecture: stacked multi-head graph attention layers over the pair
graph, then a parallel cross network / deep network (DCN, Wang et al.
2017, arXiv 1708.05123) over one row per sentence,

    x0 = [user | item | sentence]      final node states, 3 * node_dim wide,

with the user and item blocks repeated on every row.  A linear head scores
each sentence's row; a logistic head predicts each attribute node's
probability of appearing in the explanation.

The two model ablations change x0's layout or what reads it, nothing
else.  --no-gat runs no attention layer (node_dim = hidden) and adds the
mean input of the sentence's linked attributes as a block of its own:
x0 = [user | item | pooled attributes | sentence], 4 * hidden wide.
--no-dcn drops the feature interaction, so the score head reads x0.  A
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
factors), 253,440 in all on the sparse_pools benchmark, 18,112 on
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
dict the caller owns.  Each tensor gets exactly one `+=` per graph, so the
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


def dcn_forward(x0: np.ndarray, cross_params: list[tuple], deep_params: list[tuple]):
    """Cross network and deep network over row-batched inputs x0 (S, d0).

    Cross layer: x_{l+1} = x0 * (x_l . w_l) + b_l + x_l.
    Deep layer:  x_{l+1} = relu(W_l x_l + b_l).
    Returns (concat of final cross and deep states, trace dict).
    """
    xs = [x0]
    ts = []
    for w, b in cross_params:
        t = xs[-1] @ w
        xs.append(x0 * t[:, None] + b[None, :] + xs[-1])
        ts.append(t)
    deep_outs = [x0]
    for w, b in deep_params:
        z = deep_outs[-1] @ w.T + b[None, :]
        deep_outs.append(np.maximum(z, 0.0))
    out = np.concatenate([xs[-1], deep_outs[-1]], axis=1)
    return out, {"xs": xs, "ts": ts, "deep": deep_outs}


def _dcn_backward(dout, cross_params, deep_params, trace):
    xs, ts, deep_outs = trace["xs"], trace["ts"], trace["deep"]
    d0 = xs[0].shape[1]
    dcross = dout[:, :d0]
    ddeep = dout[:, d0:]
    x0 = xs[0]

    dx0 = np.zeros_like(x0)
    dx = dcross
    cross_grads = []
    for l in range(len(cross_params) - 1, -1, -1):
        w, _ = cross_params[l]
        t = ts[l]
        dx0 += dx * t[:, None]
        dt = np.einsum("sd,sd->s", dx, x0)
        dw = xs[l].T @ dt
        db = dx.sum(axis=0)
        dx = dx + dt[:, None] * w[None, :]
        cross_grads.append((dw, db))
    cross_grads.reverse()
    dx0 += dx

    dd = ddeep
    deep_grads = []
    for l in range(len(deep_params) - 1, -1, -1):
        w, _ = deep_params[l]
        out = deep_outs[l + 1]
        dz = dd * (out > 0)
        dw = dz.T @ deep_outs[l]
        db = dz.sum(axis=0)
        dd = dz @ w
        deep_grads.append((dw, db))
    deep_grads.reverse()
    dx0 += dd
    return dx0, cross_grads, deep_grads


@dataclass
class ForwardTrace:
    graph: PairGraph
    inputs: GraphInputs
    layer_traces: list[LayerTrace]
    Xhat: np.ndarray
    dcn: dict | None
    x_cd: np.ndarray
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
                p[f"cross.{l}.b"] = np.zeros(self.d0)
            for l in range(DEEP_LAYERS):
                p[f"deep.{l}.w"] = self._glorot(rng, (self.deep_dims[l + 1], self.deep_dims[l]))
                p[f"deep.{l}.b"] = np.zeros(self.deep_dims[l + 1])
            p["head.score"] = self._glorot(rng, (self.d_cd,))
        p["head.attr"] = self._glorot(rng, (self.node_dim,))
        return p

    def _head_params(self, params, layer):
        return [(params[f"gat.{layer}.{h}.q"], params[f"gat.{layer}.{h}.k"]) for h in range(self.cfg.gat_heads[layer])]

    def _cross_params(self, params):
        return [(params[f"cross.{l}.w"], params[f"cross.{l}.b"]) for l in range(CROSS_LAYERS)]

    def _deep_params(self, params):
        return [(params[f"deep.{l}.w"], params[f"deep.{l}.b"]) for l in range(DEEP_LAYERS)]

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

        sent_rows = Xhat[graph.sent_slice]
        n_sent = sent_rows.shape[0]
        blocks = [np.tile(Xhat[USER_NODE], (n_sent, 1)), np.tile(Xhat[ITEM_NODE], (n_sent, 1))]
        if self.cfg.disable_gat:
            # mean of each sentence's attribute inputs; every sentence has
            # one.  Its edges run to attributes and, last, to itself.
            a0, s0 = graph.attr_slice.start, graph.sent_slice.start
            dst, src = edges.dst[edges.starts[s0] :], edges.src[edges.starts[s0] :]
            to_attr = src < s0
            links = np.zeros((n_sent, len(graph.attribute_ids)))
            links[dst[to_attr] - s0, src[to_attr] - a0] = 1.0
            blocks.append((links @ attr_rows) / links.sum(axis=1, keepdims=True))
        x0 = np.concatenate(blocks + [sent_rows], axis=1)

        if self.cfg.disable_dcn:
            x_cd, dcn_trace = x0, None
        else:
            x_cd, dcn_trace = dcn_forward(x0, self._cross_params(params), self._deep_params(params))
        scores = x_cd @ params["head.score"]
        return ForwardTrace(
            graph=graph,
            inputs=inputs,
            layer_traces=layer_traces,
            Xhat=Xhat,
            dcn=dcn_trace,
            x_cd=x_cd,
            scores=scores,
            attr_probs=attr_probs,
        )

    # -- backward -----------------------------------------------------------

    def zero_grads(self, params) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(t) for name, t in params.items()}

    def backward(
        self, trace: ForwardTrace, params, d_scores: np.ndarray, d_attr_probs: np.ndarray, grads: dict[str, np.ndarray]
    ) -> None:
        """Add the exact gradients for upstream d(loss)/d(scores) and
        d(loss)/d(probs) into `grads`, one `+=` per tensor."""
        cfg = self.cfg
        graph = trace.graph

        # heads
        grads["head.score"] += trace.x_cd.T @ d_scores
        dx_cd = np.outer(d_scores, params["head.score"])
        dlogit = d_attr_probs * trace.attr_probs * (1.0 - trace.attr_probs)
        grads["head.attr"] += trace.Xhat[graph.attr_slice].T @ dlogit

        # feature interaction back to x0
        if cfg.disable_dcn:
            dx0 = dx_cd
        else:
            dx0, cross_g, deep_g = _dcn_backward(
                dx_cd, self._cross_params(params), self._deep_params(params), trace.dcn
            )
            for l, (dw, db) in enumerate(cross_g):
                grads[f"cross.{l}.w"] += dw
                grads[f"cross.{l}.b"] += db
            for l, (dw, db) in enumerate(deep_g):
                grads[f"deep.{l}.w"] += dw
                grads[f"deep.{l}.b"] += db

        # x0 blocks back to node states.  Under --no-gat the pooled block
        # and the attribute rows read only the attribute inputs, which
        # nothing trains, so their gradients are not formed.
        nd = self.node_dim
        dXhat = np.zeros_like(trace.Xhat)
        if self.gat_in:
            dXhat[graph.attr_slice] += np.outer(dlogit, params["head.attr"])
        dXhat[USER_NODE] += dx0[:, :nd].sum(axis=0)
        dXhat[ITEM_NODE] += dx0[:, nd : 2 * nd].sum(axis=0)
        dXhat[graph.sent_slice] += dx0[:, -nd:]

        # attention stack
        dH0 = dXhat
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
