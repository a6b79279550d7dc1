"""Sentence scoring network with exact hand-written gradients.

Architecture: stacked multi-head graph attention layers over the pair
graph, then a parallel cross network / deep network over the
concatenated user, item, and sentence representations.  A linear head
scores each sentence node; a logistic head predicts each attribute
node's probability of appearing in the explanation.

Attention for node i over N(i), its graph neighbors plus i itself:

    z_ij  = LeakyReLU(w_a . [W_q h_i || W_k h_j])
    a_ij  = softmax_j(z_ij)           over j in N(i)
    h_i'  = act(sum_j a_ij h_j)       per head, heads concatenated

The aggregation intentionally sums the raw neighbor states (no extra
linear transform inside the sum), so each head's output keeps its input
width and concatenation multiplies widths layer by layer.

Each head is computed densely.  The logit splits as z_ij = LeakyReLU(u_i +
v_j) with u = H (W_q^T w_a[:A]) and v = H (W_k^T w_a[A:]); the two
products inside the brackets are formed first, so a head needs two
matrix-vector products instead of two n x A projections, and the
parameters are unchanged.  The (n, n) logits are masked to N(i) with the
boolean mask of `PairGraph.edge_arrays` (-inf outside it, so a_ij is 0
there), softmaxed by row, and aggregated as alpha @ H.  Each head keeps its
(n, n) float64 alpha for backward, n^2 x 8 bytes: pair graphs are small
(the benchmark's median/largest are 130/145 nodes on dense_pools, 26/33 on
sparse_pools and 27/45 on select_heavy), so the largest is 168 KB a head.

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
from .graphs import ITEM_NODE, USER_NODE, PairGraph


class ModelError(Exception):
    pass


@dataclass
class ModelConfig:
    hidden: int = 256
    gat_heads: tuple[int, ...] = (4, 1)
    gat_activation: str = "elu"  # one of elu | relu | sigmoid | identity
    leaky_slope: float = 0.2
    cross_layers: int = 2
    deep_layers: int = 2
    deep_hidden: int = 128
    disable_gat: bool = False
    disable_dcn: bool = False
    embed_init_scale: float = 0.1
    dtype: str = "float64"


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


_ACTIVATIONS = {
    "elu": (_elu, _delu),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0).astype(x.dtype)),
    "sigmoid": (_sigmoid, lambda x: _sigmoid(x) * (1.0 - _sigmoid(x))),
    "identity": (lambda x: x, lambda x: np.ones_like(x)),
}


@dataclass
class HeadTrace:
    u: np.ndarray  # (n,) center half of the logits, H @ (W_q^T w_a[:A])
    v: np.ndarray  # (n,) neighbor half of the logits, H @ (W_k^T w_a[A:])
    alpha: np.ndarray  # (n, n) attention weights, 0 outside the mask
    agg: np.ndarray  # (n, Din) pre-activation aggregate


@dataclass
class LayerTrace:
    H_in: np.ndarray
    heads: list[HeadTrace]


def gat_layer(H: np.ndarray, mask: np.ndarray, head_params: list[tuple], cfg: ModelConfig):
    """One multi-head attention layer; returns (H_next, LayerTrace).

    `mask` is the graph's (n, n) boolean attention mask
    (`PairGraph.edge_arrays`).  `head_params` is a list of (wq, wk, wa) per
    head with wq/wk of shape (A, Din) and wa of shape (2A,).
    """
    act, _ = _ACTIVATIONS[cfg.gat_activation]
    outs = []
    traces = []
    for wq, wk, wa in head_params:
        a = wq.shape[0]
        u = H @ (wq.T @ wa[:a])
        v = H @ (wk.T @ wa[a:])
        pre = u[:, None] + v[None, :]
        z = np.where(mask, np.where(pre > 0, pre, cfg.leaky_slope * pre), -np.inf)
        ex = np.exp(z - z.max(axis=1, keepdims=True))
        alpha = ex / ex.sum(axis=1, keepdims=True)
        agg = alpha @ H
        outs.append(act(agg))
        traces.append(HeadTrace(u=u, v=v, alpha=alpha, agg=agg))
    return np.concatenate(outs, axis=1), LayerTrace(H_in=H, heads=traces)


def _gat_layer_backward(dH_out, head_params, trace: LayerTrace, cfg: ModelConfig):
    """Gradients of one attention layer.

    Returns (dH_in, per-head [(dwq, dwk, dwa)]).  Entries outside the mask
    have alpha 0, so their logits get no gradient and the mask itself is
    not needed here.
    """
    _, dact = _ACTIVATIONS[cfg.gat_activation]
    H = trace.H_in
    din = H.shape[1]
    dH = np.zeros_like(H)
    grads = []
    for head, (wq, wk, wa) in enumerate(head_params):
        a = wq.shape[0]
        ht = trace.heads[head]
        dagg = dH_out[:, head * din : (head + 1) * din] * dact(ht.agg)
        # message term: agg = alpha @ H
        dalpha = dagg @ H.T
        dH += ht.alpha.T @ dagg
        # row softmax, then LeakyReLU of the logit u_i + v_j
        dz = ht.alpha * (dalpha - (ht.alpha * dalpha).sum(axis=1, keepdims=True))
        dpre = np.where(ht.u[:, None] + ht.v[None, :] > 0, dz, cfg.leaky_slope * dz)
        du = dpre.sum(axis=1)
        dv = dpre.sum(axis=0)
        # u = H @ (wq^T wa[:A]) and v = H @ (wk^T wa[A:])
        gu = H.T @ du
        gv = H.T @ dv
        dwa = np.concatenate([wq @ gu, wk @ gv])
        dH += np.outer(du, wq.T @ wa[:a]) + np.outer(dv, wk.T @ wa[a:])
        grads.append((np.outer(wa[:a], gu), np.outer(wa[a:], gv), dwa))
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
    H0: np.ndarray
    layer_traces: list[LayerTrace]
    Xhat: np.ndarray
    attr_pool: np.ndarray | None  # (S, hidden), only when the graph stack is disabled
    x0: np.ndarray
    dcn: dict | None
    x_cd: np.ndarray
    scores: np.ndarray  # (S,)
    attr_logits: np.ndarray  # (M,)
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
        if cfg.disable_gat:
            self.node_dim = d
            self.d0 = 4 * d
        else:
            self.gat_in = []
            width = d
            for heads in cfg.gat_heads:
                self.gat_in.append(width)
                width *= heads
            self.node_dim = width
            self.d0 = 3 * width
        self.attr_dim = self.node_dim
        if cfg.disable_dcn:
            self.d_cd = cfg.deep_hidden
        else:
            self.d_cd = self.d0 + cfg.deep_hidden
        self.deep_dims = [self.d0] + [cfg.deep_hidden] * cfg.deep_layers
        self.np_dtype = np.dtype(cfg.dtype)

    # -- parameters ---------------------------------------------------------

    def _glorot(self, rng, shape):
        fan_in = shape[-1] if len(shape) > 1 else shape[0]
        fan_out = shape[0] if len(shape) > 1 else 1
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape).astype(self.np_dtype)

    def init_params(self, seed: int) -> dict[str, np.ndarray]:
        cfg = self.cfg
        rng = np.random.default_rng([seed, 0])
        p: dict[str, np.ndarray] = {}
        scale = cfg.embed_init_scale
        p["embed.user"] = rng.uniform(-scale, scale, size=(self.n_users, cfg.hidden)).astype(self.np_dtype)
        p["embed.item"] = rng.uniform(-scale, scale, size=(self.n_items, cfg.hidden)).astype(self.np_dtype)
        if self.project_sentences:
            p["proj.w"] = self._glorot(rng, (cfg.hidden, self.sentence_dim))
            p["proj.b"] = np.zeros(cfg.hidden, dtype=self.np_dtype)
        if not cfg.disable_gat:
            for l, heads in enumerate(cfg.gat_heads):
                din = self.gat_in[l]
                for h in range(heads):
                    p[f"gat.{l}.{h}.wq"] = self._glorot(rng, (cfg.hidden, din))
                    p[f"gat.{l}.{h}.wk"] = self._glorot(rng, (cfg.hidden, din))
                    p[f"gat.{l}.{h}.wa"] = self._glorot(rng, (2 * cfg.hidden,))
        if cfg.disable_dcn:
            p["lin.w"] = self._glorot(rng, (cfg.deep_hidden, self.d0))
            p["lin.b"] = np.zeros(cfg.deep_hidden, dtype=self.np_dtype)
        else:
            for l in range(cfg.cross_layers):
                p[f"cross.{l}.w"] = self._glorot(rng, (self.d0,))
                p[f"cross.{l}.b"] = np.zeros(self.d0, dtype=self.np_dtype)
            for l in range(cfg.deep_layers):
                p[f"deep.{l}.w"] = self._glorot(rng, (self.deep_dims[l + 1], self.deep_dims[l]))
                p[f"deep.{l}.b"] = np.zeros(self.deep_dims[l + 1], dtype=self.np_dtype)
        p["head.score"] = self._glorot(rng, (self.d_cd,))
        p["head.attr"] = self._glorot(rng, (self.attr_dim,))
        return p

    def _head_params(self, params, layer):
        return [
            (params[f"gat.{layer}.{h}.wq"], params[f"gat.{layer}.{h}.wk"], params[f"gat.{layer}.{h}.wa"])
            for h in range(self.cfg.gat_heads[layer])
        ]

    def _cross_params(self, params):
        return [(params[f"cross.{l}.w"], params[f"cross.{l}.b"]) for l in range(self.cfg.cross_layers)]

    def _deep_params(self, params):
        return [(params[f"deep.{l}.w"], params[f"deep.{l}.b"]) for l in range(self.cfg.deep_layers)]

    # -- forward ------------------------------------------------------------

    def _input_states(self, graph: PairGraph, inputs: GraphInputs, params) -> np.ndarray:
        n = graph.n_nodes
        h0 = np.zeros((n, self.cfg.hidden), dtype=self.np_dtype)
        h0[USER_NODE] = params["embed.user"][inputs.user_row]
        h0[ITEM_NODE] = params["embed.item"][inputs.item_row]
        if inputs.attr_X.shape[1] != self.cfg.hidden and inputs.attr_X.size:
            raise ModelError(
                f"attribute inputs have dim {inputs.attr_X.shape[1]}, expected {self.cfg.hidden}"
            )
        h0[graph.attr_slice] = inputs.attr_X
        if self.project_sentences:
            h0[graph.sent_slice] = inputs.sent_X @ params["proj.w"].T + params["proj.b"][None, :]
        else:
            h0[graph.sent_slice] = inputs.sent_X
        return h0

    def forward(self, graph: PairGraph, inputs: GraphInputs, params) -> ForwardTrace:
        cfg = self.cfg
        H0 = self._input_states(graph, inputs, params)
        mask = graph.edge_arrays()
        layer_traces: list[LayerTrace] = []
        H = H0
        if not cfg.disable_gat:
            for l in range(len(cfg.gat_heads)):
                H, lt = gat_layer(H, mask, self._head_params(params, l), cfg)
                layer_traces.append(lt)
        Xhat = H

        attr_rows = Xhat[graph.attr_slice]
        attr_logits = attr_rows @ params["head.attr"]
        attr_probs = _sigmoid(attr_logits)

        sent_rows = Xhat[graph.sent_slice]
        n_sent = sent_rows.shape[0]
        attr_pool = None
        if cfg.disable_gat:
            # mean of each sentence's attribute inputs; every sentence has one
            links = mask[graph.sent_slice, graph.attr_slice]
            attr_pool = (links @ H0[graph.attr_slice]) / links.sum(axis=1, keepdims=True)
            x0 = np.concatenate(
                [
                    np.tile(Xhat[USER_NODE], (n_sent, 1)),
                    np.tile(Xhat[ITEM_NODE], (n_sent, 1)),
                    attr_pool,
                    sent_rows,
                ],
                axis=1,
            )
        else:
            x0 = np.concatenate(
                [np.tile(Xhat[USER_NODE], (n_sent, 1)), np.tile(Xhat[ITEM_NODE], (n_sent, 1)), sent_rows],
                axis=1,
            )

        if cfg.disable_dcn:
            x_cd = x0 @ params["lin.w"].T + params["lin.b"][None, :]
            dcn_trace = None
        else:
            x_cd, dcn_trace = dcn_forward(x0, self._cross_params(params), self._deep_params(params))
        scores = x_cd @ params["head.score"]
        return ForwardTrace(
            graph=graph,
            inputs=inputs,
            H0=H0,
            layer_traces=layer_traces,
            Xhat=Xhat,
            attr_pool=attr_pool,
            x0=x0,
            dcn=dcn_trace,
            x_cd=x_cd,
            scores=scores,
            attr_logits=attr_logits,
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
            grads["lin.w"] += dx_cd.T @ trace.x0
            grads["lin.b"] += dx_cd.sum(axis=0)
            dx0 = dx_cd @ params["lin.w"]
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

        # x0 blocks back to node states
        d = cfg.hidden
        nd = self.node_dim
        dXhat = np.zeros_like(trace.Xhat)
        dXhat[graph.attr_slice] += np.outer(dlogit, params["head.attr"])
        if cfg.disable_gat:
            dXhat[USER_NODE] += dx0[:, :d].sum(axis=0)
            dXhat[ITEM_NODE] += dx0[:, d : 2 * d].sum(axis=0)
            links = graph.edge_arrays()[graph.sent_slice, graph.attr_slice]
            dpool = dx0[:, 2 * d : 3 * d] / links.sum(axis=1, keepdims=True)
            dH0_extra = np.zeros_like(trace.H0)
            dH0_extra[graph.attr_slice] = links.T @ dpool
            dXhat[graph.sent_slice] += dx0[:, 3 * d :]
        else:
            dXhat[USER_NODE] += dx0[:, :nd].sum(axis=0)
            dXhat[ITEM_NODE] += dx0[:, nd : 2 * nd].sum(axis=0)
            dXhat[graph.sent_slice] += dx0[:, 2 * nd :]
            dH0_extra = None

        # attention stack
        dH = dXhat
        if not cfg.disable_gat:
            for l in range(len(cfg.gat_heads) - 1, -1, -1):
                head_params = self._head_params(params, l)
                dH, head_grads = _gat_layer_backward(dH, head_params, trace.layer_traces[l], cfg)
                for h, (dwq, dwk, dwa) in enumerate(head_grads):
                    grads[f"gat.{l}.{h}.wq"] += dwq
                    grads[f"gat.{l}.{h}.wk"] += dwk
                    grads[f"gat.{l}.{h}.wa"] += dwa
        dH0 = dH
        if dH0_extra is not None:
            dH0 = dH0 + dH0_extra

        # input states back to trainable tables
        grads["embed.user"][trace.inputs.user_row] += dH0[USER_NODE]
        grads["embed.item"][trace.inputs.item_row] += dH0[ITEM_NODE]
        if self.project_sentences:
            dsent = dH0[graph.sent_slice]
            grads["proj.w"] += dsent.T @ trace.inputs.sent_X
            grads["proj.b"] += dsent.sum(axis=0)
