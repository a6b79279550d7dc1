import weakref
from dataclasses import fields

import numpy as np
import pytest

from recexplain import model as model_module
from recexplain.features import GraphInputs
from recexplain.graphs import ITEM_NODE, USER_NODE, PairGraph, attention_edges
from recexplain.model import (
    CROSS_LAYERS,
    DEEP_LAYERS,
    Model,
    ModelConfig,
    _gat_layer_backward,
    dcn_forward,
    gat_layer,
    readout_chunks,
)
from recexplain.training import attribute_loss, combined_loss, pairwise_rank_loss

from conftest import toy_graph, toy_inputs, toy_labelled_graph
from oracles import (
    dense_dcn_backward,
    dense_dcn_forward,
    dense_gat_layer,
    dense_gat_layer_backward,
    gat_scalar_oracle,
    graph_dcn_backward,
    graph_dcn_forward,
)


def small_model(hidden=3, heads=(2, 1), sent_dim=2, **kw):
    cfg = ModelConfig(
        hidden=hidden,
        gat_heads=heads,
        deep_hidden=4,
        **kw,
    )
    return Model(cfg, n_users=3, n_items=3, sentence_dim=sent_dim), cfg


def line_graph(item_edge=True):
    """user - attr - sentence chain plus an item-attr edge (or an isolated item)."""
    return PairGraph(
        user_id="u",
        item_id="c",
        attribute_ids=(0,),
        sentence_ids=("s0",),
        edges=attention_edges(4, [(0, 2), (2, 3)] + ([(1, 2)] if item_edge else [])),
    )


def forward_one(model, g, inputs, provider, params):
    """`Model.forward` over a chunk of one graph."""
    return model.forward([g], [inputs], params, provider)


def dense_alpha(g, weights, head):
    """One head's column of a layer's (E, heads) attention weights on graph
    g as the (n, n) alpha, 0 off the edges."""
    alpha = np.zeros(g.n_nodes**2)
    alpha[g.edge_arrays().flat] = weights[:, head]
    return alpha.reshape(g.n_nodes, g.n_nodes)


def oracle_lists(g):
    """Each node's attention list for the scalar oracle: its row of the
    edge list, neighbors and itself, sorted."""
    edges = g.edge_arrays()
    return [row.tolist() for row in np.split(edges.src, edges.starts[1:])]


def as_lists(head_params):
    return [(wq.tolist(), wk.tolist(), wa.tolist()) for wq, wk, wa in head_params]


def folded(head_params):
    """GAT's factored heads (W_q, W_k, w_a) as folded (q, k) pairs:
    q = W_q^T w_a[:A], k = W_k^T w_a[A:]."""
    return [(wq.T @ wa[: wq.shape[0]], wk.T @ wa[wq.shape[0] :]) for wq, wk, wa in head_params]


def stacked(pairs):
    """(q, k) pairs as the (Din, 2h) QK `gat_layer` takes: [q_1..q_h | k_1..k_h]."""
    return np.column_stack([q for q, _ in pairs] + [k for _, k in pairs])


def attention_mask(g):
    """(n, n) True where node i attends to j: (i, j) is an edge."""
    mask = np.zeros((g.n_nodes, g.n_nodes), dtype=bool)
    mask[g.edge_arrays().dst, g.edge_arrays().src] = True
    return mask


def assert_alpha_matches(alpha, oracle_alpha, g):
    """Attention equals the oracle's on the graph's edges and is 0 off them."""
    expect = np.zeros((g.n_nodes, g.n_nodes))
    for (i, j), value in oracle_alpha.items():
        expect[i, j] = value
    assert np.allclose(alpha, expect, rtol=0.0, atol=1e-12)
    assert np.all(alpha[~attention_mask(g)] == 0.0)


class TestGatLayer:
    def test_single_neighbor_alpha_one(self, rng):
        # the isolated item node (1) attends only to itself
        g = line_graph(item_edge=False)
        H = rng.normal(size=(4, 3))
        params = [(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=6))]
        out, _, weights = gat_layer(H, g.edge_arrays(), stacked(folded(params)))
        assert dense_alpha(g, weights, 0)[1].tolist() == [0.0, 1.0, 0.0, 0.0]
        elu = np.where(H[1] > 0, H[1], np.expm1(np.minimum(H[1], 0.0)))
        assert np.array_equal(out[1], elu)

    def test_identical_neighbors_split_evenly(self, rng):
        # attr node 2 sees user, item, sentence and itself; give all the same state
        g = line_graph()
        H = rng.normal(size=(4, 3))
        H[[0, 1, 3]] = H[2]
        params = [(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=6))]
        _, _, weights = gat_layer(H, g.edge_arrays(), stacked(folded(params)))
        assert dense_alpha(g, weights, 0)[2] == pytest.approx([1 / 4] * 4)

    def test_matches_scalar_oracle_two_layers(self, rng):
        g = line_graph()
        d = 2
        H = rng.normal(size=(4, d))
        layer1 = [
            (rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=2 * d))
            for _ in range(2)
        ]
        layer2 = [(rng.normal(size=(d, 2 * d)), rng.normal(size=(d, 2 * d)), rng.normal(size=2 * d))]
        h1, _, w1 = gat_layer(H, g.edge_arrays(), stacked(folded(layer1)))
        h2, _, _ = gat_layer(h1, g.edge_arrays(), stacked(folded(layer2)))

        nbr_lists = oracle_lists(g)
        o1, alphas1 = gat_scalar_oracle([row.tolist() for row in H], nbr_lists, as_lists(layer1), 0.2)
        o2, _ = gat_scalar_oracle(o1, nbr_lists, as_lists(layer2), 0.2)
        assert np.allclose(h1, np.array(o1), atol=1e-12)
        assert np.allclose(h2, np.array(o2), atol=1e-12)
        for head in range(2):
            assert_alpha_matches(dense_alpha(g, w1, head), alphas1[head], g)

    def test_large_logits_through_gat_layer(self, rng):
        # logits in the thousands: exp without the row max would overflow
        g = toy_graph(3, 5, rng)
        H = rng.normal(size=(g.n_nodes, 3))
        params = [(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), 1e3 * rng.normal(size=6)) for _ in range(2)]
        out, logits, weights = gat_layer(H, g.edge_arrays(), stacked(folded(params)))
        assert np.abs(logits[:, 0]).max() > 100.0
        want, alphas = gat_scalar_oracle([row.tolist() for row in H], oracle_lists(g), as_lists(params), 0.2)
        assert np.all(np.isfinite(out))
        assert np.allclose(out, np.array(want), atol=1e-12)
        for head in range(2):
            alpha = dense_alpha(g, weights, head)
            assert np.all(np.isfinite(alpha))
            assert np.allclose(alpha.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
            assert_alpha_matches(alpha, alphas[head], g)

    def test_rows_sum_to_one_and_nonnegative(self, rng):
        for trial in range(20):
            g = toy_graph(int(rng.integers(1, 4)), int(rng.integers(1, 5)), rng)
            H = rng.normal(size=(g.n_nodes, 3))
            params = [(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=6))]
            _, _, weights = gat_layer(H, g.edge_arrays(), stacked(folded(params)))
            alpha = dense_alpha(g, weights, 0)
            assert np.all(alpha >= 0.0)
            assert np.all(alpha[~attention_mask(g)] == 0.0)
            assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-6)


def assert_rel_close(got, want, what, scale=None, tol=1e-12):
    """Agreement to `tol` of `scale`, by default the reference array's
    largest magnitude."""
    assert got.shape == want.shape, what
    err = np.abs(got - want).max()
    scale = np.abs(want).max() if scale is None else scale
    assert err <= tol * scale, f"{what}: {err} against scale {scale}"


class TestMatchesDenseOracle:
    """The edge-list layer against the dense masked layer it replaced:
    output, alpha, dH, dq and dk, forward and backward."""

    def check(self, g, H, head_params, rng):
        mask = attention_mask(g)
        out, logits, weights = gat_layer(H, g.edge_arrays(), stacked(head_params))
        want, want_trace = dense_gat_layer(H, mask, head_params)
        assert_rel_close(out, want, "output")
        h = len(head_params)
        assert logits.shape == weights.shape == (len(g.edge_arrays().dst), h)
        for head in range(h):
            alpha, want_alpha = dense_alpha(g, weights, head), want_trace[1][head][2]
            assert_rel_close(alpha, want_alpha, f"alpha {head}")
            assert np.all(alpha[~mask] == 0.0) and np.all(want_alpha[~mask] == 0.0)
        dH_out = rng.normal(size=out.shape)
        dH, dQK = _gat_layer_backward(dH_out, H, out, g.edge_arrays(), stacked(head_params), logits, weights)
        assert dQK.shape == (H.shape[1], 2 * h)
        want_dH, want_grads = dense_gat_layer_backward(dH_out, head_params, want_trace)
        # a head whose rows' logits all share a sign has du = 0 up to
        # rounding (softmax gradients sum to 0 over a row), so dq and dk are
        # held to the layer's gradient scale rather than their own
        scale = max(np.abs(t).max() for t in [want_dH, *(t for pair in want_grads for t in pair)])
        assert_rel_close(dH, want_dH, "dH", scale)
        for head, (want_dq, want_dk) in enumerate(want_grads):
            assert_rel_close(dQK[:, head], want_dq, f"dq {head}", scale)
            assert_rel_close(dQK[:, h + head], want_dk, f"dk {head}", scale)
        return out

    def heads(self, rng, n_heads, din, scale=1.0):
        return [(scale * rng.normal(size=din), scale * rng.normal(size=din)) for _ in range(n_heads)]

    def test_random_toy_graphs(self, rng):
        for _ in range(20):
            g = toy_graph(int(rng.integers(1, 6)), int(rng.integers(1, 10)), rng)
            H = rng.normal(size=(g.n_nodes, 3))
            self.check(g, H, self.heads(rng, int(rng.integers(1, 4)), 3), rng)

    def test_isolated_node(self, rng):
        g = line_graph(item_edge=False)
        H = rng.normal(size=(4, 3))
        self.check(g, H, self.heads(rng, 2, 3), rng)

    def test_large_logits(self, rng):
        g = toy_graph(3, 5, rng)
        H = rng.normal(size=(g.n_nodes, 3))
        heads = self.heads(rng, 2, 3, scale=1e3)
        _, logits, _ = gat_layer(H, g.edge_arrays(), stacked(heads))
        assert np.abs(logits[:, 0]).max() > 500.0
        self.check(g, H, heads, rng)

    def test_dense_pools_shape_two_layers(self, rng):
        # 130 nodes as on a median dense_pools graph, hidden 32, heads (4, 1)
        g = toy_graph(8, 120, rng)
        assert g.n_nodes == 130
        H = rng.normal(size=(g.n_nodes, 32))
        h1 = self.check(g, H, self.heads(rng, 4, 32, scale=0.3), rng)
        self.check(g, h1, self.heads(rng, 1, 128, scale=0.3), rng)


def dcn_params(cross, deep, head):
    """`dcn_forward`'s params from the oracle's (w, b) lists.  The model has
    no last cross bias, so the oracle's must be 0."""
    assert len(cross) == CROSS_LAYERS and len(deep) == DEEP_LAYERS
    assert not np.any(cross[-1][1])
    params = {"head.score": head}
    for l, (w, b) in enumerate(cross):
        params[f"cross.{l}.w"] = w
        if l < CROSS_LAYERS - 1:
            params[f"cross.{l}.b"] = b
    for l, (w, b) in enumerate(deep):
        params[f"deep.{l}.w"], params[f"deep.{l}.b"] = w, b
    return params


class TestDcn:
    """Hand-worked cross and deep layers through the dense oracle, and the
    closed form against it: its x_L = c_L x0 + B_L beside its deep output
    must be the oracle's concat, and its scores that concat times the head."""

    def through_oracle(self, x0, ds, cross, deep):
        want, _ = dense_dcn_forward(x0, cross, deep)
        head = np.arange(1.0, want.shape[1] + 1)
        assert np.all(x0[:, :ds] == x0[0, :ds])  # the shared block
        scores, trace = dcn_forward(x0[:1, :ds], x0[:, ds:], np.array([0]), dcn_params(cross, deep, head))
        x_last = trace.c[-1][:, None] * x0 + trace.B[-1]
        assert np.allclose(np.concatenate([x_last, trace.deep[-1]], axis=1), want, rtol=1e-13, atol=0.0)
        assert np.allclose(scores, want @ head, rtol=1e-13, atol=0.0)
        return want

    def test_zero_cross_weights_keep_residual(self):
        x0 = np.array([[1.0, 2.0], [3.0, -1.0]])
        cross = [(np.zeros(2), np.zeros(2)), (np.zeros(2), np.zeros(2))]
        deep = [(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))]
        out = self.through_oracle(x0, 0, cross, deep)
        assert np.allclose(out[:, :2], x0)  # cross half of the concat

    def test_hand_cross_layer(self):
        # x0 = [1, 2], w = [1, 0], b = 0: x1 = x0 * (x0 . w) + x0 = [2, 4];
        # a zero second layer keeps it
        x0 = np.array([[1.0, 2.0]])
        cross = [(np.array([1.0, 0.0]), np.zeros(2)), (np.zeros(2), np.zeros(2))]
        deep = [(np.zeros((2, 2)), np.zeros(2)), (np.zeros((2, 2)), np.zeros(2))]
        out = self.through_oracle(x0, 1, cross, deep)
        assert np.allclose(out[:, :2], [[2.0, 4.0]])

    def test_deep_identity_path(self):
        x0 = np.array([[0.5, 1.5]])
        cross = [(np.zeros(2), np.zeros(2)), (np.zeros(2), np.zeros(2))]
        deep = [(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))]
        out = self.through_oracle(x0, 1, cross, deep)
        # zero cross weights: cross output is x0 itself, deep relu(I x) = x
        assert np.allclose(out, [[0.5, 1.5, 0.5, 1.5]])


def explicit_x0(model, g, inputs, provider, Xhat):
    """x0 = [user | item | (pooled attributes, --no-gat) | sentence], one
    row per sentence, built block by block from the final node states."""
    n_sent = len(g.sentence_ids)
    blocks = [np.tile(Xhat[USER_NODE], (n_sent, 1)), np.tile(Xhat[ITEM_NODE], (n_sent, 1))]
    if model.cfg.disable_gat:
        # each sentence's attribute inputs, averaged
        attrs = range(g.attr_slice.start, g.attr_slice.stop)
        linked = [[j - attrs.start for j in row if j in attrs] for row in oracle_lists(g)[g.sent_slice]]
        attr_X = provider.attr_X[inputs.attr_rows]
        blocks.append(np.array([attr_X[rows].mean(axis=0) for rows in linked]))
    blocks.append(Xhat[g.sent_slice])
    return np.concatenate(blocks, axis=1)


ABLATIONS = pytest.mark.parametrize(
    "disable_gat, disable_dcn",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["default", "no-gat", "no-dcn", "no-gat-no-dcn"],
)


class TestDcnMatchesDenseOracle:
    """The closed-form readout (`dcn_forward`, or the linear head on x0's
    per-sentence block under --no-dcn) against x0 formed row by row and the
    dense oracle: scores,
    d(Xhat) at the user, item and sentence rows, and the cross, deep and
    score-head gradients, each to 1e-12 of the reference tensor's largest
    entry."""

    def check(self, model, g, toy, rng):
        [inputs], provider = toy
        params = model.init_params(int(rng.integers(1000)))
        for name, t in params.items():
            if name.startswith(("cross.", "deep.")) and name.endswith(".b"):
                t[:] = 0.1 * rng.normal(size=t.shape)
        trace = forward_one(model, g, inputs, provider, params)
        x0 = explicit_x0(model, g, inputs, provider, trace.states[0][-1])
        head = params["head.score"]
        d0 = model.d0
        d_scores = rng.normal(size=len(g.sentence_ids))
        grads = model.zero_grads(params)
        [dXhat] = model._readout_backward(trace, params, d_scores, np.zeros(len(g.attribute_ids)), grads)

        if model.cfg.disable_dcn:
            ds = 2 * model.node_dim
            x_cd, dx0 = x0[:, ds:], np.outer(d_scores, np.concatenate([np.zeros(ds), head]))
            want = {}
        else:
            cross = [(params[f"cross.{l}.w"], params.get(f"cross.{l}.b", np.zeros(d0))) for l in range(CROSS_LAYERS)]
            deep = [(params[f"deep.{l}.w"], params[f"deep.{l}.b"]) for l in range(DEEP_LAYERS)]
            x_cd, dense_trace = dense_dcn_forward(x0, cross, deep)
            dx0, cross_g, deep_g = dense_dcn_backward(np.outer(d_scores, head), cross, deep, dense_trace)
            want = {f"cross.{l}.w": dw for l, (dw, _) in enumerate(cross_g)}
            want["cross.0.b"] = cross_g[0][1]
            for l, (dw, db) in enumerate(deep_g):
                want[f"deep.{l}.w"], want[f"deep.{l}.b"] = dw, db
        want["head.score"] = x_cd.T @ d_scores

        assert_rel_close(trace.scores, x_cd @ head, "scores")
        nd = model.node_dim
        want_user, want_item = dx0[:, :nd].sum(axis=0), dx0[:, nd : 2 * nd].sum(axis=0)
        # dXhat is one tensor: the user and item rows are sums over the
        # sentences that can cancel far below their terms, so all three
        # blocks are held to dXhat's largest entry
        scale = max(np.abs(want_user).max(), np.abs(want_item).max(), np.abs(dx0[:, -nd:]).max())
        assert_rel_close(dXhat[USER_NODE], want_user, "dXhat user", scale)
        assert_rel_close(dXhat[ITEM_NODE], want_item, "dXhat item", scale)
        assert_rel_close(dXhat[g.sent_slice], dx0[:, -nd:], "dXhat sentences", scale)
        trained = {name for name in params if name.startswith(("cross.", "deep.", "head.score"))}
        assert trained == set(want)
        for name, ref in want.items():
            assert_rel_close(grads[name], ref, name)

    # small_model's heads (2, 1) under each ablation, then a multi-head last
    # layer and a three-layer stack
    @pytest.mark.parametrize(
        "disable_gat, disable_dcn, heads",
        [
            pytest.param(False, False, (2, 1), id="default"),
            pytest.param(True, False, (2, 1), id="no-gat"),
            pytest.param(False, True, (2, 1), id="no-dcn"),
            pytest.param(True, True, (2, 1), id="no-gat-no-dcn"),
            pytest.param(False, False, (2, 3), id="heads-2-3"),
            pytest.param(False, False, (2, 1, 2), id="heads-2-1-2"),
        ],
    )
    def test_random_toy_graphs(self, rng, disable_gat, disable_dcn, heads):
        model, _ = small_model(heads=heads, disable_gat=disable_gat, disable_dcn=disable_dcn)
        for _ in range(10):
            g = toy_graph(int(rng.integers(1, 6)), int(rng.integers(1, 10)), rng)
            self.check(model, g, toy_inputs([g], 3, 2, rng), rng)

    @ABLATIONS
    def test_dense_pools_shape(self, rng, disable_gat, disable_dcn):
        # 120 sentences, hidden 32, heads (4, 1)
        cfg = ModelConfig(hidden=32, gat_heads=(4, 1), deep_hidden=32, disable_gat=disable_gat, disable_dcn=disable_dcn)
        g = toy_graph(8, 120, rng)
        self.check(Model(cfg, 64, 3, 32), g, toy_inputs([g], 32, 32, rng), rng)

    @ABLATIONS
    def test_sparse_pools_shape(self, rng, disable_gat, disable_dcn):
        # hidden 128 and 64-wide sentence vectors, projected
        cfg = ModelConfig(hidden=128, gat_heads=(4, 1), deep_hidden=128, disable_gat=disable_gat, disable_dcn=disable_dcn)
        g = toy_graph(6, 19, rng)
        self.check(Model(cfg, 140, 28, 64), g, toy_inputs([g], 128, 64, rng), rng)


class TestForward:
    def test_zero_attr_head_gives_half(self, rng):
        model, _ = small_model()
        g = toy_graph(3, 4, rng)
        [inputs], provider = toy_inputs([g], 3, 2, rng)
        params = model.init_params(0)
        params["head.attr"][:] = 0.0
        trace = forward_one(model, g, inputs, provider, params)
        assert np.allclose(trace.attr_probs, 0.5)

    def test_zero_score_head_gives_zero(self, rng):
        model, _ = small_model()
        g = toy_graph(3, 4, rng)
        [inputs], provider = toy_inputs([g], 3, 2, rng)
        params = model.init_params(0)
        params["head.score"][:] = 0.0
        trace = forward_one(model, g, inputs, provider, params)
        assert np.all(trace.scores == 0.0)

    def test_probs_in_open_interval(self, rng):
        model, _ = small_model()
        g = toy_graph(2, 3, rng)
        [inputs], provider = toy_inputs([g], 3, 2, rng)
        trace = forward_one(model, g, inputs, provider, model.init_params(3))
        assert np.all(trace.attr_probs > 0.0) and np.all(trace.attr_probs < 1.0)

    def test_repeat_calls_bit_identical(self, rng):
        model, _ = small_model()
        g = toy_graph(3, 5, rng)
        [inputs], provider = toy_inputs([g], 3, 2, rng)
        params = model.init_params(7)
        a = forward_one(model, g, inputs, provider, params)
        b = forward_one(model, g, inputs, provider, params)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.attr_probs, b.attr_probs)

    @pytest.mark.parametrize(
        "n_users, n_items, hidden, sent_dim, total",
        [(140, 28, 128, 64, 251_904), (64, 3, 32, 32, 17_728)],
        ids=["sparse_pools", "dense_pools"],
    )
    def test_attention_heads_are_two_vectors(self, n_users, n_items, hidden, sent_dim, total):
        # each head is its folded (q, k), two columns of its layer's one
        # tensor; shapes of the benchmark's workloads
        cfg = ModelConfig(hidden=hidden, gat_heads=(4, 1), deep_hidden=hidden)
        params = Model(cfg, n_users, n_items, sent_dim).init_params(0)
        gat = {name: t.shape for name, t in params.items() if name.startswith("gat.")}
        assert gat == {"gat.0.qk": (hidden, 8), "gat.1.qk": (4 * hidden, 2)}
        assert sum(t.size for t in params.values()) == total

    @pytest.mark.parametrize("sent_dim", [3, 2], ids=["no-projection", "projection"])
    def test_attention_columns_are_the_folded_init(self, sent_dim, monkeypatch):
        # column h of gat.{l}.qk is W_q^T w_a[:hidden] and column heads + h
        # is W_k^T w_a[hidden:], from the head's three draws in order
        model, cfg = small_model(hidden=3, heads=(2, 3), sent_dim=sent_dim)
        draws = []
        glorot = Model._glorot
        monkeypatch.setattr(Model, "_glorot", lambda self, r, shape: draws.append(glorot(self, r, shape)) or draws[-1])
        params = model.init_params(6)
        factors = iter(draws[1:] if model.project_sentences else draws)
        for l, heads in enumerate(cfg.gat_heads):
            qk = params[f"gat.{l}.qk"]
            assert qk.shape == (model.gat_in[l], 2 * heads)
            for h in range(heads):
                w_q, w_k, w_a = next(factors), next(factors), next(factors)
                assert qk[:, h].tobytes() == (w_q.T @ w_a[: cfg.hidden]).tobytes()
                assert qk[:, heads + h].tobytes() == (w_k.T @ w_a[cfg.hidden :]).tobytes()

    @pytest.mark.parametrize("disable_gat", [False, True], ids=["gat", "no-gat"])
    def test_x0_layout(self, rng, disable_gat):
        # with no feature interaction the score head reads x0's rows past g
        model, _ = small_model(disable_gat=disable_gat, disable_dcn=True)
        g = toy_graph(3, 4, rng)
        [inputs], provider = toy_inputs([g], 3, 2, rng)
        params = model.init_params(2)
        trace = forward_one(model, g, inputs, provider, params)
        x0 = explicit_x0(model, g, inputs, provider, trace.states[0][-1])
        assert x0.shape == (4, model.d0)
        shared = np.tile(trace.shared, (4, 1))
        assert np.allclose(np.concatenate([shared, trace.rows], axis=1), x0, rtol=1e-13, atol=0.0)
        assert_rel_close(trace.scores, x0[:, trace.shared.size :] @ params["head.score"], "scores", tol=1e-13)

    @pytest.mark.parametrize("disable_gat", [False, True], ids=["gat", "no-gat"])
    def test_no_dcn_head_is_the_row_half_of_the_folded_init(self, rng, disable_gat, monkeypatch):
        # the head on all of x0 that the folded two-layer init gives scores
        # each graph's sentences the same, up to one shift per graph
        model, _ = small_model(disable_gat=disable_gat, disable_dcn=True)
        draws = []
        glorot = Model._glorot
        monkeypatch.setattr(Model, "_glorot", lambda self, r, shape: draws.append(glorot(self, r, shape)) or draws[-1])
        params = model.init_params(4)
        lin, h, attr = draws[-3:]
        full, ds = lin.T @ h, 2 * model.node_dim
        assert params["head.score"].tobytes() == full[ds:].tobytes()
        assert params["head.attr"].tobytes() == attr.tobytes()
        for _ in range(5):
            g = toy_graph(int(rng.integers(1, 5)), int(rng.integers(1, 8)), rng)
            [inputs], provider = toy_inputs([g], 3, 2, rng)
            trace = forward_one(model, g, inputs, provider, params)
            x0 = explicit_x0(model, g, inputs, provider, trace.states[0][-1])
            assert_rel_close(x0 @ full - trace.scores, np.full(len(g.sentence_ids), trace.shared[0] @ full[:ds]),
                             "shift", np.abs(x0 @ full).max())

    @pytest.mark.parametrize(
        "n_users, n_items, hidden, sent_dim, total",
        [(140, 28, 128, 64, 32_896), (64, 3, 32, 32, 2_912)],
        ids=["sparse_pools", "dense_pools"],
    )
    def test_no_dcn_parameter_count(self, n_users, n_items, hidden, sent_dim, total):
        cfg = ModelConfig(hidden=hidden, gat_heads=(4, 1), deep_hidden=hidden, disable_dcn=True)
        params = Model(cfg, n_users, n_items, sent_dim).init_params(0)
        assert params["head.score"].shape == (hidden * 4,)  # the sentence block of x0
        assert sum(t.size for t in params.values()) == total

    def test_init_deterministic(self):
        model, _ = small_model()
        a = model.init_params(11)
        b = model.init_params(11)
        assert set(a) == set(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_sentence_permutation_equivariance(self, rng):
        model, _ = small_model()
        g = toy_graph(3, 5, rng)
        [inputs], provider = toy_inputs([g], 3, 2, rng)
        params = model.init_params(5)
        base = forward_one(model, g, inputs, provider, params).scores

        perm = rng.permutation(5)
        start = g.sent_slice.start
        mapping = {start + int(old): start + int(new) for new, old in enumerate(perm)}
        relabel = lambda j: mapping.get(int(j), int(j))
        edges = g.edge_arrays()
        links = [(relabel(i), relabel(j)) for i, j in zip(edges.dst, edges.src) if i < j]
        g2 = PairGraph(
            user_id=g.user_id,
            item_id=g.item_id,
            attribute_ids=g.attribute_ids,
            sentence_ids=tuple(g.sentence_ids[int(old)] for old in perm),
            edges=attention_edges(g.n_nodes, links),
        )
        # the same table rows, the sentences' in the new order
        inputs2 = GraphInputs(inputs.attr_rows, inputs.sent_rows[perm], inputs.user_row, inputs.item_row)
        permuted = forward_one(model, g2, inputs2, provider, params).scores
        assert np.allclose(permuted, base[perm], atol=1e-9)


def loss_through_model(model, graphs, inputs, provider, params, targets, pairs, labels, lam=0.4):
    """The summed losses of a chunk's graphs, each on its own rows, and
    their gradient from one backward."""
    trace = model.forward(graphs, inputs, params, provider)
    loss = 0.0
    d_scores = np.empty_like(trace.scores)
    d_probs = np.empty_like(trace.attr_probs)
    for b in range(len(graphs)):
        rows, attrs = trace.sentences(b), trace.attributes(b)
        l_rank, d_scores[rows] = pairwise_rank_loss(trace.scores[rows], targets[b], pairs[b])
        l_attr, d_probs[attrs] = attribute_loss(trace.attr_probs[attrs], labels[b])
        loss += combined_loss(l_rank, l_attr, lam)
    grads = model.zero_grads(params)
    model.backward(trace, params, lam * d_scores, (1 - lam) * d_probs, grads)
    return loss, grads


def finite_diff_check(model, graphs, inputs, provider, params, targets, pairs, labels, eps=1e-5, tol=1e-4):
    _, grads = loss_through_model(model, graphs, inputs, provider, params, targets, pairs, labels)

    def loss_only():
        return loss_through_model(model, graphs, inputs, provider, params, targets, pairs, labels)[0]

    worst = 0.0
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = loss_only()
            flat[idx] = keep - eps
            down = loss_only()
            flat[idx] = keep
            fd = (up - down) / (2 * eps)
            a = gflat[idx]
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
            if abs(a - fd) > 1e-8:
                assert err < tol, f"{name}[{idx}]: analytic {a}, fd {fd}"
            worst = max(worst, err if abs(a - fd) > 1e-8 else 0.0)
    return worst


def gradcheck_setup(rng, **model_kw):
    """A chunk of two graphs of unequal sizes (9 and 7 nodes) for different
    users and the same item, with their targets, rank pairs and labels."""
    model, _ = small_model(**model_kw)
    g0, labels0 = toy_labelled_graph(3, 4, rng)
    g1, labels1 = toy_labelled_graph(2, 3, rng)
    inputs, provider = toy_inputs([g0, g1], 3, 2, rng, rows=[(1, 2), (0, 2)])
    params = model.init_params(13)
    targets = [rng.uniform(0, 1, size=4), rng.uniform(0, 1, size=3)]
    pairs = [np.array([[0, 1], [0, 2], [1, 3], [2, 3]]), np.array([[0, 1], [1, 2], [0, 2]])]
    return model, [g0, g1], inputs, provider, params, targets, pairs, [labels0, labels1]


class TestGradients:
    def test_zero_upstream_zero_grads(self, rng):
        model, graphs, inputs, provider, params, *_ = gradcheck_setup(rng)
        trace = model.forward(graphs, inputs, params, provider)
        grads = model.zero_grads(params)
        model.backward(trace, params, np.zeros(7), np.zeros(5), grads)
        assert all(np.all(v == 0.0) for v in grads.values())

    def test_backward_adds_into_given_grads(self, rng):
        # one `+=` per tensor element per chunk: adding into a dict that
        # already holds numbers gives its start plus the chunk's fresh
        # gradient, bit for bit, though the two graphs share the item row
        model, graphs, inputs, provider, params, targets, pairs, labels = gradcheck_setup(rng)
        _, fresh = loss_through_model(model, graphs, inputs, provider, params, targets, pairs, labels)
        start = {name: rng.normal(size=t.shape) for name, t in params.items()}
        grads = {name: t.copy() for name, t in start.items()}
        trace = model.forward(graphs, inputs, params, provider)
        d_scores = np.concatenate(
            [pairwise_rank_loss(trace.scores[trace.sentences(b)], targets[b], pairs[b])[1] for b in range(2)]
        )
        d_probs = np.concatenate(
            [attribute_loss(trace.attr_probs[trace.attributes(b)], labels[b])[1] for b in range(2)]
        )
        assert model.backward(trace, params, 0.4 * d_scores, 0.6 * d_probs, grads) is None
        for name in params:
            assert np.array_equal(grads[name], start[name] + fresh[name]), name

    def test_untouched_rows_zero(self, rng):
        model, graphs, inputs, provider, params, targets, pairs, labels = gradcheck_setup(rng)
        _, grads = loss_through_model(model, graphs, inputs, provider, params, targets, pairs, labels)
        for table, touched in (("embed.user", {1, 0}), ("embed.item", {2})):
            for row in range(3):
                assert np.all(grads[table][row] == 0.0) == (row not in touched), (table, row)

    def test_attr_head_idle_when_attr_loss_off(self, rng):
        model, graphs, inputs, provider, params, targets, pairs, labels = gradcheck_setup(rng)
        loss, grads = loss_through_model(model, graphs, inputs, provider, params, targets, pairs, labels, lam=1.0)
        assert np.all(grads["head.attr"] == 0.0)

    # small_model's heads (2, 1) under each ablation, then a multi-head last
    # layer and a three-layer stack, whose stacked (Din, 2h) head gradients a
    # one-head last layer would not index
    @pytest.mark.parametrize(
        "disable_gat, disable_dcn, heads",
        [
            pytest.param(False, False, (2, 1), id="gat-dcn"),
            pytest.param(False, True, (2, 1), id="gat-no-dcn"),
            pytest.param(True, False, (2, 1), id="no-gat-dcn"),
            pytest.param(True, True, (2, 1), id="no-gat-no-dcn"),
            pytest.param(False, False, (2, 3), id="gat-dcn-heads-2-3"),
            pytest.param(False, True, (2, 3), id="gat-no-dcn-heads-2-3"),
            pytest.param(False, False, (2, 1, 2), id="gat-dcn-heads-2-1-2"),
            pytest.param(False, True, (2, 1, 2), id="gat-no-dcn-heads-2-1-2"),
        ],
    )
    def test_finite_difference(self, rng, disable_gat, disable_dcn, heads):
        # through a two-graph chunk, so a row-to-graph index error fails it
        model, graphs, inputs, provider, params, targets, pairs, labels = gradcheck_setup(
            rng, heads=heads, disable_gat=disable_gat, disable_dcn=disable_dcn
        )
        assert model.d0 == (4 if disable_gat else 3) * model.node_dim
        if disable_dcn:
            # the score head reads x0's rows past g = [user | item]
            assert not [name for name in params if name.startswith(("lin.", "cross.", "deep."))]
            assert params["head.score"].shape == (model.d0 - 2 * model.node_dim,)
        # central differences need a point where every ReLU is smooth: with
        # the zero initial biases, a row whose first deep layer is all 0
        # puts its second layer exactly at the kink (heads (2, 3) has one)
        for name, t in params.items():
            if name.startswith(("cross.", "deep.")) and name.endswith(".b"):
                t[:] = 0.1 * rng.normal(size=t.shape)
        finite_diff_check(model, graphs, inputs, provider, params, targets, pairs, labels)


class TestChunkReadoutMatchesPerGraphOracle:
    """One readout over a chunk of graphs of unequal sizes against the
    per-graph closed form (`graph_dcn_forward` / `graph_dcn_backward`) and
    the attribute head run on each graph's own rows: scores, attribute
    probabilities, d(Xhat) and every readout gradient, each to 1e-12 of the
    reference tensor's largest entry."""

    @ABLATIONS
    def test_unequal_graphs(self, rng, disable_gat, disable_dcn):
        model, _ = small_model(disable_gat=disable_gat, disable_dcn=disable_dcn)
        graphs = [toy_graph(a, s, rng) for a, s in ((2, 5), (1, 1), (4, 9), (3, 2))]
        assert len(graphs[1].sentence_ids) == 1
        # users 0, 1, 0, 1: two graphs share each user row
        inputs, provider = toy_inputs(graphs, 3, 2, rng, rows=[(b % 2, b % 3) for b in range(len(graphs))])
        params = model.init_params(int(rng.integers(1000)))
        for name, t in params.items():
            if name.startswith(("cross.", "deep.")) and name.endswith(".b"):
                t[:] = 0.1 * rng.normal(size=t.shape)
        trace = model.forward(graphs, inputs, params, provider)
        d_scores = rng.normal(size=trace.scores.shape)
        d_probs = rng.normal(size=trace.attr_probs.shape)
        grads = model.zero_grads(params)
        dXhat = model._readout_backward(trace, params, d_scores, d_probs, grads)

        readout = [name for name in params if name.startswith(("cross.", "deep.", "head."))]
        want = {name: np.zeros_like(params[name]) for name in readout}
        nd = model.node_dim
        for b, g in enumerate(graphs):
            Xhat = trace.states[b][-1]
            shared = np.concatenate([Xhat[USER_NODE], Xhat[ITEM_NODE]])
            rows, attrs = trace.sentences(b), trace.attributes(b)
            R = trace.rows[rows]
            assert np.array_equal(trace.shared[b], shared)
            assert np.array_equal(R[:, -nd:], Xhat[g.sent_slice])
            if disable_dcn:
                scores = R @ params["head.score"]
                want["head.score"] += R.T @ d_scores[rows]
                dg, dR = np.zeros(2 * nd), np.outer(d_scores[rows], params["head.score"])
            else:
                scores, dcn = graph_dcn_forward(shared, R, params)
                dg, dR = graph_dcn_backward(d_scores[rows], shared, R, params, dcn, want)
            assert_rel_close(trace.scores[rows], scores, f"scores {b}")
            logits = Xhat[g.attr_slice] @ params["head.attr"]
            probs = 1.0 / (1.0 + np.exp(-logits))
            assert_rel_close(trace.attr_probs[attrs], probs, f"attr_probs {b}")
            dlogit = d_probs[attrs] * probs * (1.0 - probs)
            want["head.attr"] += Xhat[g.attr_slice].T @ dlogit
            want_dX = np.zeros_like(Xhat)
            if not disable_gat:
                want_dX[g.attr_slice] = np.outer(dlogit, params["head.attr"])
            want_dX[USER_NODE], want_dX[ITEM_NODE] = dg[:nd], dg[nd:]
            want_dX[g.sent_slice] = dR[:, -nd:]
            assert_rel_close(dXhat[b], want_dX, f"dXhat {b}")
        for name in readout:
            assert_rel_close(grads[name], want[name], name)

    def test_a_graph_without_rows_is_refused(self):
        # np.add.reduceat would give an empty segment the row at its start
        params = dcn_params([(np.ones(2), np.zeros(2))] * 2, [(np.eye(2), np.zeros(2))] * 2, np.ones(4))
        with pytest.raises(ValueError, match="without rows"):
            dcn_forward(np.ones((2, 1)), np.ones((3, 1)), np.array([0, 3]), params)
        with pytest.raises(ValueError, match="without rows"):
            dcn_forward(np.ones((3, 1)), np.ones((3, 1)), np.array([0, 1, 1]), params)


class TestReadoutChunks:
    def test_rows_bound_each_chunk(self, monkeypatch):
        monkeypatch.setattr(model_module, "READOUT_ROWS", 10)
        sizes = [4, 5, 2, 12, 3, 7, 1]
        assert list(readout_chunks(sizes, lambda n: n)) == [[4, 5], [2], [12], [3, 7], [1]]

    def test_lazy_and_empty(self, monkeypatch):
        monkeypatch.setattr(model_module, "READOUT_ROWS", 3)
        drawn = []

        def items():
            for n in (2, 2, 2):
                drawn.append(n)
                yield n

        chunks = readout_chunks(items(), lambda n: n)
        assert next(chunks) == [2] and drawn == [2, 2]
        assert list(readout_chunks([], lambda n: n)) == []


class TestAttentionTraceMemory:
    """A training chunk holds every graph's attention trace until backward.
    At the dense pools' sizes, a dense (n, n) alpha per head in each trace
    pushes peak memory past the benchmark's bound, so each layer keeps its
    heads' (E, heads) logits and weights, O(E) numbers per head, and no
    trace holds an (n, n) array."""

    def test_heads_keep_per_edge_arrays_only(self, rng):
        cfg = ModelConfig(hidden=8, gat_heads=(4, 1), deep_hidden=8)
        model = Model(cfg, 3, 3, 8)
        g = toy_graph(6, 44, rng)  # n = 52
        n, n_edges = g.n_nodes, len(g.edge_arrays().dst)
        assert n_edges < n * n // 4
        [inputs], provider = toy_inputs([g], 8, 8, rng)
        trace = model.forward([g], [inputs], model.init_params(0), provider)
        [states], [attention] = trace.states, trace.attention
        assert [H.shape for H in states] == [(n, width) for width in model.gat_in] + [(n, model.node_dim)]
        assert len(attention) == len(cfg.gat_heads)
        for (logits, weights), heads in zip(attention, cfg.gat_heads):
            assert logits.shape == weights.shape == (n_edges, heads)
        # every array the trace holds, the readout's too
        held = [getattr(trace, f.name) for f in fields(trace) if f.name not in ("graphs", "inputs")]
        arrays = []
        while held:
            value = held.pop()
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, (list, tuple)):
                held.extend(value)
            elif value is not None:
                held.extend(getattr(value, f.name) for f in fields(value))
        assert len(arrays) > 20
        assert not [a for a in arrays if a.ndim == 2 and a.shape[1] == n]


class TestScores:
    """`Model.scores` yields `forward`'s scores chunk by chunk and holds no
    trace while its caller reads them."""

    def test_chunks_scores_and_released_traces(self, rng, monkeypatch):
        monkeypatch.setattr(model_module, "READOUT_ROWS", 10)
        model, _ = small_model()
        params = model.init_params(3)
        graphs = [toy_graph(a, s, rng) for a, s in ((2, 4), (1, 5), (3, 12), (2, 3), (1, 6))]
        inputs, provider = toy_inputs(graphs, 3, 2, rng)
        items = list(zip(graphs, inputs))
        chunks = list(readout_chunks(items, lambda item: len(item[0].sentence_ids)))
        assert [len(chunk) for chunk in chunks] == [2, 1, 2]  # 12 rows form a chunk alone
        forward = Model.forward
        traces = []

        def recorded(self, *args):
            trace = forward(self, *args)
            traces.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(Model, "forward", recorded)
        got, forwards = [], []
        for graph, scores in model.scores(iter(items), params, provider):
            assert traces[-1]() is None, "the chunk's trace is alive at a yield"
            forwards.append(len(traces))
            got.append((graph, scores))
        assert forwards == [1, 1, 2, 3, 3]
        assert all(graph is g for (graph, _), g in zip(got, graphs, strict=True))
        want = []
        for chunk in chunks:
            trace = forward(model, [g for g, _ in chunk], [inputs for _, inputs in chunk], params, provider)
            want += [trace.scores[trace.sentences(b)] for b in range(len(chunk))]
        for (_, scores), expect in zip(got, want, strict=True):
            assert scores.shape == expect.shape and scores.tobytes() == expect.tobytes()
