import numpy as np
import pytest

from recexplain.graphs import ITEM_NODE, USER_NODE, PairGraph
from recexplain.model import Model, ModelConfig, _gat_layer_backward, dcn_forward, gat_layer
from recexplain.training import attribute_loss, combined_loss, pairwise_rank_loss

from conftest import toy_graph, toy_inputs
from oracles import dense_gat_layer, dense_gat_layer_backward, gat_scalar_oracle


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
        neighbors=[
            np.array([2]),
            np.array([2] if item_edge else [], dtype=np.int64),
            np.array([0, 1, 3] if item_edge else [0, 3]),
            np.array([2]),
        ],
        attr_labels=np.array([1.0]),
    )


def oracle_lists(g):
    """Each node's attention list for the scalar oracle: neighbors plus itself."""
    return [sorted({i, *g.neighbors[i].tolist()}) for i in range(g.n_nodes)]


def as_lists(head_params):
    return [(wq.tolist(), wk.tolist(), wa.tolist()) for wq, wk, wa in head_params]


def folded(head_params):
    """GAT's factored heads (W_q, W_k, w_a) as the (q, k) pairs `gat_layer`
    takes: q = W_q^T w_a[:A], k = W_k^T w_a[A:]."""
    return [(wq.T @ wa[: wq.shape[0]], wk.T @ wa[wq.shape[0] :]) for wq, wk, wa in head_params]


def attention_mask(g):
    """(n, n) True where node i attends to j: j in neighbors[i], or j = i."""
    mask = np.eye(g.n_nodes, dtype=bool)
    for i, nbrs in enumerate(g.neighbors):
        mask[i, nbrs] = True
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
        out, trace = gat_layer(H, g.edge_arrays(), folded(params))
        assert trace.heads[0].alpha[1].tolist() == [0.0, 1.0, 0.0, 0.0]
        elu = np.where(H[1] > 0, H[1], np.expm1(np.minimum(H[1], 0.0)))
        assert np.array_equal(out[1], elu)

    def test_identical_neighbors_split_evenly(self, rng):
        # attr node 2 sees user, item, sentence and itself; give all the same state
        g = line_graph()
        H = rng.normal(size=(4, 3))
        H[[0, 1, 3]] = H[2]
        params = [(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=6))]
        _, trace = gat_layer(H, g.edge_arrays(), folded(params))
        assert trace.heads[0].alpha[2] == pytest.approx([1 / 4] * 4)

    def test_matches_scalar_oracle_two_layers(self, rng):
        g = line_graph()
        d = 2
        H = rng.normal(size=(4, d))
        layer1 = [
            (rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=2 * d))
            for _ in range(2)
        ]
        layer2 = [(rng.normal(size=(d, 2 * d)), rng.normal(size=(d, 2 * d)), rng.normal(size=2 * d))]
        h1, t1 = gat_layer(H, g.edge_arrays(), folded(layer1))
        h2, t2 = gat_layer(h1, g.edge_arrays(), folded(layer2))

        nbr_lists = oracle_lists(g)
        o1, alphas1 = gat_scalar_oracle([row.tolist() for row in H], nbr_lists, as_lists(layer1), 0.2)
        o2, _ = gat_scalar_oracle(o1, nbr_lists, as_lists(layer2), 0.2)
        assert np.allclose(h1, np.array(o1), atol=1e-12)
        assert np.allclose(h2, np.array(o2), atol=1e-12)
        for head in range(2):
            assert_alpha_matches(t1.heads[head].alpha, alphas1[head], g)

    def test_large_logits_through_gat_layer(self, rng):
        # logits in the thousands: exp without the row max would overflow
        g = toy_graph(3, 5, rng)
        H = rng.normal(size=(g.n_nodes, 3))
        params = [(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), 1e3 * rng.normal(size=6)) for _ in range(2)]
        out, trace = gat_layer(H, g.edge_arrays(), folded(params))
        assert np.abs(trace.heads[0].logits).max() > 100.0
        want, alphas = gat_scalar_oracle([row.tolist() for row in H], oracle_lists(g), as_lists(params), 0.2)
        assert np.all(np.isfinite(out))
        assert np.allclose(out, np.array(want), atol=1e-12)
        for head in range(2):
            alpha = trace.heads[head].alpha
            assert np.all(np.isfinite(alpha))
            assert np.allclose(alpha.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
            assert_alpha_matches(alpha, alphas[head], g)

    def test_rows_sum_to_one_and_nonnegative(self, rng):
        for trial in range(20):
            g = toy_graph(int(rng.integers(1, 4)), int(rng.integers(1, 5)), rng)
            H = rng.normal(size=(g.n_nodes, 3))
            params = [(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=6))]
            _, trace = gat_layer(H, g.edge_arrays(), folded(params))
            alpha = trace.heads[0].alpha
            assert np.all(alpha >= 0.0)
            assert np.all(alpha[~attention_mask(g)] == 0.0)
            assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-6)


def assert_rel_close(got, want, what, scale=None):
    """Agreement to 1e-12 of `scale`, by default the reference array's
    largest magnitude."""
    assert got.shape == want.shape, what
    err = np.abs(got - want).max()
    scale = np.abs(want).max() if scale is None else scale
    assert err <= 1e-12 * scale, f"{what}: {err} against scale {scale}"


class TestMatchesDenseOracle:
    """The edge-list layer against the dense masked layer it replaced:
    output, alpha, dH, dq and dk, forward and backward."""

    def check(self, g, H, head_params, rng):
        mask = attention_mask(g)
        out, trace = gat_layer(H, g.edge_arrays(), head_params)
        want, want_trace = dense_gat_layer(H, mask, head_params)
        assert_rel_close(out, want, "output")
        for head, ht in enumerate(trace.heads):
            want_alpha = want_trace[1][head][2]
            assert_rel_close(ht.alpha, want_alpha, f"alpha {head}")
            assert np.all(ht.alpha[~mask] == 0.0) and np.all(want_alpha[~mask] == 0.0)
        dH_out = rng.normal(size=out.shape)
        dH, grads = _gat_layer_backward(dH_out, head_params, trace)
        want_dH, want_grads = dense_gat_layer_backward(dH_out, head_params, want_trace)
        # a head whose rows' logits all share a sign has du = 0 up to
        # rounding (softmax gradients sum to 0 over a row), so dq and dk are
        # held to the layer's gradient scale rather than their own
        scale = max(np.abs(t).max() for t in [want_dH, *(t for pair in want_grads for t in pair)])
        assert_rel_close(dH, want_dH, "dH", scale)
        for head, ((dq, dk), (want_dq, want_dk)) in enumerate(zip(grads, want_grads)):
            assert_rel_close(dq, want_dq, f"dq {head}", scale)
            assert_rel_close(dk, want_dk, f"dk {head}", scale)
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
        _, trace = gat_layer(H, g.edge_arrays(), heads)
        assert np.abs(trace.heads[0].logits).max() > 500.0
        self.check(g, H, heads, rng)

    def test_dense_pools_shape_two_layers(self, rng):
        # 130 nodes as on a median dense_pools graph, hidden 32, heads (4, 1)
        g = toy_graph(8, 120, rng)
        assert g.n_nodes == 130
        H = rng.normal(size=(g.n_nodes, 32))
        h1 = self.check(g, H, self.heads(rng, 4, 32, scale=0.3), rng)
        self.check(g, h1, self.heads(rng, 1, 128, scale=0.3), rng)


class TestDcn:
    def test_zero_cross_weights_keep_residual(self):
        x0 = np.array([[1.0, 2.0], [3.0, -1.0]])
        cross = [(np.zeros(2), np.zeros(2)), (np.zeros(2), np.zeros(2))]
        out, _ = dcn_forward(x0, cross, [])
        assert np.allclose(out[:, :2], x0)  # cross half of the concat

    def test_hand_cross_layer(self):
        # x0 = [1, 2], w = [1, 0], b = 0: x1 = x0 * (x0 . w) + x0 = [2, 4]
        x0 = np.array([[1.0, 2.0]])
        out, _ = dcn_forward(x0, [(np.array([1.0, 0.0]), np.zeros(2))], [])
        assert np.allclose(out[:, :2], [[2.0, 4.0]])

    def test_deep_identity_path(self):
        x0 = np.array([[0.5, 1.5]])
        deep = [(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))]
        out, _ = dcn_forward(x0, [], deep)
        # no cross layers: cross output is x0 itself, deep relu(I x) = x
        assert np.allclose(out, [[0.5, 1.5, 0.5, 1.5]])


class TestForward:
    def test_zero_attr_head_gives_half(self, rng):
        model, _ = small_model()
        g = toy_graph(3, 4, rng)
        inputs = toy_inputs(g, 3, 2, rng)
        params = model.init_params(0)
        params["head.attr"][:] = 0.0
        trace = model.forward(g, inputs, params)
        assert np.allclose(trace.attr_probs, 0.5)

    def test_zero_score_head_gives_zero(self, rng):
        model, _ = small_model()
        g = toy_graph(3, 4, rng)
        inputs = toy_inputs(g, 3, 2, rng)
        params = model.init_params(0)
        params["head.score"][:] = 0.0
        trace = model.forward(g, inputs, params)
        assert np.all(trace.scores == 0.0)

    def test_probs_in_open_interval(self, rng):
        model, _ = small_model()
        g = toy_graph(2, 3, rng)
        inputs = toy_inputs(g, 3, 2, rng)
        trace = model.forward(g, inputs, model.init_params(3))
        assert np.all(trace.attr_probs > 0.0) and np.all(trace.attr_probs < 1.0)

    def test_repeat_calls_bit_identical(self, rng):
        model, _ = small_model()
        g = toy_graph(3, 5, rng)
        inputs = toy_inputs(g, 3, 2, rng)
        params = model.init_params(7)
        a = model.forward(g, inputs, params)
        b = model.forward(g, inputs, params)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.attr_probs, b.attr_probs)

    @pytest.mark.parametrize(
        "n_users, n_items, hidden, sent_dim, total",
        [(140, 28, 128, 64, 253_440), (64, 3, 32, 32, 18_112)],
        ids=["sparse_pools", "dense_pools"],
    )
    def test_attention_heads_are_two_vectors(self, n_users, n_items, hidden, sent_dim, total):
        # each head is its folded (q, k); shapes of the benchmark's workloads
        cfg = ModelConfig(hidden=hidden, gat_heads=(4, 1), deep_hidden=hidden)
        params = Model(cfg, n_users, n_items, sent_dim).init_params(0)
        gat = {name: t.shape for name, t in params.items() if name.startswith("gat.")}
        heads = [(0, h, hidden) for h in range(4)] + [(1, 0, 4 * hidden)]
        assert gat == {f"gat.{l}.{h}.{v}": (width,) for l, h, width in heads for v in "qk"}
        assert sum(t.size for t in params.values()) == total

    @pytest.mark.parametrize("disable_gat", [False, True], ids=["gat", "no-gat"])
    def test_x0_layout(self, rng, disable_gat):
        # with no feature interaction the score head reads x0 itself
        model, _ = small_model(disable_gat=disable_gat, disable_dcn=True)
        g = toy_graph(3, 4, rng)
        inputs = toy_inputs(g, 3, 2, rng)
        trace = model.forward(g, inputs, model.init_params(2))
        Xhat = trace.Xhat
        blocks = [np.tile(Xhat[USER_NODE], (4, 1)), np.tile(Xhat[ITEM_NODE], (4, 1))]
        if disable_gat:
            # each sentence's attribute inputs, averaged
            attrs = range(g.attr_slice.start, g.attr_slice.stop)
            linked = [[j - attrs.start for j in g.neighbors[i] if j in attrs] for i in range(g.sent_slice.start, g.n_nodes)]
            blocks.append(np.array([inputs.attr_X[rows].mean(axis=0) for rows in linked]))
        blocks.append(Xhat[g.sent_slice])
        assert trace.x_cd.shape == (4, model.d0)
        assert np.allclose(trace.x_cd, np.concatenate(blocks, axis=1), rtol=1e-13, atol=0.0)

    def test_init_deterministic(self):
        model, _ = small_model()
        a = model.init_params(11)
        b = model.init_params(11)
        assert set(a) == set(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_sentence_permutation_equivariance(self, rng):
        model, _ = small_model()
        g = toy_graph(3, 5, rng)
        inputs = toy_inputs(g, 3, 2, rng)
        params = model.init_params(5)
        base = model.forward(g, inputs, params).scores

        perm = rng.permutation(5)
        start = g.sent_slice.start
        mapping = {start + int(old): start + int(new) for new, old in enumerate(perm)}
        relabel = lambda j: mapping.get(int(j), int(j))
        neighbors = [None] * g.n_nodes
        for i in range(g.n_nodes):
            neighbors[relabel(i)] = np.array(sorted(relabel(j) for j in g.neighbors[i]), dtype=np.int64)
        g2 = PairGraph(
            user_id=g.user_id,
            item_id=g.item_id,
            attribute_ids=g.attribute_ids,
            sentence_ids=tuple(g.sentence_ids[int(old)] for old in perm),
            neighbors=neighbors,
            attr_labels=g.attr_labels,
        )
        inputs2 = toy_inputs(g2, 3, 2, np.random.default_rng(0))
        inputs2.attr_X = inputs.attr_X
        inputs2.sent_X = inputs.sent_X[perm]
        permuted = model.forward(g2, inputs2, params).scores
        assert np.allclose(permuted, base[perm], atol=1e-9)


def loss_through_model(model, graph, inputs, params, targets, pairs, labels, lam=0.4):
    trace = model.forward(graph, inputs, params)
    l_rank, d_scores = pairwise_rank_loss(trace.scores, targets, pairs)
    l_attr, d_probs = attribute_loss(trace.attr_probs, labels)
    loss = combined_loss(l_rank, l_attr, lam)
    grads = model.zero_grads(params)
    model.backward(trace, params, lam * d_scores, (1 - lam) * d_probs, grads)
    return loss, grads


def finite_diff_check(model, graph, inputs, params, targets, pairs, labels, eps=1e-5, tol=1e-4):
    _, grads = loss_through_model(model, graph, inputs, params, targets, pairs, labels)

    def loss_only():
        return loss_through_model(model, graph, inputs, params, targets, pairs, labels)[0]

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
    model, _ = small_model(**model_kw)
    g = toy_graph(3, 4, rng)  # 9 nodes total
    inputs = toy_inputs(g, 3, 2, rng, user_row=1, item_row=2)
    params = model.init_params(13)
    targets = rng.uniform(0, 1, size=4)
    pairs = np.array([[0, 1], [0, 2], [1, 3], [2, 3]])
    labels = g.attr_labels
    return model, g, inputs, params, targets, pairs, labels


class TestGradients:
    def test_zero_upstream_zero_grads(self, rng):
        model, g, inputs, params, *_ = gradcheck_setup(rng)
        trace = model.forward(g, inputs, params)
        grads = model.zero_grads(params)
        model.backward(trace, params, np.zeros(4), np.zeros(3), grads)
        assert all(np.all(v == 0.0) for v in grads.values())

    def test_backward_adds_into_given_grads(self, rng):
        model, g, inputs, params, targets, pairs, labels = gradcheck_setup(rng)
        _, fresh = loss_through_model(model, g, inputs, params, targets, pairs, labels)
        start = {name: rng.normal(size=t.shape) for name, t in params.items()}
        grads = {name: t.copy() for name, t in start.items()}
        trace = model.forward(g, inputs, params)
        l_rank, d_scores = pairwise_rank_loss(trace.scores, targets, pairs)
        l_attr, d_probs = attribute_loss(trace.attr_probs, labels)
        assert model.backward(trace, params, 0.4 * d_scores, 0.6 * d_probs, grads) is None
        for name in params:
            assert np.array_equal(grads[name], start[name] + fresh[name]), name

    def test_untouched_rows_zero(self, rng):
        model, g, inputs, params, targets, pairs, labels = gradcheck_setup(rng)
        _, grads = loss_through_model(model, g, inputs, params, targets, pairs, labels)
        for row in range(3):
            expect_zero = row != inputs.user_row
            assert np.all(grads["embed.user"][row] == 0.0) == expect_zero

    def test_attr_head_idle_when_attr_loss_off(self, rng):
        model, g, inputs, params, targets, pairs, labels = gradcheck_setup(rng)
        loss, grads = loss_through_model(model, g, inputs, params, targets, pairs, labels, lam=1.0)
        assert np.all(grads["head.attr"] == 0.0)

    @pytest.mark.parametrize("disable_dcn", [False, True], ids=["dcn", "no-dcn"])
    @pytest.mark.parametrize("disable_gat", [False, True], ids=["gat", "no-gat"])
    def test_finite_difference(self, rng, disable_gat, disable_dcn):
        model, g, inputs, params, targets, pairs, labels = gradcheck_setup(
            rng, disable_gat=disable_gat, disable_dcn=disable_dcn
        )
        assert model.d0 == (4 if disable_gat else 3) * model.node_dim
        if disable_dcn:
            # the score head reads x0 itself
            assert not [name for name in params if name.startswith(("lin.", "cross.", "deep."))]
            assert params["head.score"].shape == (model.d0,)
        finite_diff_check(model, g, inputs, params, targets, pairs, labels)
