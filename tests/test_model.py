import numpy as np
import pytest

from recexplain.graphs import PairGraph
from recexplain.model import Model, ModelConfig, dcn_forward, gat_layer
from recexplain.training import attribute_loss, combined_loss, pairwise_rank_loss

from conftest import toy_graph, toy_inputs
from oracles import gat_scalar_oracle


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


def assert_alpha_matches(alpha, oracle_alpha, g):
    """Dense attention equals the oracle's on the mask and is 0 off it."""
    expect = np.zeros((g.n_nodes, g.n_nodes))
    for (i, j), value in oracle_alpha.items():
        expect[i, j] = value
    assert np.allclose(alpha, expect, rtol=0.0, atol=1e-12)
    assert np.all(alpha[~g.edge_arrays()] == 0.0)


class TestGatLayer:
    def test_single_neighbor_alpha_one(self, rng):
        # the isolated item node (1) attends only to itself
        g = line_graph(item_edge=False)
        H = rng.normal(size=(4, 3))
        params = [(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=6))]
        cfg = ModelConfig(hidden=3, gat_heads=(1,), gat_activation="identity")
        out, trace = gat_layer(H, g.edge_arrays(), params, cfg)
        assert trace.heads[0].alpha[1].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert np.array_equal(out[1], H[1])

    def test_identical_neighbors_split_evenly(self, rng):
        # attr node 2 sees user, item, sentence and itself; give all the same state
        g = line_graph()
        H = rng.normal(size=(4, 3))
        H[[0, 1, 3]] = H[2]
        params = [(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=6))]
        cfg = ModelConfig(hidden=3, gat_heads=(1,))
        _, trace = gat_layer(H, g.edge_arrays(), params, cfg)
        assert trace.heads[0].alpha[2] == pytest.approx([1 / 4] * 4)

    def test_matches_scalar_oracle_two_layers(self, rng):
        g = line_graph()
        d = 2
        H = rng.normal(size=(4, d))
        cfg = ModelConfig(hidden=d, gat_heads=(2, 1), gat_activation="elu", leaky_slope=0.2)
        layer1 = [
            (rng.normal(size=(d, d)), rng.normal(size=(d, d)), rng.normal(size=2 * d))
            for _ in range(2)
        ]
        layer2 = [(rng.normal(size=(d, 2 * d)), rng.normal(size=(d, 2 * d)), rng.normal(size=2 * d))]
        h1, t1 = gat_layer(H, g.edge_arrays(), layer1, cfg)
        h2, t2 = gat_layer(h1, g.edge_arrays(), layer2, cfg)

        nbr_lists = oracle_lists(g)
        o1, alphas1 = gat_scalar_oracle([row.tolist() for row in H], nbr_lists, as_lists(layer1), 0.2, "elu")
        o2, _ = gat_scalar_oracle(o1, nbr_lists, as_lists(layer2), 0.2, "elu")
        assert np.allclose(h1, np.array(o1), atol=1e-12)
        assert np.allclose(h2, np.array(o2), atol=1e-12)
        for head in range(2):
            assert_alpha_matches(t1.heads[head].alpha, alphas1[head], g)

    def test_large_logits_through_gat_layer(self, rng):
        # logits in the thousands: exp without the row max would overflow
        g = toy_graph(3, 5, rng)
        H = rng.normal(size=(g.n_nodes, 3))
        params = [(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), 1e3 * rng.normal(size=6)) for _ in range(2)]
        cfg = ModelConfig(hidden=3, gat_heads=(2,))
        out, trace = gat_layer(H, g.edge_arrays(), params, cfg)
        assert np.abs(trace.heads[0].u).max() > 100.0
        want, alphas = gat_scalar_oracle([row.tolist() for row in H], oracle_lists(g), as_lists(params), 0.2, "elu")
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
            cfg = ModelConfig(hidden=3, gat_heads=(1,))
            _, trace = gat_layer(H, g.edge_arrays(), params, cfg)
            alpha = trace.heads[0].alpha
            assert np.all(alpha >= 0.0)
            assert np.all(alpha[~g.edge_arrays()] == 0.0)
            assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-6)


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

    def test_finite_difference_full_model(self, rng):
        model, g, inputs, params, targets, pairs, labels = gradcheck_setup(rng)
        finite_diff_check(model, g, inputs, params, targets, pairs, labels)

    def test_finite_difference_no_gat(self, rng):
        model, g, inputs, params, targets, pairs, labels = gradcheck_setup(rng, disable_gat=True)
        finite_diff_check(model, g, inputs, params, targets, pairs, labels)

    def test_finite_difference_no_dcn(self, rng):
        model, g, inputs, params, targets, pairs, labels = gradcheck_setup(rng, disable_dcn=True)
        finite_diff_check(model, g, inputs, params, targets, pairs, labels)

    def test_finite_difference_relu_and_sigmoid_heads(self, rng):
        for act in ("relu", "sigmoid", "identity"):
            model, g, inputs, params, targets, pairs, labels = gradcheck_setup(
                rng, gat_activation=act
            )
            finite_diff_check(model, g, inputs, params, targets, pairs, labels)
