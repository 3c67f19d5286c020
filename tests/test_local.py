"""Steps on the receptive ball of the drawn nodes (``PropOps.restrict``)."""

import numpy as np
import pytest

from transgap.activations import ActivationSpec
from transgap.datasets import Split
from transgap.gradients import grad_mean, grad_sample
from transgap.graphs import (PropagationMatrix, build_graph, hop_ball,
                             normalized_adjacency)
from transgap.models import (BALL_MIN_NODES, ModelSpec, PropOps, forward,
                             init_params)
from transgap.rng import stream
from transgap.training import LrSchedule, SgdConfig, evaluate, run_sgd

LOCAL_ARCHS = [("gcn", 2), ("gcn", 6), ("sgc", 2), ("gcnii", 2), ("gcnii", 6)]
RING = BALL_MIN_NODES
TRIANGLE = (RING, RING + 1, RING + 2)
ISOLATED = RING + 3


def ring_graph(ring=RING):
    """A ring (0..ring-1), a separate triangle (ring..ring+2) and an isolated
    node (ring+3): the 6-hop ball of a ring node (13 nodes) is well under
    half the graph, a triangle ball stops growing after one hop, and the
    isolated node's ball is the node itself."""
    a, b, c = ring, ring + 1, ring + 2
    edges = [(i, (i + 1) % ring) for i in range(ring)]
    edges += [(a, b), (b, c), (a, c)]
    return build_graph(edges, ring + 4)


def make_spec(arch, depth, d=3, h=4, c=3):
    return ModelSpec(arch=arch, d=d, h=h, num_classes=c,
                     activation=ActivationSpec(q=2.0), big_k=3, depth=depth)


def instance(arch, depth, seed=0, ring=RING):
    g = ring_graph(ring)
    spec = make_spec(arch, depth)
    ops = PropOps(normalized_adjacency(g), spec)
    rng = np.random.default_rng(seed)
    x = 2.0 * rng.normal(size=(g.n, spec.d))
    labels = rng.integers(0, spec.num_classes, size=g.n)
    w = init_params(spec, seed)
    return spec, ops, x, labels, w


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


class TestBall:
    def test_ring_ball_sizes(self):
        p = normalized_adjacency(ring_graph())
        for hops in range(7):
            ball = hop_ball(p, np.array([0]), hops, limit=p.n)
            expect = sorted({(k % RING) for k in range(-hops, hops + 1)})
            assert ball.tolist() == expect

    def test_ball_stops_growing_before_the_last_hop(self):
        p = normalized_adjacency(ring_graph())
        assert hop_ball(p, np.array([RING + 1]), 6,
                        limit=p.n).tolist() == list(TRIANGLE)

    def test_isolated_node(self):
        p = normalized_adjacency(ring_graph())
        assert hop_ball(p, np.array([ISOLATED]), 6,
                        limit=p.n).tolist() == [ISOLATED]

    def test_union_of_seeds(self):
        p = normalized_adjacency(ring_graph())
        ball = hop_ball(p, np.array([ISOLATED, 10, 10, RING + 1]), 1,
                        limit=p.n)
        assert ball.tolist() == [9, 10, 11, *TRIANGLE, ISOLATED]

    def test_limit(self):
        p = normalized_adjacency(ring_graph())
        assert hop_ball(p, np.array([0]), 3, limit=6) is None
        assert hop_ball(p, np.array([0]), 3, limit=7).size == 7

    def test_induced_keeps_values(self):
        p = normalized_adjacency(ring_graph())
        ball = np.array([0, 1, 2, RING - 1, RING, RING + 1])
        sub = p.induced(ball)
        expect = p.to_scipy()[ball][:, ball].toarray()
        assert np.array_equal(sub.to_scipy().toarray(), expect)
        oracle = PropagationMatrix.from_scipy(p.to_scipy()[ball][:, ball])
        assert sub.inf_norm == oracle.inf_norm
        assert np.array_equal(sub.row_ptr, oracle.row_ptr)
        assert np.array_equal(sub.col_idx, oracle.col_idx)


class TestRestrict:
    @pytest.mark.parametrize("arch,depth", LOCAL_ARCHS)
    def test_logits_and_gradients_match_whole_graph(self, arch, depth):
        spec, ops, x, labels, w = instance(arch, depth)
        full = forward(spec, ops, x, w)
        # ring nodes, the triangle (ball stops growing) and the isolated node
        for i in (0, 7, RING - 1, RING, RING + 2, ISOLATED):
            sub_ops, ball = ops.restrict(np.array([i]))
            assert ball.size < ops.n / 2
            r = int(np.searchsorted(ball, i))
            cache = forward(spec, sub_ops, x[ball], w)
            assert rel_err(cache.logits[r], full.logits[i]) <= 1e-12
            g_local = grad_sample(spec, sub_ops, x[ball], w, r,
                                  int(labels[i]), cache=cache)
            g_whole = grad_sample(spec, ops, x, w, i, int(labels[i]),
                                  cache=full)
            assert rel_err(g_local, g_whole) <= 1e-12

    def test_ball_depth_follows_the_architecture(self):
        sizes = {}
        for arch, depth in LOCAL_ARCHS:
            _, ops, _, _, _ = instance(arch, depth)
            sizes[(arch, depth)] = ops.restrict(np.array([5]))[1].size
        assert sizes == {("gcn", 2): 5, ("gcn", 6): 13, ("sgc", 2): 5,
                         ("gcnii", 2): 5, ("gcnii", 6): 13}

    @pytest.mark.parametrize("arch", ["appnp", "gprgnn"])
    def test_filter_models_stay_whole_graph(self, arch):
        spec, ops, _, _, _ = instance(arch, 2)
        assert ops.restrict(np.array([ISOLATED])) is None

    @pytest.mark.parametrize("arch,depth", LOCAL_ARCHS)
    def test_small_graphs_stay_whole_graph(self, arch, depth):
        # the isolated node's ball is the node itself, yet a graph of fewer
        # than BALL_MIN_NODES nodes always runs on the whole graph
        for ring, local in ((BALL_MIN_NODES - 5, False),
                            (BALL_MIN_NODES - 4, True)):
            _, ops, _, _, _ = instance(arch, depth, ring=ring)
            assert ops.n == ring + 4
            got = ops.restrict(np.array([ring + 3]))
            assert (got is not None) == local

    def test_fallback_above_half_the_nodes(self):
        # a star whose 1-hop ball is exactly n/2 nodes stays local; one more
        # leaf puts n/2 + 1 nodes in the ball
        n, spec = 2 * BALL_MIN_NODES, make_spec("gcn", 2)
        for leaves, local in ((n // 2 - 1, True), (n // 2, False)):
            star = build_graph([(0, k) for k in range(1, leaves + 1)], n)
            ops = PropOps(normalized_adjacency(star), spec)
            got = ops.restrict(np.array([0]))
            assert (got is not None) == local
            if local:
                assert got[1].tolist() == list(range(n // 2))
            assert ops.restrict(np.array([n - 1]))[1].tolist() == [n - 1]
        # a batch whose union covers more than half the ring falls back too
        _, ring, _, _, _ = instance("gcn", 6)
        assert ring.restrict(np.array([0]))[1].size == 13
        assert ring.restrict(np.arange(0, RING, 20)) is None


def whole_graph_sgd(spec, ops, x, labels, split, config):
    """Reference trainer: every step forward and backward on the whole graph,
    the gradient gap from two mean gradients."""
    w = init_params(spec, config.seed)
    w_start = w.copy()
    draw = stream(config.seed, "sgd_draws")
    rows, g_emp = [], 0.0
    for t in range(1, config.big_t + 1):
        eta = config.schedule.eta(t)
        cache = forward(spec, ops, x, w)
        picks = split.train_idx[draw.integers(0, split.m,
                                              size=config.batch_size)]
        grads = [grad_sample(spec, ops, x, w, int(j), int(labels[j]),
                             cache=cache) for j in picks]
        g_emp = max([g_emp] + [np.sqrt(eta) * float(np.linalg.norm(g))
                               for g in grads])
        w = w - eta * np.mean(grads, axis=0)
        if t % config.eval_every == 0 or t == config.big_t:
            cache = forward(spec, ops, x, w)
            gap = np.linalg.norm(
                grad_mean(spec, ops, x, w, split.train_idx, labels, cache)
                - grad_mean(spec, ops, x, w, split.test_idx, labels, cache))
            rows.append(evaluate(spec, ops, x, labels, split, w, cache)
                        + (gap, float(np.linalg.norm(w - w_start)), g_emp))
    return w, rows


class TestRunSgdOnBalls:
    @pytest.mark.parametrize("arch,depth", LOCAL_ARCHS)
    @pytest.mark.parametrize("batch", [1, 2])
    def test_trace_matches_whole_graph_loop(self, arch, depth, batch):
        spec, ops, x, labels, _ = instance(arch, depth, seed=4)
        train = np.array([0, 3, 9, 17, 25, 33, RING + 1, ISOLATED])
        split = Split(train_idx=train,
                      test_idx=np.setdiff1d(np.arange(ops.n), train))
        config = SgdConfig(big_t=14, seed=2, batch_size=batch,
                           schedule=LrSchedule("inverse_time", 2.0, 5.0),
                           eval_every=4)
        w, trace = run_sgd(spec, ops, x, labels, split, config)
        w_ref, rows = whole_graph_sgd(spec, ops, x, labels, split, config)
        assert rel_err(w, w_ref) <= 1e-10
        assert [cp.t for cp in trace.checkpoints] == [4, 8, 12, 14]
        for cp, ref in zip(trace.checkpoints, rows):
            got = (cp.r_m, cp.r_u, cp.acc_m, cp.acc_u, cp.grad_gap, cp.dist,
                   cp.g_emp)
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0)
