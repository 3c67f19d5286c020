"""Steps on the row sets of the drawn nodes (``PropOps.row_sets``).

The row sets of a node are the layers of its receptive ball: S_l holds the
nodes within L - l hops, so S_0 is the L-hop ball.  A plan holds the sets
from layer u = ``x_hops()`` up; gcnii (u = 0) keeps them all.
"""

import collections

import numpy as np
import pytest

from transgap.activations import ActivationSpec
from transgap.datasets import Split
from transgap.gradients import grad_mean, grad_sample
from transgap.graphs import build_graph, gpr_powers, normalized_adjacency
from transgap.models import ALL, ModelSpec, PropOps, forward, init_params
from transgap.rng import stream
from transgap.training import LrSchedule, SgdConfig, evaluate, run_sgd

LOCAL_ARCHS = [("gcn", 2), ("gcn", 6), ("sgc", 2), ("gcnii", 2), ("gcnii", 6)]
RING = 40
TRIANGLE = (RING, RING + 1, RING + 2)
ISOLATED = RING + 3


def ring_graph(ring=RING):
    """A ring (0..ring-1), a separate triangle (ring..ring+2) and an isolated
    node (ring+3): the 6-hop sets of a ring node (up to 13 nodes) stay well
    under half the graph, a triangle node's sets stop growing after one
    hop, and the isolated node's sets are the node itself."""
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


def dense(link):
    """The block P[S, S'] of a link, checking that its second half is the
    transpose."""
    block, block_t = link
    assert np.array_equal(block_t.toarray(), block.toarray().T)
    return block.toarray()


def ring_ops(depth=6):
    """Ring-graph ops of a gcnii spec, whose plans hold every layer."""
    return PropOps(normalized_adjacency(ring_graph()),
                   make_spec("gcnii", depth))


class TestBall:
    def test_ring_ball_sizes(self):
        sets, _ = ring_ops().row_sets(np.array([0]))
        for l, rows in enumerate(sets):
            hops = 6 - l
            expect = sorted({(k % RING) for k in range(-hops, hops + 1)})
            assert rows.tolist() == expect

    def test_ball_stops_growing_before_the_last_hop(self):
        sets, _ = ring_ops().row_sets(np.array([RING + 1]))
        assert [rows.tolist() for rows in sets[:-1]] == [list(TRIANGLE)] * 6
        assert sets[-1].tolist() == [RING + 1]

    def test_isolated_node(self):
        sets, links = ring_ops().row_sets(np.array([ISOLATED]))
        assert [rows.tolist() for rows in sets] == [[ISOLATED]] * 7
        assert links[0] is None
        assert all(dense(link).tolist() == [[1.0]] for link in links[1:])

    def test_union_of_seeds(self):
        sets, _ = ring_ops(2).row_sets(np.array([ISOLATED, 10, 10, RING + 1]))
        assert sets[2].tolist() == [10, RING + 1, ISOLATED]
        assert sets[1].tolist() == [9, 10, 11, *TRIANGLE, ISOLATED]

    def test_limit(self):
        # n/2 distinct drawn nodes stay a row set, n/2 + 1 are every node
        ops = ring_ops()
        half = ops.n // 2
        top = ops.row_sets(np.arange(half).repeat(2))[0][-1]
        assert top.tolist() == list(range(half))
        assert ops.row_sets(np.arange(half + 1))[0] == [ALL] * 7
        # a batch whose sets cover more than half the ring runs every layer
        # below its drawn nodes on the whole graph
        sets, _ = ops.row_sets(np.arange(0, RING, 8))
        assert sets[-1].size == 5 and sets[0] is ALL
        assert ring_ops(2).row_sets(None) == ([ALL] * 3, [None] * 3)

    def test_links_keep_the_values_of_p(self):
        ops = ring_ops(3)
        p = ops.p.to_scipy().toarray()
        sets, links = ops.row_sets(np.array([0, RING + 1]))
        assert len(links) == 4 and links[0] is None
        for l in range(1, 4):
            expect = p[sets[l]][:, sets[l - 1]]
            assert np.array_equal(dense(links[l]), expect)
        # a set below that holds more than half the nodes keeps every column
        below, link = ops.row_link(np.arange(0, RING, 2))
        assert below is ALL
        assert np.array_equal(dense(link), p[0:RING:2])


class TestRestrict:
    """Forward and gradients on the row sets of the drawn nodes only."""

    @pytest.mark.parametrize("arch,depth", LOCAL_ARCHS)
    def test_logits_and_gradients_match_whole_graph(self, arch, depth):
        spec, ops, x, labels, w = instance(arch, depth)
        full = forward(spec, ops, x, w)
        # ring nodes, the triangle (sets stop growing) and the isolated node
        for i in (0, 7, RING - 1, RING, RING + 2, ISOLATED):
            cache = forward(spec, ops, x, w, np.array([i]))
            assert all(rows.size < ops.n / 2 for rows in cache.sets
                       if rows is not None)
            assert cache.logits.shape == (1, spec.num_classes)
            assert rel_err(cache.logits[0], full.logits[i]) <= 1e-12
            label = int(labels[i])
            g_rows = grad_sample(spec, ops, x, w, i, label, cache=cache)
            g_full = grad_sample(spec, ops, x, w, i, label, cache=full)
            g_whole = grad_mean(spec, ops, x, w, np.array([i]), labels,
                                cache=full)
            assert rel_err(g_rows, g_whole) <= 1e-12
            assert rel_err(g_full, g_whole) <= 1e-12
            assert rel_err(g_full, g_rows) <= 1e-12
            assert rel_err(grad_sample(spec, ops, x, w, i, label),
                           g_whole) <= 1e-12

    @pytest.mark.parametrize("arch,depth", LOCAL_ARCHS)
    def test_batch_that_repeats_a_pick(self, arch, depth):
        spec, ops, x, labels, w = instance(arch, depth, seed=1)
        full = forward(spec, ops, x, w)
        picks = np.array([12, RING + 1, 12, ISOLATED, 14])
        cache = forward(spec, ops, x, w, picks)
        assert cache.sets[-1].tolist() == [12, 14, RING + 1, ISOLATED]
        for j in picks:
            label = int(labels[j])
            g_union = grad_sample(spec, ops, x, w, int(j), label, cache=cache)
            g_whole = grad_mean(spec, ops, x, w, np.array([j]), labels,
                                cache=full)
            assert rel_err(g_union, g_whole) <= 1e-12
        with pytest.raises(ValueError, match="no logits"):
            grad_sample(spec, ops, x, w, 13, int(labels[13]), cache=cache)

    def test_ball_depth_follows_the_architecture(self):
        # the lowest set kept, S_u with u = x_hops(), is the (L - u)-hop ball
        sizes = {}
        for arch, depth in LOCAL_ARCHS:
            spec, ops, _, _, _ = instance(arch, depth)
            u = spec.x_hops()
            sets, _ = ops.row_sets(np.array([5]))
            hops = spec.receptive_hops() - u
            assert sets[:u] == [None] * u
            assert sets[u].tolist() == sorted(
                {(5 + k) % RING for k in range(-hops, hops + 1)})
            sizes[(arch, depth)] = sets[u].size
        assert sizes == {("gcn", 2): 3, ("gcn", 6): 11, ("sgc", 2): 1,
                         ("gcnii", 2): 5, ("gcnii", 6): 13}

    @pytest.mark.parametrize("arch", ["appnp", "gprgnn"])
    def test_filter_models_stay_whole_graph(self, arch):
        spec, ops, x, labels, w = instance(arch, 2)
        cache = forward(spec, ops, x, w, np.array([ISOLATED]))
        full = forward(spec, ops, x, w)
        assert np.array_equal(cache.logits, full.logits)

    @pytest.mark.parametrize("arch,depth", LOCAL_ARCHS)
    def test_small_graphs_take_row_sets(self, arch, depth):
        # no graph-size threshold: on a ring of three nodes with the
        # triangle and the isolated node beside it, the isolated node's
        # sets are the node itself
        spec, ops, x, labels, w = instance(arch, depth, ring=3)
        assert ops.n == 7
        cache = forward(spec, ops, x, w, np.array([6]))
        u = spec.x_hops()
        assert cache.sets[:u] == [None] * u
        assert [rows.tolist() for rows in cache.sets[u:]] == [[6]] * (
            spec.receptive_hops() + 1 - u)
        full = forward(spec, ops, x, w)
        assert rel_err(cache.logits[0], full.logits[6]) <= 1e-12
        g_rows = grad_sample(spec, ops, x, w, 6, int(labels[6]), cache=cache)
        g_whole = grad_mean(spec, ops, x, w, np.array([6]), labels, full)
        assert rel_err(g_rows, g_whole) <= 1e-12

    def test_fallback_above_half_the_nodes(self):
        # a star whose centre reads exactly n/2 rows stays on row sets; one
        # more leaf puts n/2 + 1 rows in the set below the centre
        n = 40
        for leaves, local in ((n // 2 - 1, True), (n // 2, False)):
            star = build_graph([(0, k) for k in range(1, leaves + 1)], n)
            ops = PropOps(normalized_adjacency(star), make_spec("gcnii", 2))
            sets, links = ops.row_sets(np.array([0]))
            assert sets[-1].tolist() == [0]
            if local:
                assert [rows.tolist() for rows in sets[:2]] == [
                    list(range(n // 2))] * 2
            else:
                assert sets[:2] == [ALL, ALL]
                assert links[1] is None and links[2][0].shape == (1, n)
            sets, _ = ops.row_sets(np.array([n - 1]))
            assert [rows.tolist() for rows in sets] == [[n - 1]] * 3


class TestLocality:
    @pytest.mark.parametrize("arch", ["gcn", "sgc", "gcnii"])
    def test_step_reads_no_whole_graph_product(self, arch, monkeypatch):
        spec, ops, x, labels, w = instance(arch, 2)
        ops.x_products(x)  # built once per X, through propagate

        def whole_graph(self, m):
            raise AssertionError("whole-graph product in a row-set step")

        monkeypatch.setattr(PropOps, "propagate", whole_graph)
        for i in (3, RING + 1, ISOLATED):
            cache = forward(spec, ops, x, w, np.array([i]))
            grad_sample(spec, ops, x, w, i, int(labels[i]), cache=cache)
            grad_sample(spec, ops, x, w, i, int(labels[i]))
        # sgc's whole-graph forward makes no product once X's are held
        control = PropOps(ops.p, spec) if arch == "sgc" else ops
        with pytest.raises(AssertionError, match="whole-graph"):
            forward(spec, control, x, w)


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
        grads = [grad_mean(spec, ops, x, w, np.array([j]), labels, cache)
                 for j in picks]
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


def counted(monkeypatch):
    """Count whole-graph products (builds of the X products among them),
    link products (forward and transposed) and ``row_link`` calls from
    here on."""
    calls = collections.Counter()

    def wrap(owner, name, key):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key(args, kwargs)] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    wrap(PropOps, "propagate", lambda a, kw: "whole")
    wrap(PropOps, "propagate_link", lambda a, kw: (
        "transposed" if kw.get("transpose", len(a) > 3 and a[3])
        else "forward"))
    wrap(PropOps, "row_link", lambda a, kw: "row_link")
    return calls


def step(spec, ops, x, labels, w, picks):
    """One step's forward and per-sample gradients, as ``run_sgd`` runs it."""
    cache = forward(spec, ops, x, w, picks)
    return cache, [grad_sample(spec, ops, x, w, int(j), int(labels[j]),
                               cache=cache) for j in picks]


class TestStepProducts:
    def test_sgc_step_makes_no_sparse_product(self, monkeypatch):
        spec, ops, x, labels, w = instance("sgc", 2)
        step(spec, ops, x, labels, w, np.array([3]))
        calls = counted(monkeypatch)
        step(spec, ops, x, labels, w, np.array([12]))
        assert not calls

    def test_gcn_step_makes_one_product_each_way(self, monkeypatch):
        spec, ops, x, labels, w = instance("gcn", 2)
        step(spec, ops, x, labels, w, np.array([3]))
        calls = counted(monkeypatch)
        step(spec, ops, x, labels, w, np.array([12]))
        assert calls["forward"] == 1 and calls["transposed"] == 1
        assert calls["whole"] == 0

    @pytest.mark.parametrize("arch,depth,linked", [
        ("gcn", 2, 1), ("gcn", 6, 5), ("sgc", 2, 0), ("gcnii", 2, 2),
        ("gcnii", 6, 6)])
    def test_new_node_plan_builds_only_linked_layers(self, arch, depth,
                                                     linked, monkeypatch):
        # layers up to x_hops() read products of X: their sets and links
        # are never built
        spec, ops, x, labels, w = instance(arch, depth)
        step(spec, ops, x, labels, w, np.array([3]))
        calls = counted(monkeypatch)
        for i in (12, RING + 1, ISOLATED):
            calls.clear()
            step(spec, ops, x, labels, w, np.array([i]))
            assert calls["row_link"] == linked

    @pytest.mark.parametrize("arch,depth", LOCAL_ARCHS)
    def test_second_step_on_a_node_builds_no_link(self, arch, depth,
                                                  monkeypatch):
        spec, ops, x, labels, w = instance(arch, depth)
        full = forward(spec, ops, x, w)
        for i in (5, RING + 1, ISOLATED):
            step(spec, ops, x, labels, w, np.array([i]))
            grad_sample(spec, ops, x, w, i, int(labels[i]), cache=full)
        calls = counted(monkeypatch)
        for i in (5, RING + 1, ISOLATED):
            step(spec, ops, x, labels, w, np.array([i]))
            # a gradient from a whole-graph forward, as the analyze scan takes
            grad_sample(spec, ops, x, w, i, int(labels[i]), cache=full)
        assert calls["row_link"] == 0 and calls["whole"] == 0

    @pytest.mark.parametrize("arch,depth,layers", [
        ("gcn", 2, 1), ("gcn", 6, 5), ("sgc", 2, 0), ("gcnii", 2, 2),
        ("gcnii", 6, 6)])
    def test_whole_graph_forward_reads_the_x_products(self, arch, depth,
                                                      layers, monkeypatch):
        # a checkpoint forward multiplies only its layers, not X again
        spec, ops, x, labels, w = instance(arch, depth)
        ops.x_products(x)
        fresh = forward(spec, PropOps(ops.p, spec), x, w).logits
        calls = counted(monkeypatch)
        logits = forward(spec, ops, x, w).logits
        assert calls["whole"] == layers
        assert logits.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("arch", ["gcn", "sgc"])
    def test_a_new_x_gets_its_own_products(self, arch):
        spec, ops, x, labels, w = instance(arch, 2)
        x2 = x[::-1].copy()
        k = spec.x_hops()
        for xs in (x, x2, x):
            logits = forward(spec, ops, xs, w, np.array([7])).logits
            fresh = PropOps(ops.p, spec)
            assert logits.tobytes() == forward(
                spec, fresh, xs, w, np.array([7])).logits.tobytes()
            assert np.array_equal(ops.x_products(xs), gpr_powers(ops.p, xs, k))


def tight_ops(arch, depth):
    """An instance with h = 1, so the plan memo fills after a few nodes."""
    spec = make_spec(arch, depth, h=1)
    _, ops, x, labels, _ = instance(arch, depth)
    return spec, PropOps(ops.p, spec), x, labels, init_params(spec, 0)


class TestPlanMemo:
    """Kept plans and X products change no bytes, and the plans stay within
    L n h entries."""

    @pytest.mark.parametrize("arch,depth", LOCAL_ARCHS)
    @pytest.mark.parametrize("batch", [1, 2])
    def test_warmed_ops_give_the_bytes_of_fresh_ones(self, arch, depth,
                                                     batch):
        spec, warm, x, labels, w = instance(arch, depth, seed=5)
        full = forward(spec, warm, x, w)
        for i in range(warm.n):
            grad_sample(spec, warm, x, w, i, int(labels[i]), cache=full)
        for picks in ([0, 9], [RING + 1, ISOLATED], [21, 21], [33, 2]):
            picks = np.array(picks[:batch])
            c_warm, g_warm = step(spec, warm, x, labels, w, picks)
            c_fresh, g_fresh = step(spec, PropOps(warm.p, spec), x, labels, w,
                                    picks)
            assert c_warm.logits.tobytes() == c_fresh.logits.tobytes()
            for a, b in zip(g_warm, g_fresh):
                assert a.tobytes() == b.tobytes()
        train = np.array([0, 3, 9, 17, 25, 33, RING + 1, ISOLATED])
        split = Split(train_idx=train,
                      test_idx=np.setdiff1d(np.arange(warm.n), train))
        config = SgdConfig(big_t=12, seed=3, batch_size=batch,
                           schedule=LrSchedule("inverse_time", 2.0, 5.0),
                           eval_every=4)
        w_warm, t_warm = run_sgd(spec, warm, x, labels, split, config)
        w_fresh, t_fresh = run_sgd(spec, PropOps(warm.p, spec), x, labels,
                                   split, config)
        assert t_warm.to_csv() == t_fresh.to_csv()
        assert w_warm.tobytes() == w_fresh.tobytes()

    @pytest.mark.parametrize("arch,depth", LOCAL_ARCHS)
    def test_memo_stays_within_l_n_h(self, arch, depth):
        spec, ops, x, labels, w = tight_ops(arch, depth)
        roomy = PropOps(ops.p, spec)
        roomy.plan_room = 10 ** 9
        assert ops.plan_room == spec.receptive_hops() * ops.n * spec.h
        if arch == "sgc":  # a plan is its one drawn node: L n h never fills
            ops.plan_room = ops.n // 2
        kept = []
        for i in range(ops.n):
            picks = np.array([i])
            _, (g,) = step(spec, ops, x, labels, w, picks)
            _, (g_roomy,) = step(spec, roomy, x, labels, w, picks)
            assert g.tobytes() == g_roomy.tobytes()
            plan = ops.row_sets(picks)
            kept.append(ops.row_sets(picks) is plan)
            assert ops.plan_entries <= ops.plan_room
        assert any(kept) and not all(kept)
        assert all(roomy.row_sets(np.array([i])) is roomy.row_sets(
            np.array([i])) for i in range(ops.n))
