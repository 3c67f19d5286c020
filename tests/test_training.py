import tracemalloc

import numpy as np
import pytest

from transgap.activations import ActivationSpec
from transgap.bounds import initial_bounds
from transgap.datasets import Split, make_split, sbm_bundle
from transgap.gradients import grad_mean, grad_sample
from transgap.graphs import build_graph, normalized_adjacency
from transgap.models import (ARCHITECTURES, Buffers, ForwardCache, ModelSpec,
                             PropOps, forward, init_params, loss_sample)
from transgap.training import (LrSchedule, SgdConfig, TrainTrace, evaluate,
                               gradient_gap, run_sgd, schedule_offset)

Q2 = ActivationSpec(q=2.0)


def tiny_setup(arch="gcn", n_blocks=(6, 6), seed=2, d=4, h=3, c=2):
    bundle = sbm_bundle(list(n_blocks), 0.5, 0.15, seed=seed, d=d,
                        signal=2.0, noise=1.0)
    spec = ModelSpec(arch=arch, d=d, h=h, num_classes=c, activation=Q2,
                     big_k=3)
    ops = PropOps(normalized_adjacency(bundle.graph), spec)
    labels = (bundle.labels % c).astype(np.int64)
    split = make_split(bundle.n, 0.5, seed=seed)
    return spec, ops, bundle.x, labels, split


class TestSchedule:
    def test_inverse_time_values(self):
        s = LrSchedule(kind="inverse_time", c=2.0, t0=3.0)
        assert s.eta(1) == pytest.approx(0.5)
        assert s.eta(7) == pytest.approx(0.2)

    def test_harmonic_partial_sum(self):
        s = LrSchedule(kind="inverse_time", c=1.5, t0=4.0)
        big_t = 200
        # c * (H(T + t0) - H(t0)) for integer offsets
        expect = 1.5 * sum(1.0 / k for k in range(5, big_t + 5))
        assert abs(s.eta_sum(big_t) - expect) <= 1e-10

    def test_invalid(self):
        with pytest.raises(ValueError):
            LrSchedule(kind="inverse_time", c=0.0)
        with pytest.raises(ValueError):
            LrSchedule(kind="constant", c=-1.0)
        with pytest.raises(ValueError):
            LrSchedule(kind="warmup", c=1.0)

    def test_constant_zero_allowed(self):
        assert LrSchedule(kind="constant", c=0.0).eta(5) == 0.0


class TestRunSgd:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            SgdConfig(big_t=0, seed=0)

    def test_zero_step_keeps_weights(self):
        spec, ops, x, labels, split = tiny_setup()
        cfg = SgdConfig(big_t=1, seed=0,
                        schedule=LrSchedule(kind="constant", c=0.0),
                        eval_every=1)
        w0 = init_params(spec, 0)
        w, trace = run_sgd(spec, ops, x, labels, split, cfg, w0=w0)
        assert np.array_equal(w, w0)
        r_m, _, _, _ = evaluate(spec, ops, x, labels, split, w0)
        assert trace.checkpoints[0].r_m == pytest.approx(r_m, abs=1e-15)

    def test_convex_problem_descends(self):
        # single linear layer on an edgeless graph: convex objective
        g = build_graph([], 2)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        spec = ModelSpec(arch="sgc", d=2, h=2, num_classes=2, activation=Q2)
        ops = PropOps(normalized_adjacency(g), spec)
        split = Split(train_idx=np.array([0]), test_idx=np.array([1]))
        finals, initials = [], []
        for seed in range(10):
            cfg = SgdConfig(big_t=60, seed=seed,
                            schedule=LrSchedule("inverse_time", 1.0, 10.0),
                            eval_every=60)
            w1 = init_params(spec, seed)
            r0 = evaluate(spec, ops, x, labels, split, w1)[0]
            _, trace = run_sgd(spec, ops, x, labels, split, cfg, w0=w1)
            finals.append(trace.checkpoints[-1].r_m)
            initials.append(r0)
        assert np.mean(finals) < np.mean(initials)

    def test_bit_identical_reruns(self):
        spec, ops, x, labels, split = tiny_setup()
        cfg = SgdConfig(big_t=25, seed=3, batch_size=2,
                        schedule=LrSchedule("inverse_time", 2.0, 10.0),
                        eval_every=5)
        w_a, tr_a = run_sgd(spec, ops, x, labels, split, cfg)
        w_b, tr_b = run_sgd(spec, ops, x, labels, split, cfg)
        assert np.array_equal(w_a, w_b)
        assert tr_a.to_csv() == tr_b.to_csv()

    def test_adam_runs_and_differs_from_sgd(self):
        spec, ops, x, labels, split = tiny_setup()
        base = dict(big_t=10, seed=1, eval_every=10)
        w_sgd, _ = run_sgd(spec, ops, x, labels, split,
                           SgdConfig(optimizer="vanilla_sgd", **base))
        w_adam, _ = run_sgd(spec, ops, x, labels, split,
                            SgdConfig(optimizer="adam", **base))
        assert not np.array_equal(w_sgd, w_adam)

    def test_poisoned_test_labels_do_not_change_training(self):
        spec, ops, x, labels, split = tiny_setup()
        cfg = SgdConfig(big_t=30, seed=5, eval_every=30)
        w_clean, _ = run_sgd(spec, ops, x, labels, split, cfg)
        poisoned = labels.copy()
        poisoned[split.test_idx] = (poisoned[split.test_idx] + 1) % 2
        w_poison, _ = run_sgd(spec, ops, x, poisoned, split, cfg)
        assert np.array_equal(w_clean, w_poison)

    def test_g_emp_is_running_max(self):
        spec, ops, x, labels, split = tiny_setup()
        cfg = SgdConfig(big_t=20, seed=7, eval_every=5)
        _, trace = run_sgd(spec, ops, x, labels, split, cfg)
        g_vals = [cp.g_emp for cp in trace.checkpoints]
        assert g_vals == sorted(g_vals)
        assert trace.g_emp == g_vals[-1]

    def test_trace_checkpoints_monotone_t(self):
        spec, ops, x, labels, split = tiny_setup()
        cfg = SgdConfig(big_t=23, seed=7, eval_every=10)
        _, trace = run_sgd(spec, ops, x, labels, split, cfg)
        ts = [cp.t for cp in trace.checkpoints]
        assert ts == [10, 20, 23]


class TestEvaluate:
    def test_uniform_predictor(self):
        spec, ops, x, labels, split = tiny_setup(c=2)
        w = np.zeros_like(init_params(spec, 0))
        r_m, r_u, acc_m, acc_u = evaluate(spec, ops, x, labels, split, w)
        assert r_m == pytest.approx(np.log(2.0))
        assert r_u == pytest.approx(np.log(2.0))
        # argmax tie-break picks class 0 everywhere
        assert acc_m == pytest.approx(np.mean(labels[split.train_idx] == 0))

    def test_perfect_predictor_synthetic_cache(self):
        spec, ops, x, labels, split = tiny_setup(c=2)
        probs = np.zeros((ops.n, 2))
        probs[np.arange(ops.n), labels] = 1.0
        cache = ForwardCache(probs=probs)
        r_m, r_u, acc_m, acc_u = evaluate(spec, ops, x, labels, split,
                                          w=None, cache=cache)
        assert acc_m == 1.0 and acc_u == 1.0
        assert r_m == pytest.approx(0.0, abs=1e-11)

    def test_duplicated_nodes_have_zero_gap(self):
        # two identical halves, no edges: train half mirrors test half
        x_half = np.random.default_rng(0).normal(size=(5, 3))
        x = np.vstack([x_half, x_half])
        labels = np.array([0, 1, 0, 1, 1] * 2)
        g = build_graph([], 10)
        spec = ModelSpec(arch="gcn", d=3, h=4, num_classes=2, activation=Q2)
        ops = PropOps(normalized_adjacency(g), spec)
        split = Split(train_idx=np.arange(5), test_idx=np.arange(5, 10))
        w = init_params(spec, 3)
        r_m, r_u, acc_m, acc_u = evaluate(spec, ops, x, labels, split, w)
        assert r_m == pytest.approx(r_u, abs=1e-15)
        assert gradient_gap(spec, ops, x, labels, split, w) <= 1e-14


    @pytest.mark.parametrize("arch", ["gcn", "gcnii", "sgc", "appnp",
                                      "gprgnn"])
    def test_every_reader_gives_one_loss(self, arch):
        """R_m, R_u and b_loss read the loss of ``loss_sample``: each side
        is one whole-graph forward at w_1, so they agree bit for bit."""
        spec, ops, x, labels, split = tiny_setup(arch=arch, n_blocks=(7, 6))
        w1 = init_params(spec, 4)
        losses = np.array([loss_sample(spec, ops, x, w1, i, int(labels[i]))
                           for i in range(ops.n)])
        r_m, r_u, _, _ = evaluate(spec, ops, x, labels, split, w1)
        assert r_m == float(np.mean(losses[split.train_idx]))
        assert r_u == float(np.mean(losses[split.test_idx]))
        b_loss, _, _ = initial_bounds(spec, ops, x, labels, w1)
        assert b_loss == float(losses.max())


class TestGradientGap:
    def test_matches_per_sample_resummation(self):
        spec, ops, x, labels, split = tiny_setup(n_blocks=(4, 4))
        w = init_params(spec, 11)
        got = gradient_gap(spec, ops, x, labels, split, w)
        g_train = np.mean([grad_sample(spec, ops, x, w, int(i), int(labels[i]))
                           for i in split.train_idx], axis=0)
        g_test = np.mean([grad_sample(spec, ops, x, w, int(i), int(labels[i]))
                          for i in split.test_idx], axis=0)
        expect = float(np.linalg.norm(g_train - g_test))
        assert got == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("arch", ["gcn", "gcnii", "sgc", "appnp",
                                      "gprgnn"])
    def test_one_signed_backward_matches_two_means(self, arch):
        spec, ops, x, labels, split = tiny_setup(arch=arch, n_blocks=(7, 6))
        w = init_params(spec, 5)
        g_train = grad_mean(spec, ops, x, w, split.train_idx, labels)
        g_test = grad_mean(spec, ops, x, w, split.test_idx, labels)
        expect = float(np.linalg.norm(g_train - g_test))
        got = gradient_gap(spec, ops, x, labels, split, w)
        assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


class TestScheduleOffset:
    def test_unit_case(self):
        assert schedule_offset(0.5, 1.0) == 1.0

    def test_power_case(self):
        assert schedule_offset(2.0, 0.5) == pytest.approx(16.0)

    def test_curvature_scaling(self):
        assert schedule_offset(2.0, 0.5, mu=2.0) == pytest.approx(16.0)
        assert schedule_offset(2.0, 0.5, mu=4.0) == pytest.approx(8.0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            schedule_offset(1.0, 0.0)

    def test_overflowing_power_is_inf(self):
        assert schedule_offset(2.0, 1e-300) == np.inf
        assert schedule_offset(2.0, 1e-300, mu=4.0) == np.inf
        with pytest.raises(ValueError, match="mu"):
            schedule_offset(2.0, 1e-300, mu=0.0)


class TestTraceCsv:
    def test_round_trip(self):
        spec, ops, x, labels, split = tiny_setup()
        cfg = SgdConfig(big_t=12, seed=0, eval_every=4)
        _, trace = run_sgd(spec, ops, x, labels, split, cfg)
        back = TrainTrace.from_csv(trace.to_csv())
        assert back.to_csv() == trace.to_csv()
        assert [cp.t for cp in back.checkpoints] == [4, 8, 12]

    def test_radius_is_unknown_when_read_back(self):
        """The CSV holds ``dist`` at checkpoints only, not the max over
        every step, so the read-back radius is nan; g_emp is a running max
        and reads back whole."""
        spec, ops, x, labels, split = tiny_setup(arch="appnp")
        cfg = SgdConfig(big_t=30, seed=0, eval_every=10)
        _, trace = run_sgd(spec, ops, x, labels, split, cfg)
        back = TrainTrace.from_csv(trace.to_csv())
        assert np.isnan(back.max_dist)
        assert back.g_emp == trace.g_emp


class TestBuffers:
    """Passes given a run's ``Buffers`` make the bytes that passes on new
    arrays make, on every node and on row sets (views of first rows)."""

    @pytest.mark.parametrize("arch,depth", [
        ("gcn", 2), ("gcn", 4), ("sgc", 2), ("gcnii", 2), ("gcnii", 4),
        ("appnp", 2), ("gprgnn", 2)])
    def test_lent_passes_match_new_arrays(self, arch, depth):
        bundle = sbm_bundle([20, 20], 0.2, 0.03, seed=4, d=5)
        spec = ModelSpec(arch=arch, d=5, h=6, num_classes=2, activation=Q2,
                         big_k=3, depth=depth)
        ops = PropOps(normalized_adjacency(bundle.graph), spec)
        x, labels = bundle.x, bundle.labels
        w = init_params(spec, 3)
        buf = Buffers(spec, ops.n)
        idx = np.arange(0, ops.n, 3)

        want = forward(spec, ops, x, w)
        g_want = grad_mean(spec, ops, x, w, idx, labels, cache=want)
        got = forward(spec, ops, x, w, buf=buf)
        assert np.array_equal(got.probs, want.probs)
        assert np.array_equal(
            grad_mean(spec, ops, x, w, idx, labels, cache=got, buf=buf),
            g_want)
        for i in (0, 17):
            assert np.array_equal(
                grad_sample(spec, ops, x, w, i, int(labels[i]), cache=got,
                            buf=buf),
                grad_sample(spec, ops, x, w, i, int(labels[i]), cache=want))

        rows = np.array([5, 11])
        want = forward(spec, ops, x, w, rows)
        got = forward(spec, ops, x, w, rows, buf=buf)
        for i in rows:
            assert np.array_equal(
                grad_sample(spec, ops, x, w, i, int(labels[i]), cache=got,
                            buf=buf),
                grad_sample(spec, ops, x, w, i, int(labels[i]), cache=want))


class TestCheckpointMemory:
    """Traced peak memory of whole-graph passes on a 1000-node graph, in
    units of one n x h float64 array.

    A gcnii forward keeps sigma' of its L + 1 pre-activations, L aggregates
    and the top hidden state (2L + 2 arrays), and its backward adds at most
    three more; gcn keeps L - 1 sigma' arrays and L layer inputs, appnp and
    gprgnn their three n x h MLP arrays, and sgc P^2 X W1.  Each bound
    leaves about one array for the n x c and h x h arrays.
    """

    N, H = 1000, 64

    @pytest.fixture(scope="class")
    def graph(self):
        bundle = sbm_bundle([self.N // 2] * 2, 0.01, 0.002, seed=3, d=16)
        return (normalized_adjacency(bundle.graph), bundle.x, bundle.labels,
                make_split(bundle.n, 0.3, seed=0))

    def traced_peak(self, run) -> float:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / (self.N * self.H * 8)

    def setup_run(self, graph, **kw):
        p, x, labels, split = graph
        spec = ModelSpec(d=x.shape[1], h=self.H, num_classes=2,
                         activation=Q2, **kw)
        ops = PropOps(p, spec)
        ops.x_products(x)
        return spec, ops, x, labels, split, init_params(spec, 1)

    @pytest.mark.parametrize("kw,bound", [
        (dict(arch="gcnii"), 10.5),
        (dict(arch="gcnii", depth=6), 19.0),
        (dict(arch="gcn"), 5.0),
        (dict(arch="gcn", depth=6), 14.5),
        (dict(arch="appnp"), 6.0),
        (dict(arch="gprgnn"), 6.0),
        (dict(arch="sgc"), 3.0),
    ], ids=["gcnii", "gcnii6", "gcn", "gcn6", "appnp", "gprgnn", "sgc"])
    def test_checkpoint_peak(self, graph, kw, bound):
        spec, ops, x, labels, split, w = self.setup_run(graph, **kw)

        def checkpoint():
            cache = forward(spec, ops, x, w)
            evaluate(spec, ops, x, labels, split, w, cache=cache)
            gradient_gap(spec, ops, x, labels, split, w, cache=cache)

        assert self.traced_peak(checkpoint) < bound

    def test_run_sgd_holds_no_step_cache_at_a_checkpoint(self, graph):
        # appnp's step cache holds three n x h arrays, as its checkpoint
        # does: the bound leaves no room for both at once
        spec, ops, x, labels, split, _ = self.setup_run(graph, arch="appnp")
        cfg = SgdConfig(big_t=4, seed=0, eval_every=1,
                        schedule=LrSchedule(c=1.0, t0=10.0))
        assert self.traced_peak(
            lambda: run_sgd(spec, ops, x, labels, split, cfg)) < 6.0

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_run_sgd_buffers_stay_bounded(self, graph, arch):
        # a run's buffers are a fixed set: ten times the steps and
        # checkpoints may not raise the peak by an array (as buffers keyed
        # by a step's row count would)
        spec, ops, x, labels, split, _ = self.setup_run(graph, arch=arch)

        def peak(big_t):
            cfg = SgdConfig(big_t=big_t, seed=0, eval_every=2,
                            schedule=LrSchedule(c=1.0, t0=10.0))
            return self.traced_peak(
                lambda: run_sgd(spec, ops, x, labels, split, cfg))

        short = peak(4)
        assert abs(peak(40) - short) <= 1.0

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_run_sgd_leaves_an_unbuffered_cache_alone(self, graph, arch):
        spec, ops, x, labels, split, w = self.setup_run(graph, arch=arch)
        cache = forward(spec, ops, x, w)
        arrays = {name: [a for a in (v if isinstance(v, list) else [v])
                         if isinstance(a, np.ndarray)]
                  for name, v in vars(cache).items()}
        before = {name: [a.copy() for a in arrs]
                  for name, arrs in arrays.items()}
        cfg = SgdConfig(big_t=4, seed=0, eval_every=1,
                        schedule=LrSchedule(c=1.0, t0=10.0))
        run_sgd(spec, ops, x, labels, split, cfg)
        for name, arrs in arrays.items():
            for got, want in zip(arrs, before[name]):
                assert np.array_equal(got, want), name
