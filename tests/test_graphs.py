import ast
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from transgap.cli import main
from transgap.datasets import load_bundle
from transgap.graphs import (PropagationMatrix, adjacency_inf_norm,
                             appnp_apply, appnp_coefficients, appnp_filter,
                             build_graph, degree_bound, drop_edge, gpr_powers,
                             inf_norm_power, normalized_adjacency,
                             sbm_generate)
from transgap.rng import stream

# sha256 of the files `transgap gen` writes with the flags of the benchmark's
# 6000-node workload at seed 3, recorded at commit 87098ed, when the sampler
# still drew the whole (n, n) stream and the operator came from scipy.
SCALE_6K_GEN = ["--blocks", "3000,3000", "--pin", "0.004", "--pout", "0.0005",
                "--signal", "1.5", "--noise", "2.0", "--seed", "3"]
SCALE_6K_SHA256 = {
    "edges.tsv":
        "d7cfa63b4b5f8ddf3231d5e3aa36f1cba7bf316070ee818c08338f212179c98f",
    "features.csv":
        "4ca3f14f969af3b80816cf6daf3815507b4eb756a4ed1f87c0a5bed01a4f6270",
    "labels.csv":
        "5f7c25b33bf7bbc8ed1fbe8c6cf36c231f1044a724c43b858d4c323a8517bfb0",
    "meta.json":
        "1ee325a7c3df89ac211040d4453469adba4af5ded990289c43f11dbff98f1678",
}

# The same for the 200-node bundle of the benchmark's two small workloads at
# seed 3, recorded at commit 9c7801b, before gen wrote edges.tsv in blocks.
SMALL_GEN = ["--blocks", "100,100", "--pin", "0.1", "--pout", "0.01",
             "--signal", "1.5", "--noise", "2.0"]
SMALL_SHA256 = {
    "edges.tsv":
        "df34850c112821a08e96c4d9f22a7bd617aaa2b60e6db0ede61be1e005bd3b87",
    "features.csv":
        "cc430a252fc511750ceb147bb7185269288885e26afa630a51ba47d68b58c796",
    "labels.csv":
        "9ffc04a6c3369121b4cd4524151cc0e24ce1d371c199939ca20dbf8e99d6ea31",
    "meta.json":
        "0826d9194728cc2a80d726128e0bf3c0d0c333da288ea7a8cb48bef35078a372",
}


def k3():
    return build_graph([(0, 1), (0, 2), (1, 2)], 3)


def p3():
    return build_graph([(0, 1), (1, 2)], 3)


class TestBuildGraph:
    def test_path_graph(self):
        g = p3()
        assert list(g.degrees) == [1, 2, 1]
        g.validate()

    def test_mirrored_pair_deduplicated(self):
        g = build_graph([(0, 1), (1, 0)], 2)
        assert g.edge_count == 1
        g.validate()

    def test_triangle(self):
        g = k3()
        assert list(g.degrees) == [2, 2, 2]
        assert g.edge_count == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_graph([(0, 3)], 3)

    def test_self_loop_rejected_by_default(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph([(1, 1)], 3)

    def test_n_whose_edge_keys_overflow_rejected(self):
        with pytest.raises(ValueError, match="n too large"):
            build_graph([(0, 1)], 2 ** 32)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 30), data=st.data())
    def test_matches_sorted_pair_set(self, n, data):
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node).filter(
            lambda e: e[0] != e[1]), max_size=60))
        want = sorted({(u, v) for a, b in pairs for u, v in ((a, b), (b, a))})
        g = build_graph(pairs, n)
        assert g.col_idx.tolist() == [v for _, v in want]
        assert g.row_ptr.tolist() == [sum(u < i for u, _ in want)
                                      for i in range(n + 1)]

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 30), size=st.integers(1, 9), data=st.data())
    def test_edge_blocks_give_the_sorted_pairs(self, n, size, data):
        # blocks of any size, split inside rows and across empty rows
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node).filter(
            lambda e: e[0] != e[1]), max_size=60))
        want = sorted({(min(e), max(e)) for e in pairs})
        g = build_graph(pairs, n)
        with mock.patch("transgap.graphs._EDGE_BLOCK", size):
            blocks = list(g.edge_blocks())
        assert all(b.dtype == np.int64 and b.shape[1] == 2 for b in blocks)
        assert len(blocks) == -(-2 * len(want) // size)
        assert [tuple(e) for b in blocks for e in b.tolist()] == want
        edges = g.undirected_edges()
        assert edges.dtype == np.int64 and edges.shape == (len(want), 2)
        assert [tuple(e) for e in edges.tolist()] == want

    def test_duplicate_edges_collapse(self):
        g = build_graph([(0, 1), (0, 1), (1, 0)], 2)
        assert g.edge_count == 1

    @pytest.mark.parametrize("pairs", [
        [], [(3, 1)], [(0, 4), (4, 0), (2, 1), (0, 1), (4, 3), (2, 1)]])
    def test_array_list_and_generator_agree(self, pairs):
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        graphs = [build_graph(arr, 5), build_graph(pairs, 5),
                  build_graph((pair for pair in pairs), 5)]
        for g in graphs:
            np.testing.assert_array_equal(g.row_ptr, graphs[1].row_ptr)
            np.testing.assert_array_equal(g.col_idx, graphs[1].col_idx)
            assert g.row_ptr.dtype == g.col_idx.dtype == np.int64


class TestNormalizedAdjacency:
    def test_triangle_is_uniform(self):
        p = normalized_adjacency(k3())
        dense = p.to_scipy().todense()
        np.testing.assert_allclose(dense, np.full((3, 3), 1.0 / 3.0),
                                   atol=1e-15)
        np.testing.assert_allclose(p.row_sums(), 1.0, atol=1e-15)

    def test_isolated_node(self):
        g = build_graph([], 1)
        p = normalized_adjacency(g)
        np.testing.assert_allclose(p.to_scipy().todense(), [[1.0]])

    def test_path_entries(self):
        p = normalized_adjacency(p3())
        dense = np.asarray(p.to_scipy().todense())
        assert dense[0, 0] == pytest.approx(0.5)
        assert dense[0, 1] == pytest.approx(1.0 / np.sqrt(6.0))
        assert dense[1, 1] == pytest.approx(1.0 / 3.0)
        assert dense[1, 2] == pytest.approx(1.0 / np.sqrt(6.0))
        assert dense[2, 2] == pytest.approx(0.5)
        assert p.inf_norm == pytest.approx(2.0 / np.sqrt(6.0) + 1.0 / 3.0)

    GRAPHS = [
        build_graph([], 0), build_graph([], 3),
        build_graph([(0, 4), (2, 4)], 6),  # nodes 1, 3 and 5 isolated
        k3(), p3(),
        *(sbm_generate([20, 15], 0.3, 0.05, seed=s)[0] for s in range(4)),
        sbm_generate([7, 1, 9], 1.0, 0.3, seed=2)[0]]

    @pytest.mark.parametrize("g", GRAPHS)
    def test_bits_equal_scipy_product(self, g):
        # the former construction: D (A + I) D with scipy's sparse products
        import scipy.sparse as sp

        a = sp.csr_matrix((np.ones(g.col_idx.size), g.col_idx, g.row_ptr),
                          shape=(g.n, g.n)) + sp.identity(g.n, format="csr")
        d = sp.diags(1.0 / np.sqrt(g.degrees.astype(np.float64) + 1.0))
        expect = PropagationMatrix.from_scipy(d @ a @ d)
        p = normalized_adjacency(g)
        assert p.n == expect.n
        assert p.inf_norm == expect.inf_norm
        for name in ("row_ptr", "col_idx", "values"):
            got, want = getattr(p, name), getattr(expect, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("g", GRAPHS)
    def test_norm_from_degrees_matches_the_operator(self, g):
        # the same row sums, added in another order
        assert adjacency_inf_norm(g) == pytest.approx(
            normalized_adjacency(g).inf_norm, rel=1e-14, abs=0.0)

    def test_cached_norm_matches_fixed_order_recompute(self):
        g, _ = sbm_generate([20, 15], 0.3, 0.05, seed=5)
        p = normalized_adjacency(g)
        # exact equality: same left-to-right accumulation
        assert p.inf_norm == float(p.row_sums().max())

    def test_row_sums_accumulate_left_to_right(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 12, size=60)
        row_ptr = np.concatenate([[0], np.cumsum(counts)])
        values = rng.random(row_ptr[-1]) * rng.choice([1e-8, 1.0, 1e8],
                                                      size=row_ptr[-1])
        p = PropagationMatrix(n=60, row_ptr=row_ptr,
                              col_idx=np.zeros(row_ptr[-1], dtype=np.int64),
                              values=values)
        expect = np.zeros(60)
        for i in range(60):
            for v in values[row_ptr[i]:row_ptr[i + 1]]:
                expect[i] += v
        assert np.array_equal(p.row_sums(), expect)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            PropagationMatrix(n=1, row_ptr=np.array([0, 1]),
                              col_idx=np.array([0]),
                              values=np.array([-1.0]))

    @pytest.mark.parametrize("n", [0, 1, 20])
    def test_direct_construction_has_its_norm(self, n):
        # the norm is 0 only for the empty operator
        g = sbm_generate([10, 10], 0.4, 0.1, seed=2)[0] if n == 20 else (
            build_graph([], n))
        via_csr = normalized_adjacency(g)
        direct = PropagationMatrix(n=n, row_ptr=via_csr.row_ptr,
                                   col_idx=via_csr.col_idx,
                                   values=via_csr.values)
        assert direct.inf_norm == via_csr.inf_norm
        assert direct.inf_norm == float(direct.row_sums().max(initial=0.0))
        assert (direct.inf_norm == 0.0) == (n == 0)


class TestInfNormPower:
    def test_triangle_row_stochastic(self):
        p = normalized_adjacency(k3())
        assert inf_norm_power(p, 2) == pytest.approx(1.0)

    def test_power_zero_is_identity(self):
        p = normalized_adjacency(p3())
        assert inf_norm_power(p, 0) == 1.0

    def test_path_first_power(self):
        p = normalized_adjacency(p3())
        assert inf_norm_power(p, 1) == pytest.approx(2 / np.sqrt(6) + 1 / 3)

    def test_matches_dense_power_small_graphs(self):
        for seed in range(6):
            g, _ = sbm_generate([7, 8], 0.4, 0.15, seed=seed)
            p = normalized_adjacency(g)
            dense = np.asarray(p.to_scipy().todense())
            for k in range(5):
                expect = np.linalg.norm(np.linalg.matrix_power(dense, k),
                                        ord=np.inf)
                got = inf_norm_power(p, k)
                np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_square_submultiplicative(self):
        for seed in range(20):
            g, _ = sbm_generate([12, 10], 0.35, 0.1, seed=seed)
            p = normalizedadj = normalized_adjacency(g)
            assert inf_norm_power(p, 2) <= p.inf_norm ** 2 + 1e-12


class TestDegreeBound:
    def test_regular_triangle(self):
        assert degree_bound(k3().degree_stats()) == pytest.approx(1.0)

    def test_path(self):
        b = degree_bound(p3().degree_stats())
        assert b == pytest.approx(np.sqrt(1.5))
        assert b >= normalized_adjacency(p3()).inf_norm

    def test_bounds_norm_on_random_graphs(self):
        for seed in range(25):
            g, _ = sbm_generate([15, 15], 0.4, 0.1, seed=seed)
            p = normalized_adjacency(g)
            assert p.inf_norm <= degree_bound(g.degree_stats()) + 1e-12


class TestTeleportFilter:
    def test_gamma_one_is_identity(self):
        p = normalized_adjacency(k3())
        f = appnp_filter(p, 1.0, 4)
        np.testing.assert_allclose(np.asarray(f.to_scipy().todense()),
                                   np.eye(3), atol=1e-15)

    def test_gamma_zero_is_pure_power(self):
        p = normalized_adjacency(p3())
        f = appnp_filter(p, 0.0, 2)
        dense = np.asarray(p.to_scipy().todense())
        np.testing.assert_allclose(np.asarray(f.to_scipy().todense()),
                                   dense @ dense, atol=1e-14)

    def test_half_restart_on_triangle(self):
        f = appnp_filter(normalized_adjacency(k3()), 0.5, 1)
        expect = 0.5 * np.eye(3) + 0.5 * np.full((3, 3), 1 / 3)
        np.testing.assert_allclose(np.asarray(f.to_scipy().todense()), expect,
                                   atol=1e-15)
        assert f.inf_norm == pytest.approx(1.0)

    def test_coefficients_sum_to_one(self):
        for gamma in (0.0, 0.1, 0.5, 0.9, 1.0):
            for big_k in (1, 3, 10):
                total = appnp_coefficients(gamma, big_k).sum()
                assert abs(total - 1.0) <= 1e-12

    def test_lazy_and_materialized_agree(self):
        g, _ = sbm_generate([25, 25], 0.2, 0.05, seed=3)
        p = normalized_adjacency(g)
        x = np.random.default_rng(0).normal(size=(50, 4))
        f = appnp_filter(p, 0.15, 6)
        np.testing.assert_allclose(f.matmat(x), appnp_apply(p, 0.15, 6, x),
                                   atol=1e-10)
        # Both against the dense sum_k c_k P^k X.
        dense = np.asarray(p.to_scipy().todense())
        expect = sum(c * np.linalg.matrix_power(dense, k) @ x
                     for k, c in enumerate(appnp_coefficients(0.15, 6)))
        np.testing.assert_allclose(appnp_apply(p, 0.15, 6, x), expect,
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(f.matmat(x), expect, rtol=1e-12,
                                   atol=1e-14)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            appnp_filter(normalized_adjacency(k3()), 1.5, 2)

    @pytest.mark.parametrize("g", [
        build_graph([], 3), build_graph([(0, 4), (2, 4)], 6), k3(), p3(),
        *(sbm_generate([20, 15], 0.3, 0.05, seed=s)[0] for s in range(3)),
        sbm_generate([100, 100], 0.1, 0.01, seed=3)[0]])
    @pytest.mark.parametrize("gamma,big_k", [
        (0.1, 10), (0.5, 1), (0.0, 3), (1.0, 2), (0.37, 5)])
    def test_bits_equal_scipy_horner(self, g, gamma, big_k):
        # the former construction: the Horner recursion on scipy matrices
        import scipy.sparse as sp

        p = normalized_adjacency(g)
        m = p.to_scipy()
        eye = sp.identity(g.n, format="csr", dtype=np.float64)
        b = gamma * eye + (1.0 - gamma) * m
        for _ in range(big_k - 1):
            b = gamma * eye + (1.0 - gamma) * (m @ b)
        expect = PropagationMatrix.from_scipy(b)
        f = appnp_filter(p, gamma, big_k)
        assert f.n == expect.n
        for name in ("row_ptr", "col_idx", "values"):
            got, want = getattr(f, name), getattr(expect, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name


class TestGprPowers:
    def test_order_zero(self):
        p = normalized_adjacency(k3())
        x = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(gpr_powers(p, x, 0), x[None])

    def test_triangle_projector(self):
        p = normalized_adjacency(k3())
        stack = gpr_powers(p, np.eye(3), 2)
        third = np.full((3, 3), 1 / 3)
        np.testing.assert_allclose(stack[1], third, atol=1e-15)
        np.testing.assert_allclose(stack[2], third, atol=1e-15)

    def test_identity_operator(self):
        eye = PropagationMatrix.from_scipy(
            normalized_adjacency(build_graph([], 4)).to_scipy())
        x = np.random.default_rng(1).normal(size=(4, 3))
        stack = gpr_powers(eye, x, 3)
        for k in range(4):
            np.testing.assert_allclose(stack[k], x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gpr_powers(normalized_adjacency(k3()), np.zeros((4, 2)), 1)


class TestDropEdge:
    def test_keep_all(self):
        g, _ = sbm_generate([10, 10], 0.3, 0.1, seed=1)
        kept = drop_edge(g, 0.0, seed=9)
        assert np.array_equal(kept.col_idx, g.col_idx)

    def test_drop_all(self):
        g, _ = sbm_generate([10, 10], 0.3, 0.1, seed=1)
        empty = drop_edge(g, 1.0, seed=9)
        assert empty.edge_count == 0
        p = normalized_adjacency(empty)
        np.testing.assert_allclose(np.asarray(p.to_scipy().todense()),
                                   np.eye(20))

    def test_deterministic(self):
        g, _ = sbm_generate([10, 10], 0.3, 0.1, seed=1)
        a = drop_edge(g, 0.4, seed=7)
        b = drop_edge(g, 0.4, seed=7)
        assert np.array_equal(a.col_idx, b.col_idx)
        assert np.array_equal(a.row_ptr, b.row_ptr)

    def test_output_valid(self):
        g, _ = sbm_generate([15, 15], 0.3, 0.1, seed=2)
        for seed in range(5):
            drop_edge(g, 0.5, seed=seed).validate()


class TestSbm:
    def test_single_node(self):
        g, labels = sbm_generate([1], 0.7, 0.7, seed=0)
        assert g.n == 1 and g.edge_count == 0
        assert list(labels) == [0]

    def test_forced_triangles(self):
        g, labels = sbm_generate([3, 3], 1.0, 0.0, seed=0)
        assert g.edge_count == 6
        assert set(g.neighbors(0)) == {1, 2}
        assert set(g.neighbors(3)) == {4, 5}
        assert list(labels) == [0, 0, 0, 1, 1, 1]

    def test_seeded_edge_count_frozen(self):
        # golden value recorded once from this generator's seeded run
        g, _ = sbm_generate([50, 50], 0.1, 0.01, seed=0)
        assert g.edge_count == 272

    def test_empty_block_list_rejected(self):
        with pytest.raises(ValueError):
            sbm_generate([], 0.5, 0.5, seed=0)

    @pytest.mark.parametrize("sizes", [
        [1], [2], [3], [4], [5], [6], [7], [8],
        [1, 1, 1], [2, 1, 3], [9, 1, 6], [33, 40, 2], [100, 100]])
    @pytest.mark.parametrize("p_in,p_out", [(0.2, 0.05), (1.0, 0.0),
                                            (0.0, 1.0)])
    def test_pairs_equal_one_dense_draw(self, sizes, p_in, p_out):
        # one block and three, every n mod 4; the pairs read the words of
        # the stream that an (n, n) draw puts at (i, j)
        n = sum(sizes)
        for seed in (0, 3, 7):
            g, labels = sbm_generate(sizes, p_in, p_out, seed=seed)
            u = stream(seed, "sbm").random((n, n))
            prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
            iu, ju = np.triu_indices(n, k=1)
            mask = u[iu, ju] < prob[iu, ju]
            expect = build_graph(np.column_stack([iu[mask], ju[mask]]), n)
            assert np.array_equal(g.row_ptr, expect.row_ptr)
            assert np.array_equal(g.col_idx, expect.col_idx)

    def test_scale_6k_bundle_digests_frozen(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["gen", *SCALE_6K_GEN, "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in SCALE_6K_SHA256}
        assert digests == SCALE_6K_SHA256

    def test_small_bundle_digests_frozen(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["gen", *SMALL_GEN, "--seed", "3", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in SMALL_SHA256}
        assert digests == SMALL_SHA256

    @pytest.mark.parametrize("flags", [
        *([*SMALL_GEN, "--seed", str(s)] for s in range(8)),
        ["--blocks", "4,4", "--pin", "0.3", "--pout", "0", "--seed", "3"],
        ["--blocks", "1"]], ids=[*(f"small-{s}" for s in range(8)),
                                 "isolated-node", "one-node"])
    def test_gen_prints_the_operator_norm(self, flags, tmp_path, capsys):
        # gen prints the norm from the degrees; it is the operator's to the
        # four printed digits
        out = tmp_path / "bundle"
        assert main(["gen", *flags, "--out", str(out)]) == 0
        g = load_bundle(out).graph
        stats = g.degree_stats()
        assert capsys.readouterr().out == (
            f"bundle sbm: n={g.n} edges={stats.edge_count} "
            f"deg=[{stats.deg_min},{stats.deg_max}] "
            f"adjacency_norm={normalized_adjacency(g).inf_norm:.4g}\n")

    def test_gen_never_imports_scipy(self, tmp_path):
        assert scipy_modules_after(["gen"], tmp_path) == []

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), p_in=st.floats(0, 1),
           p_out=st.floats(0, 1))
    def test_output_always_valid(self, seed, p_in, p_out):
        g, labels = sbm_generate([6, 5], p_in, p_out, seed=seed)
        g.validate()
        assert labels.shape == (11,)


def scipy_modules_after(argv, tmp_path):
    """The ``scipy`` modules loaded by the time the command ``argv`` ends,
    run in a new process that first writes a 24-node bundle ``b``."""
    code = ("import sys\n"
            "from transgap.cli import main\n"
            "assert main(['gen', '--blocks', '12,12', '--out', 'b']) == 0\n"
            "if sys.argv[1:] != ['gen']:\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))\n")
    res = run_python(["-c", code, *argv], tmp_path)
    assert res.returncode == 0, res.stderr
    return ast.literal_eval(res.stdout.splitlines()[-1])


# Every command but gen multiplies by P; the 24-node analyze --compare runs
# the materialized appnp filter, experiment all seven models.
@pytest.mark.parametrize("argv", [
    ["train", "--data", "b", "--model", "gcnii", "--T", "4", "--out", "t.csv"],
    ["analyze", "--data", "b", "--compare", "--T", "4", "--out", "a.json"],
    ["experiment", "--data", "b", "--models",
     "gcn,gcnii,sgc,appnp,gprgnn,gcn6,gcnii6", "--seeds", "1", "--T", "4",
     "--out", "e"],
    ["gradcheck", "--model", "all", "--n", "12", "--instances", "1"]],
    ids=lambda argv: argv[0])
def test_no_command_imports_scipy_sparse(argv, tmp_path):
    assert "scipy.sparse" not in scipy_modules_after(argv, tmp_path)


class TestScipyView:
    def test_one_read_only_matrix_per_operator(self):
        p = normalized_adjacency(k3())
        m = p.to_scipy()
        assert p.to_scipy() is m
        for arr in (m.data, m.indices, m.indptr):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            m.data[0] = 2.0
        np.testing.assert_allclose(p.matmat(np.eye(3)), m.toarray())

    def test_cache_is_not_a_field(self):
        from dataclasses import fields

        p = normalized_adjacency(p3())
        before = repr(p)
        p.to_scipy()
        assert p.inf_norm > 0.0
        assert repr(p) == before
        assert [f.name for f in fields(p)] == [
            "n", "row_ptr", "col_idx", "values"]
        other = normalized_adjacency(build_graph([(0, 1)], 2))
        assert other.to_scipy() is not p.to_scipy()
        assert other.to_scipy().shape == (2, 2)


def _raw_graph(n, rows):
    """A SparseGraph straight from per-row neighbor lists, unchecked."""
    from transgap.graphs import SparseGraph

    row_ptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    col_idx = np.array([c for r in rows for c in r], dtype=np.int64)
    return SparseGraph(n=n, row_ptr=row_ptr, col_idx=col_idx)


class TestOperatorChecks:
    """A PropagationMatrix rejects CSR arrays that the product kernels,
    which check nothing, would read out of bounds."""

    @staticmethod
    def make(row_ptr, col_idx, nnz=None):
        col_idx = np.array(col_idx, dtype=np.int64)
        return PropagationMatrix(
            n=3, row_ptr=np.array(row_ptr, dtype=np.int64), col_idx=col_idx,
            values=np.ones(col_idx.size if nnz is None else nnz))

    def test_valid_arrays_pass(self):
        p = self.make([0, 1, 1, 3], [2, 0, 1])
        assert gpr_powers(p, np.ones(3), 2)[2].tolist() == [2.0, 0.0, 1.0]

    @pytest.mark.parametrize("col_idx", [[0, 1, 7], [0, -1, 2]])
    def test_column_out_of_range(self, col_idx):
        with pytest.raises(ValueError, match="column index out of range"):
            self.make([0, 1, 2, 3], col_idx)

    def test_row_ptr_length(self):
        with pytest.raises(ValueError, match="row_ptr inconsistent"):
            self.make([0, 1, 2], [0, 1])

    def test_row_ptr_start(self):
        with pytest.raises(ValueError, match="row_ptr inconsistent"):
            self.make([1, 1, 2, 3], [0, 1, 2])

    def test_row_ptr_decreasing(self):
        with pytest.raises(ValueError, match="row_ptr not non-decreasing"):
            self.make([0, 2, 1, 3], [0, 1, 2])

    def test_entry_count(self):
        with pytest.raises(ValueError, match="row_ptr inconsistent"):
            self.make([0, 1, 2, 3], [0, 1])

    def test_values_length(self):
        with pytest.raises(ValueError, match="values and col_idx differ"):
            self.make([0, 1, 2, 3], [0, 1, 2], nnz=2)


class TestValidate:
    def test_unsorted_row(self):
        g = _raw_graph(3, [[1, 2], [0, 2], [1, 0]])
        with pytest.raises(ValueError, match="row 2 not strictly sorted"):
            g.validate()

    def test_duplicate_neighbor(self):
        g = _raw_graph(3, [[1, 1], [0, 0], []])
        with pytest.raises(ValueError, match="row 0 not strictly sorted"):
            g.validate()

    def test_self_loop(self):
        g = _raw_graph(3, [[1], [0, 1], []])
        with pytest.raises(ValueError, match="self-loop stored at node 1"):
            g.validate()

    def test_asymmetric_pattern(self):
        g = _raw_graph(3, [[1], [0, 2], []])
        with pytest.raises(ValueError, match="not symmetric"):
            g.validate()

    @pytest.mark.parametrize("rows", [
        [[1], [2], [0]],  # a directed cycle: every row count matches
        [[1, 2], [0], [1]]])
    def test_asymmetric_edge_sets(self, rows):
        g = _raw_graph(3, rows)
        with pytest.raises(ValueError, match="not symmetric"):
            g.validate()

    def test_first_bad_row_is_reported(self):
        # row 1 holds a self-loop, rows 3 and 4 are unsorted: row 1 first
        g = _raw_graph(5, [[], [1], [], [4, 0], [3, 0]])
        with pytest.raises(ValueError, match="self-loop stored at node 1"):
            g.validate()
        # a row with both faults reports the order fault, as the row
        # loop did
        g = _raw_graph(3, [[2, 0], [], [0]])
        with pytest.raises(ValueError, match="row 0 not strictly sorted"):
            g.validate()

    def test_valid_graphs_pass(self):
        for g in (k3(), p3(), build_graph([], 4),
                  sbm_generate([20, 20], 0.3, 0.05, seed=2)[0]):
            g.validate()
