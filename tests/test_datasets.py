import json
import tracemalloc

import numpy as np
import pytest

import transgap.datasets as datasets
from transgap.datasets import (BundleFormatError, DatasetBundle, load_bundle,
                               make_split, row_normalize, save_bundle,
                               sbm_bundle)
from transgap.graphs import build_graph


def triangle_bundle():
    g = build_graph([(0, 1), (0, 2), (1, 2)], 3)
    x = np.array([[1.0, 0.5], [0.25, -1.0], [0.125, 2.0]])
    return DatasetBundle(name="tri", graph=g, x=x,
                         labels=np.array([0, 1, 0]), num_classes=2)


class TestSplit:
    def test_floor_sizes(self):
        s = make_split(10, 0.3, seed=0)
        assert s.m == 3 and s.u == 7

    def test_deterministic(self):
        a = make_split(50, 0.3, seed=4)
        b = make_split(50, 0.3, seed=4)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_seeds_differ(self):
        for seed in range(20):
            a = make_split(100, 0.3, seed=seed)
            b = make_split(100, 0.3, seed=seed + 1000)
            assert not np.array_equal(a.train_idx, b.train_idx)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            make_split(3, 0.05, seed=0)
        with pytest.raises(ValueError):
            make_split(10, 1.0, seed=0)


class TestBundleIO:
    def test_round_trip_bytes(self, tmp_path):
        bundle = triangle_bundle()
        save_bundle(bundle, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b")
        assert loaded.name == "tri"
        np.testing.assert_array_equal(loaded.labels, bundle.labels)
        np.testing.assert_array_equal(loaded.x, bundle.x)
        save_bundle(loaded, tmp_path / "b2")
        for fname in ("edges.tsv", "features.csv", "labels.csv", "meta.json"):
            assert ((tmp_path / "b" / fname).read_bytes()
                    == (tmp_path / "b2" / fname).read_bytes())

    def test_label_out_of_range_rejected(self, tmp_path):
        bundle = triangle_bundle()
        save_bundle(bundle, tmp_path / "b")
        (tmp_path / "b" / "labels.csv").write_text("0\n2\n0\n")
        with pytest.raises(BundleFormatError, match="class index"):
            load_bundle(tmp_path / "b")

    def test_missing_meta_names_file(self, tmp_path):
        bundle = triangle_bundle()
        save_bundle(bundle, tmp_path / "b")
        (tmp_path / "b" / "meta.json").unlink()
        with pytest.raises(BundleFormatError, match="meta.json"):
            load_bundle(tmp_path / "b")

    def test_malformed_edge_line_reports_number(self, tmp_path):
        bundle = triangle_bundle()
        save_bundle(bundle, tmp_path / "b")
        (tmp_path / "b" / "edges.tsv").write_text("0\t1\n# fine\nbroken\n")
        with pytest.raises(BundleFormatError, match=":3"):
            load_bundle(tmp_path / "b")

    def test_feature_shape_mismatch(self, tmp_path):
        bundle = triangle_bundle()
        save_bundle(bundle, tmp_path / "b")
        meta = json.loads((tmp_path / "b" / "meta.json").read_text())
        meta["d"] = 5
        (tmp_path / "b" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(BundleFormatError, match="features.csv"):
            load_bundle(tmp_path / "b")

    def test_comments_and_blanks_ignored(self, tmp_path):
        bundle = triangle_bundle()
        save_bundle(bundle, tmp_path / "b")
        edges = (tmp_path / "b" / "edges.tsv").read_text()
        (tmp_path / "b" / "edges.tsv").write_text("# comment\n\n" + edges)
        assert load_bundle(tmp_path / "b").graph.edge_count == 3

    def test_normalization_flag(self, tmp_path):
        bundle = triangle_bundle()
        save_bundle(bundle, tmp_path / "b")
        loaded = load_bundle(tmp_path / "b", normalize_features=True)
        np.testing.assert_allclose(np.linalg.norm(loaded.x, axis=1), 1.0)



def line_by_line_edges(path):
    """Oracle: the edges.tsv reader of earlier versions, one line at a time
    from the file object.  Returns the edge list, or the message suffix
    after the path of the error it raised."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split("\t")
            if len(parts) != 2:
                return f":{lineno}: expected two tab-separated ids"
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                return f":{lineno}: {exc}"
            edges.append((u, v))
    return edges


EDGE_FILES = {
    "saved": b"0\t1\n1\t2\n0\t11\n",
    "empty": b"",
    "comment only": b"# edges of nothing\n",
    "blank lines": b"\n\n0\t1\n\n\n1\t2\n\n",
    "comment lines": b"# head\n0\t1\n  # indented\n\t# tabbed\n1\t2\n",
    "crlf": b"0\t1\r\n1\t2\r\n",
    "lone cr": b"0\t1\r1\t2\r",
    "leading spaces": b"  0\t1\n \t1\t2\n",
    "trailing tab": b"0\t1\t\n1\t2\n",
    "trailing spaces": b"0\t1   \n",
    "spaces around the tab": b"0 \t 1\n",
    "no final newline": b"0\t1\n1\t2",
    "int literal forms": b"+0\t1_0\n0\t\xd9\xa1\n",
    "trailing comment": b"0\t1\n1\t2 # note\n",
    "three fields": b"0\t1\n1\t2\t3\n",
    "two tabs": b"0\t\t1\n",
    "one field": b"0\t1\n# ok\n\n7\n",
    "space separated": b"0 1\n",
    "non-integer field": b"0\t1\n1\tx\n",
    "float field": b"0\t1.0\n",
    "byte order mark": b"\xef\xbb\xbf0\t1\n",
    "negative id": b"0\t1\n-1\t2\n",
    "id past n": b"0\t12\n",
    "self-loop": b"3\t3\n",
    "duplicates": b"0\t1\n1\t0\n0\t1\n",
}


class TestEdgeLines:
    """Every edges.tsv is accepted or rejected as the line-by-line reader
    did it, with the same edges or the same message."""

    @pytest.mark.parametrize("name", sorted(EDGE_FILES))
    def test_same_lines_as_line_by_line_reader(self, name, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_bytes(EDGE_FILES[name])
        want = line_by_line_edges(path)
        if isinstance(want, list):
            try:
                want = build_graph(want, 12)
            except ValueError as exc:
                want = f": {exc}"
        if isinstance(want, str):
            with pytest.raises(BundleFormatError) as info:
                datasets._read_edges(path, 12)
            assert str(info.value) == f"{path}{want}"
        else:
            got = datasets._read_edges(path, 12)
            np.testing.assert_array_equal(got.row_ptr, want.row_ptr)
            np.testing.assert_array_equal(got.col_idx, want.col_idx)

    def test_saved_file_takes_the_array_parse(self, tmp_path, monkeypatch):
        bundle = sbm_bundle([30, 30], 0.2, 0.02, seed=4)
        save_bundle(bundle, tmp_path / "b")

        seen = []

        def recorded(edges, n):
            seen.append(type(edges))
            return build_graph(edges, n)

        monkeypatch.setattr(datasets, "build_graph", recorded)
        loaded = load_bundle(tmp_path / "b")
        assert seen == [np.ndarray]
        np.testing.assert_array_equal(loaded.graph.row_ptr,
                                      bundle.graph.row_ptr)
        np.testing.assert_array_equal(loaded.graph.col_idx,
                                      bundle.graph.col_idx)

    def test_saved_file_is_read_in_bounded_memory(self, tmp_path):
        """Reading a saved edges.tsv of 40,000 lines peaks under 100 B a
        line: its check holds a bounded block of lines at a time, where
        one match of the whole text kept about 200 B for every line."""
        rng = np.random.default_rng(0)
        lines, n = 40_000, 6000
        u = rng.integers(0, n - 1, size=lines)
        path = tmp_path / "edges.tsv"
        np.savetxt(path, np.column_stack([u, u + 1]), fmt="%d",
                   delimiter="\t")
        tracemalloc.start()
        try:
            graph = datasets._read_edges(path, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.edge_count == np.unique(u).size
        assert peak < 100 * lines

    @pytest.mark.parametrize("text", ["0\t" + "9" * 19 + "\n",
                                      "0\t" + "9" * 40 + "\n"])
    def test_id_past_int64_is_out_of_range(self, text, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text(text)
        with pytest.raises(BundleFormatError,
                           match="edge index out of range"):
            datasets._read_edges(path, 12)

class TestRowNormalize:
    def test_unit_rows(self):
        x = np.random.default_rng(0).normal(size=(6, 4))
        np.testing.assert_allclose(np.linalg.norm(row_normalize(x), axis=1),
                                   1.0, atol=1e-12)

    def test_zero_rows_stay_zero(self):
        x = np.zeros((2, 3))
        np.testing.assert_array_equal(row_normalize(x), x)


class TestSbmBundle:
    def test_deterministic(self):
        a = sbm_bundle([10, 10], 0.3, 0.05, seed=3, d=4)
        b = sbm_bundle([10, 10], 0.3, 0.05, seed=3, d=4)
        np.testing.assert_array_equal(a.x, b.x)
        assert np.array_equal(a.graph.col_idx, b.graph.col_idx)

    def test_block_means_separate(self):
        bundle = sbm_bundle([200, 200], 0.1, 0.01, seed=0, d=4, signal=5.0,
                            noise=0.5)
        mean0 = bundle.x[bundle.labels == 0].mean(axis=0)
        mean1 = bundle.x[bundle.labels == 1].mean(axis=0)
        assert mean0[0] > 4.0 and abs(mean1[0]) < 1.0
        assert mean1[1] > 4.0 and abs(mean0[1]) < 1.0

    def test_generation_and_save_peak_per_edge(self, tmp_path):
        """At 6000 nodes with the benchmark's scale-6k degrees (about 40k
        edges), making the bundle peaks at most 40 B per undirected edge
        beyond the bundle's own arrays, and writing it at most 20 B: one
        edge buffer feeds build_graph's one key array, and edges.tsv is
        written in bounded blocks (27 and 9 B with numpy 2.4).  Stacked
        per-row arrays, two key temporaries and a whole (m, 2) copy for
        the file took 54 and 50.  The bounds were read under numpy 2.4
        only; under the oldest numpy that pyproject.toml allows (1.24)
        they are unverified."""
        import numpy.random  # noqa: F401  (its import is not the generator's)

        tracemalloc.start()
        try:
            bundle = sbm_bundle([3000, 3000], 0.004, 0.0005, seed=3,
                                signal=1.5, noise=2.0)
            made = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            save_bundle(bundle, tmp_path / "b")
            saved = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        g = bundle.graph
        own = sum(a.nbytes for a in (g.row_ptr, g.col_idx, bundle.x,
                                     bundle.labels))
        m = g.edge_count
        assert m > 39_000
        assert (made - own) / m < 40
        assert saved / m < 20
