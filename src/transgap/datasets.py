"""Dataset bundles, transductive splits, and synthetic data generation.

A bundle directory holds four files:

  edges.tsv      one undirected edge per line, two tab-separated 0-based
                 node ids; blank lines and lines starting with '#' ignored
  features.csv   one node per line (node order = index order), comma-separated
  labels.csv     one class index per line
  meta.json      {"n": ..., "d": ..., "num_classes": ..., "name": ...}

Citation-graph datasets are not bundled; any dataset converted to this
layout loads the same way as the generated block-model bundles.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import SparseGraph, build_graph, sbm_generate
from .rng import stream


@dataclass(frozen=True)
class Split:
    """Disjoint, exhaustive train/test node index sets."""

    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        self.train_idx.setflags(write=False)
        self.test_idx.setflags(write=False)
        m, u = self.train_idx.size, self.test_idx.size
        if m == 0 or u == 0:
            raise ValueError("degenerate split: both sides must be nonempty")
        joined = np.concatenate([self.train_idx, self.test_idx])
        if np.unique(joined).size != joined.size:
            raise ValueError("train/test overlap")
        if joined.size != m + u or joined.max() != m + u - 1 or joined.min() != 0:
            raise ValueError("split must cover exactly 0..n-1")

    @property
    def m(self) -> int:
        return int(self.train_idx.size)

    @property
    def u(self) -> int:
        return int(self.test_idx.size)

    @property
    def n(self) -> int:
        return self.m + self.u


def make_split(n: int, train_frac: float, seed: int) -> Split:
    """Seeded shuffle split with floor(train_frac * n) training nodes."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    if n < 2:
        raise ValueError("need at least 2 nodes to split")
    m = int(np.floor(train_frac * n))
    if m == 0 or m == n:
        raise ValueError(f"degenerate split: m={m} of n={n}")
    perm = stream(seed, "split").permutation(n)
    return Split(train_idx=np.sort(perm[:m]).astype(np.int64),
                 test_idx=np.sort(perm[m:]).astype(np.int64))


@dataclass(frozen=True)
class DatasetBundle:
    name: str
    graph: SparseGraph
    x: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        n = self.graph.n
        if self.x.shape[0] != n or self.labels.shape != (n,):
            raise ValueError("feature/label row count does not match graph")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise ValueError("label outside [0, num_classes)")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d(self) -> int:
        return int(self.x.shape[1])


def row_normalize(x: np.ndarray) -> np.ndarray:
    """Scale every nonzero row to unit 2-norm."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return x / safe


class BundleFormatError(ValueError):
    pass


# An edges.tsv as save_bundle writes it, read by one numpy parse: "u<TAB>v"
# lines of at most 18 ASCII digits per id, so that every id fits an int64.
_SAVED_EDGES = re.compile(r"(?:[0-9]{1,18}\t[0-9]{1,18}\n)*")


def _read_edges(path: Path, n: int) -> SparseGraph:
    text = path.read_text(encoding="utf-8")
    if _SAVED_EDGES.fullmatch(text):
        edges = np.fromstring(text, dtype=np.int64, sep=" ")
    else:  # skip blank and '#' lines, split the rest at one tab
        edges = []
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise BundleFormatError(
                    f"{path}:{lineno}: expected two tab-separated ids")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise BundleFormatError(f"{path}:{lineno}: {exc}") from None
    try:
        return build_graph(edges, n)
    except OverflowError:  # an id past int64
        raise BundleFormatError(f"{path}: edge index out of range") from None
    except ValueError as exc:
        raise BundleFormatError(f"{path}: {exc}") from None


def _load_table(path: Path, dtype, **kwargs) -> np.ndarray:
    try:
        return np.loadtxt(path, dtype=dtype, **kwargs)
    except ValueError as exc:
        raise BundleFormatError(f"{path}: {exc}") from None


def load_bundle(path, normalize_features: bool = False) -> DatasetBundle:
    """Load and validate a bundle directory."""
    root = Path(path)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise BundleFormatError(f"missing file: {meta_path}")
    keys = ("n", "d", "num_classes")
    try:
        meta = json.loads(meta_path.read_text())
        sizes, name = [meta[key] for key in keys], str(meta["name"])
    except KeyError as exc:
        raise BundleFormatError(f"{meta_path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise BundleFormatError(f"{meta_path}: {exc}") from None
    for key, size in zip(keys, sizes):
        if type(size) is not int:  # bool is an int subclass
            raise BundleFormatError(f"{meta_path}: {key} must be an integer, "
                                    f"got {json.dumps(size)}")
        if size < 1:
            raise BundleFormatError(f"{meta_path}: {key} must be >= 1, "
                                    f"got {size}")
    n, d, num_classes = sizes
    # features.csv bounds n before the graph allocates n-sized arrays
    x = _load_table(root / "features.csv", np.float64, delimiter=",", ndmin=2)
    if x.shape != (n, d):
        raise BundleFormatError(
            f"features.csv has shape {x.shape}, meta says {(n, d)}")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise BundleFormatError(f"{root / 'features.csv'}: non-finite value "
                                f"for node {int(np.argmin(finite))}")
    graph = _read_edges(root / "edges.tsv", n)
    labels = _load_table(root / "labels.csv", np.int64, ndmin=1)
    if labels.shape != (n,):
        raise BundleFormatError(f"labels.csv has {labels.shape[0]} rows, need {n}")
    if labels.min() < 0 or labels.max() >= num_classes:
        bad = int(np.argmax((labels < 0) | (labels >= num_classes))) + 1
        raise BundleFormatError(
            f"labels.csv:{bad}: class index outside [0, {num_classes})")
    if normalize_features:
        x = row_normalize(x)
    return DatasetBundle(name=name, graph=graph, x=x,
                         labels=labels, num_classes=num_classes)


def save_bundle(bundle: DatasetBundle, path) -> None:
    """Write a bundle directory with byte-stable formatting."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    np.savetxt(root / "edges.tsv", bundle.graph.undirected_edges(), fmt="%d",
               delimiter="\t")
    np.savetxt(root / "features.csv", bundle.x, fmt="%.17g", delimiter=",")
    np.savetxt(root / "labels.csv", bundle.labels, fmt="%d")
    meta = {"n": bundle.n, "d": bundle.d, "num_classes": bundle.num_classes,
            "name": bundle.name}
    (root / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")


def sbm_bundle(sizes, p_in: float, p_out: float, seed: int, d: int = 8,
               name: str = "sbm", signal: float = 1.0,
               noise: float = 1.0) -> DatasetBundle:
    """Planted-partition bundle with Gaussian block-mean features.

    Block b gets mean ``signal * e_{b mod d}``; features add isotropic noise.
    Labels are the block indices.
    """
    if d < 1:
        raise ValueError("feature dimension d must be >= 1")
    graph, labels = sbm_generate(sizes, p_in, p_out, seed)
    rng = stream(seed, "features")
    means = np.zeros((len(sizes), d))
    for b in range(len(sizes)):
        means[b, b % d] = signal
    x = means[labels] + noise * rng.normal(size=(graph.n, d))
    if not np.isfinite(x).all():
        raise ValueError("signal and noise must give finite features")
    return DatasetBundle(name=name, graph=graph, x=x, labels=labels,
                         num_classes=len(sizes))
