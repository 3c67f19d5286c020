"""Sparse undirected graphs and propagation operators.

Graphs are stored in compressed-sparse-row form without values (unweighted,
symmetric, no self-loops).  Propagation operators carry nonnegative float64
values and a cached infinity norm.  Graphs and operators are built with
numpy alone, and every sparse product runs through ``csr_product``, which
calls scipy's compiled CSR/CSC kernels (``scipy/sparse/_sparsetools``)
loaded from their file on the first product.  No command imports the
``scipy.sparse`` package; only ``scipy_sparse`` does, for the scipy views
of ``PropagationMatrix.to_scipy`` and ``from_scipy``.

Matrix powers are never materialized for exponent >= 2: every polynomial
sum_k c_k P^k X is read from the stack [X, PX, ..., P^K X] of
``gpr_powers``, built by repeated sparse mat-vec / mat-mat products, which
is exact for the infinity norm of a nonnegative matrix (max component of
P^k applied to the all-ones vector).  Only the small-graph
``appnp_filter`` forms a matrix, the filter itself.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

from .rng import stream

if TYPE_CHECKING:
    import scipy.sparse as sp

# Graphs of at most this many nodes may store the APPNP filter as a matrix
# (``PropOps.filter``, built on first read; no command reads it): the
# dense-ish filter costs memory quadratic in n.
FILTER_MATERIALIZE_LIMIT = 250

# ``SparseGraph.edge_blocks`` reads this many stored entries per block.
_EDGE_BLOCK = 1 << 10


def scipy_sparse():
    """The ``scipy.sparse`` module, imported on first use."""
    import scipy.sparse

    return scipy.sparse


@cache
def _sparsetools():
    """scipy's compiled sparse kernels, loaded from their file in about
    1 ms.  Importing them as ``scipy.sparse._sparsetools`` would first run
    the whole ``scipy.sparse`` package: about 0.15-0.19 s and 19 MB of
    every command."""
    name = "scipy.sparse._sparsetools"
    scipy = importlib.util.find_spec("scipy")  # locates, imports nothing
    for root in (scipy.submodule_search_locations if scipy else None) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                spec = importlib.util.spec_from_loader(name, loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                return module
    from scipy.sparse import _sparsetools

    return _sparsetools


def csr_product(ptr: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                shape: tuple[int, int], m: np.ndarray,
                transpose: bool = False) -> np.ndarray:
    """A @ m for the CSR matrix A = (vals, cols, ptr) of ``shape``, or
    A^T @ m with ``transpose`` (the same arrays read as CSC), as a new
    float64 array.

    Calls the kernel that scipy's ``@`` dispatches to, with its arguments,
    so the result is scipy's bit for bit: a 1-D or one-column operand goes
    to ``csr_matvec``/``csc_matvec``, any other to ``*_matvecs``.  The
    kernels check nothing, so the operand's row count is checked here and
    the CSR arrays must be valid (as a ``PropagationMatrix`` checks its own).
    """
    rows, inner = shape[::-1] if transpose else shape
    m = np.ascontiguousarray(m, dtype=np.float64)
    if m.ndim not in (1, 2) or m.shape[0] != inner:
        raise ValueError(f"dimension mismatch: operand of shape {m.shape} "
                         f"for a product with {inner} columns")
    kind = "csc" if transpose else "csr"
    if m.ndim == 1 or m.shape[1] == 1:
        out = np.zeros(rows)
        getattr(_sparsetools(), kind + "_matvec")(
            rows, inner, ptr, cols, vals, m.ravel(), out)
        return out.reshape((rows,) + m.shape[1:])
    out = np.zeros((rows, m.shape[1]))
    getattr(_sparsetools(), kind + "_matvecs")(
        rows, inner, m.shape[1], ptr, cols, vals, m.ravel(), out.ravel())
    return out


def _check_csr(n: int, row_ptr: np.ndarray, col_idx: np.ndarray) -> None:
    """Raise ValueError unless (row_ptr, col_idx) index n rows and columns."""
    rp, ci = row_ptr, col_idx
    if rp.shape != (n + 1,) or rp[0] != 0 or rp[-1] != ci.shape[0]:
        raise ValueError("row_ptr inconsistent")
    if np.any(np.diff(rp) < 0):
        raise ValueError("row_ptr not non-decreasing")
    if ci.size and (ci.min() < 0 or ci.max() >= n):
        raise ValueError("column index out of range")


@dataclass(frozen=True)
class DegreeStats:
    """Degree summary of an undirected graph (isolated nodes count as 0)."""

    deg_min: int
    deg_max: int
    n: int
    edge_count: int

    def __post_init__(self):
        if self.deg_min > self.deg_max:
            raise ValueError("deg_min exceeds deg_max")
        if self.n > 0 and self.deg_max >= self.n:
            raise ValueError("deg_max must be < n")


@dataclass(frozen=True)
class SparseGraph:
    """Immutable unweighted undirected graph in CSR form.

    ``row_ptr`` has length n+1; ``col_idx`` holds sorted neighbor indices per
    row.  Every undirected edge appears twice (both directions), self-loops
    are never stored.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray

    def __post_init__(self):
        self.row_ptr.setflags(write=False)
        self.col_idx.setflags(write=False)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    @property
    def edge_count(self) -> int:
        return int(self.col_idx.shape[0]) // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.col_idx[self.row_ptr[u]:self.row_ptr[u + 1]]

    def degree_stats(self) -> DegreeStats:
        deg = self.degrees
        if self.n == 0:
            return DegreeStats(0, 0, 0, 0)
        return DegreeStats(int(deg.min()), int(deg.max()), self.n, self.edge_count)

    def undirected_edges(self) -> np.ndarray:
        """(m, 2) array of edges with u < v, in CSR order."""
        return np.concatenate([*self.edge_blocks(), np.empty((0, 2), np.int64)])

    def edge_blocks(self):
        """The rows of ``undirected_edges`` in order, one (k, 2) array for
        each run of at most ``_EDGE_BLOCK`` stored entries: memory bounded
        by the block, not by the edge count."""
        size = _EDGE_BLOCK
        for start in range(0, self.col_idx.size, size):
            cols = self.col_idx[start:start + size]
            rows = np.searchsorted(self.row_ptr,
                                   np.arange(start, start + cols.size),
                                   side="right") - 1
            keep = rows < cols
            yield np.column_stack([rows[keep], cols[keep]])

    def validate(self) -> None:
        """Raise ValueError if any structural invariant is broken."""
        rp, ci = self.row_ptr, self.col_idx
        _check_csr(self.n, rp, ci)
        rows = np.repeat(np.arange(self.n), np.diff(rp))
        # The first row with either fault is reported, the order fault first.
        unsorted = rows[1:][(rows[1:] == rows[:-1]) & (np.diff(ci) <= 0)]
        loops = rows[ci == rows]
        first_unsorted = unsorted[0] if unsorted.size else self.n
        first_loop = loops[0] if loops.size else self.n
        if first_unsorted < self.n and first_unsorted <= first_loop:
            raise ValueError(
                f"row {first_unsorted} not strictly sorted / has duplicates")
        if first_loop < self.n:
            raise ValueError(f"self-loop stored at node {first_loop}")
        # The (row, col) pairs are sorted, and so are the (col, row) pairs
        # in this order (rows ascend); they agree iff every edge is stored
        # both ways.
        order = np.argsort(ci, kind="stable")
        if not (np.array_equal(ci[order], rows)
                and np.array_equal(rows[order], ci)):
            raise ValueError("adjacency not symmetric")


def _ltr_row_sums(row_ptr: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Row sums with fixed left-to-right accumulation.

    Weighted ``bincount`` adds the entries one at a time in storage order,
    and each row's entries are stored contiguously, left to right.
    """
    rows = np.repeat(np.arange(n), np.diff(row_ptr))
    return np.bincount(rows, weights=values, minlength=n)


@dataclass(frozen=True)
class PropagationMatrix:
    """Sparse nonnegative operator with a cached infinity norm."""

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for arr in (self.row_ptr, self.col_idx, self.values):
            arr.setflags(write=False)
        _check_csr(self.n, self.row_ptr, self.col_idx)
        if self.values.shape != self.col_idx.shape:
            raise ValueError("values and col_idx differ in length")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("propagation values must be finite and nonnegative")

    @classmethod
    def from_csr(cls, n: int, row_ptr: np.ndarray, col_idx: np.ndarray,
                 values: np.ndarray) -> "PropagationMatrix":
        """Operator from canonical CSR arrays (sorted, no duplicates or
        stored zeros)."""
        return cls(n=n, row_ptr=row_ptr.astype(np.int64),
                   col_idx=col_idx.astype(np.int64),
                   values=values.astype(np.float64))

    @classmethod
    def from_scipy(cls, mat: sp.spmatrix) -> "PropagationMatrix":
        m = scipy_sparse().csr_matrix(mat, dtype=np.float64, copy=True)
        m.sum_duplicates()
        m.sort_indices()
        m.eliminate_zeros()
        return cls.from_csr(m.shape[0], m.indptr, m.indices, m.data)

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        m = scipy_sparse().csr_matrix(
            (self.values, self.col_idx, self.row_ptr), shape=(self.n, self.n))
        for arr in (m.data, m.indices, m.indptr):
            arr.setflags(write=False)
        return m

    def to_scipy(self) -> sp.csr_matrix:
        """The operator as a read-only scipy CSR matrix, built on first use."""
        return self._csr

    def row_sums(self) -> np.ndarray:
        return _ltr_row_sums(self.row_ptr, self.values, self.n)

    @cached_property
    def inf_norm(self) -> float:
        """The exact maximum row sum under the package's fixed
        left-to-right accumulation order; 0 for an empty operator."""
        return float(self.row_sums().max()) if self.n else 0.0

    def matmat(self, x: np.ndarray) -> np.ndarray:
        return csr_product(self.row_ptr, self.col_idx, self.values,
                           (self.n, self.n), x)


def _distinct(s: np.ndarray) -> np.ndarray:
    """The distinct entries of a sorted 1-D array, in order."""
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def unique_sorted(a) -> np.ndarray:
    """``np.unique`` of integers as sorted int64, by one sort: numpy 2's
    ``np.unique`` imports ``numpy.ma`` (about 0.8 MB) on its first call."""
    return _distinct(np.sort(np.asarray(a, dtype=np.int64), axis=None))


def build_graph(edges, n: int) -> SparseGraph:
    """Build a symmetric, deduplicated, sorted CSR graph from edge pairs.

    ``edges`` is an (m, 2) array or any iterable of (u, v) pairs; a
    self-loop is rejected.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if int(n) ** 2 >= 2 ** 63:
        raise ValueError("n too large: edge keys u*n + v overflow int64")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise ValueError("edge index out of range")
        loops = edges[:, 0] == edges[:, 1]
        if loops.any():
            bad = edges[loops][0]
            raise ValueError(f"self-loop ({bad[0]},{bad[0]}) rejected")
    if edges.size == 0:
        return SparseGraph(n=n, row_ptr=np.zeros(n + 1, dtype=np.int64),
                           col_idx=np.zeros(0, dtype=np.int64))
    # Entry (u, v) of both directions as the one key u*n + v, written into
    # one array; sorted keys are in CSR order.
    m, u, v = edges.shape[0], edges[:, 0], edges[:, 1]
    key = np.empty(2 * m, dtype=np.int64)
    np.multiply(u, n, out=key[:m])
    key[:m] += v
    np.multiply(v, n, out=key[m:])
    key[m:] += u
    key.sort()
    key = _distinct(key)
    row_ptr = np.searchsorted(key, np.arange(n + 1) * n)
    return SparseGraph(n=n, row_ptr=row_ptr,
                       col_idx=np.remainder(key, n, out=key))


def normalized_adjacency(g: SparseGraph) -> PropagationMatrix:
    """Degree-normalized adjacency with self-loops.

    Entry (i, j) of the result is (A + I)_ij / sqrt((d_i + 1)(d_j + 1));
    isolated nodes get a diagonal entry of exactly 1.  The CSR of D(A + I)D
    is written directly: row i holds its neighbours below i, then i, then
    those above, and entry (i, j) is the one product s_i s_j with
    s = 1 / sqrt(d + 1).
    """
    n = g.n
    deg = g.degrees
    inv_sqrt = 1.0 / np.sqrt(deg.astype(np.float64) + 1.0)
    rows = np.repeat(np.arange(n), deg)
    below = np.bincount(rows[g.col_idx < rows], minlength=n)
    row_ptr = g.row_ptr + np.arange(n + 1)
    diag = row_ptr[:-1] + below
    off_diag = np.ones(row_ptr[-1], dtype=bool)
    off_diag[diag] = False
    col_idx = np.empty(row_ptr[-1], dtype=np.int64)
    col_idx[diag] = np.arange(n)
    col_idx[off_diag] = g.col_idx
    values = inv_sqrt[np.repeat(np.arange(n), deg + 1)] * inv_sqrt[col_idx]
    return PropagationMatrix.from_csr(n, row_ptr, col_idx, values)


def adjacency_inf_norm(g: SparseGraph) -> float:
    """``normalized_adjacency(g).inf_norm`` up to rounding, without forming
    the operator: row i of D(A + I)D sums to s_i (s_i + sum_j s_j) over the
    neighbours j of i, with s = 1 / sqrt(d + 1)."""
    if g.n == 0:
        return 0.0
    deg = g.degrees
    inv_sqrt = 1.0 / np.sqrt(deg.astype(np.float64) + 1.0)
    sums = inv_sqrt.copy()
    busy = deg > 0  # reduceat would give an empty row its next entry
    sums[busy] += np.add.reduceat(inv_sqrt[g.col_idx], g.row_ptr[:-1][busy])
    return float((inv_sqrt * sums).max())


def inf_norm_power(p: PropagationMatrix, k: int) -> float:
    """Infinity norm of P^k via k sparse mat-vec products on the ones vector.

    Exact for nonnegative P; the power matrix itself is never formed.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if p.n == 0:
        return 1.0
    return float(gpr_powers(p, np.ones(p.n), k)[k].max())


def degree_bound(s: DegreeStats) -> float:
    """Closed-form bound sqrt((deg_max + 1) / (deg_min + 1)) on the norm."""
    return float(np.sqrt((s.deg_max + 1.0) / (s.deg_min + 1.0)))


def appnp_coefficients(gamma: float, big_k: int) -> np.ndarray:
    """Filter coefficients [gamma*(1-gamma)^k for k<K] + [(1-gamma)^K]."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    if big_k < 1:
        raise ValueError("K must be >= 1")
    coeff = np.array([gamma * (1.0 - gamma) ** k for k in range(big_k)]
                     + [(1.0 - gamma) ** big_k])
    return coeff


def appnp_filter(p: PropagationMatrix, gamma: float, big_k: int) -> PropagationMatrix:
    """Materialized teleport-style polynomial filter (small-graph path).

    Built by Horner recursion B <- gamma*I + (1-gamma)*P B so only partial
    filters, never raw powers, are formed.  B is dense (n is small); its
    entries are those of the same recursion on sparse matrices, whose
    structural zeros only drop terms that add 0.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    if big_k < 1:
        raise ValueError("K must be >= 1")
    if p.n > FILTER_MATERIALIZE_LIMIT:
        raise ValueError("graph too large to materialize filter; use appnp_apply")
    eye = np.eye(p.n)
    b = eye
    for _ in range(big_k):
        b = gamma * eye + (1.0 - gamma) * p.matmat(b)
    rows, cols = np.nonzero(b)
    row_ptr = np.zeros(p.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=p.n), out=row_ptr[1:])
    return PropagationMatrix.from_csr(p.n, row_ptr, cols, b[rows, cols])


def appnp_apply(p: PropagationMatrix, gamma: float, big_k: int,
                x: np.ndarray) -> np.ndarray:
    """Lazy application of the teleport filter, sum_k c_k P^k X with the
    ``appnp_coefficients``: K mat-mat products, no fill-in."""
    return np.tensordot(appnp_coefficients(gamma, big_k),
                        gpr_powers(p, x, big_k), axes=(0, 0))


def gpr_powers(p: PropagationMatrix, x: np.ndarray, big_k: int) -> np.ndarray:
    """Stack [X, PX, P^2 X, ..., P^K X], each from one mat-mat on the previous."""
    if big_k < 0:
        raise ValueError("K must be >= 0")
    if x.shape[0] != p.n:
        raise ValueError(f"dimension mismatch: X has {x.shape[0]} rows, P is {p.n}")
    out = np.empty((big_k + 1,) + x.shape, dtype=np.float64)
    out[0] = x
    for k in range(1, big_k + 1):
        out[k] = p.matmat(out[k - 1])
    return out


def drop_edge(g: SparseGraph, prob: float, seed: int) -> SparseGraph:
    """Remove each undirected edge independently with probability ``prob``."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError("drop probability must be in [0, 1]")
    edges = g.undirected_edges()
    if edges.shape[0] == 0:
        return g
    rng = stream(seed, "drop_edge")
    keep = rng.random(edges.shape[0]) >= prob
    return build_graph(edges[keep], g.n)


def sbm_generate(sizes, p_in: float, p_out: float, seed: int,
                 ) -> tuple[SparseGraph, np.ndarray]:
    """Planted-partition graph with block labels.

    Each pair (i < j) gets an edge with probability p_in inside a block and
    p_out across blocks.  Deterministic given the seed: pair (i, j) compares
    the uniform made from 64-bit word i*n + j of the seed's "sbm" Philox
    stream, the (i, j) entry of one (n, n) draw, so the same seed yields
    nested edge sets as probabilities grow.  Only the n(n-1)/2 words of the
    pairs are made: Philox skips whole 4-word blocks in O(1).
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) == 0:
        raise ValueError("block size list must be nonempty")
    if any(s <= 0 for s in sizes):
        raise ValueError("block sizes must be positive")
    for p in (p_in, p_out):
        if not 0.0 <= p <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes).astype(np.int64)
    rng = stream(seed, "sbm")
    buf = np.empty(n + 3)
    prob = np.full(n, p_out)  # entry j: the probability of pair (i, j)
    pos = 0  # words of the stream used so far
    # the edges found so far, edges[:m]; ndarray.resize reallocates the
    # one buffer, so it grows by doubling without a second array, and the
    # last resize returns the unused tail
    edges, m = np.empty((n, 2), dtype=np.int64), 0
    first = 0
    for size in sizes:
        prob[first:first + size] = p_in  # the rows i of this block
        for i in range(first, min(first + size, n - 1)):
            start = i * n + i + 1  # the word of pair (i, i + 1)
            made = -(-pos // 4) * 4  # words of the blocks made so far
            if start >= made:  # skip whole blocks; advance() also drops
                # the unread words of the last one, so a block starts here
                rng.bit_generator.advance(start // 4 - made // 4)
                pos = start - start % 4
            u = buf[:start + n - i - 1 - pos]
            rng.random(out=u)
            u = u[start - pos:]
            pos = start + u.size
            hits = (u < prob[i + 1:]).nonzero()[0]
            if m + hits.size > edges.shape[0]:
                edges.resize((max(2 * edges.shape[0], m + hits.size), 2),
                             refcheck=False)
            edges[m:m + hits.size, 0] = i
            np.add(hits, i + 1, out=edges[m:m + hits.size, 1])
            m += hits.size
        prob[first:first + size] = p_out
        first += size
    edges.resize((m, 2), refcheck=False)
    return build_graph(edges, n), labels
