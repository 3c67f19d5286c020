"""Model descriptors, flat parameter vectors, and forward passes.

Five architectures share one interface: a spec naming the architecture and
its dimensions, a flat float64 parameter vector with a fixed column-major
(per-column stacking) layout, and a forward pass that caches every
intermediate the analytic gradients need.  gcn, sgc and gcnii run layer l
on a row set S_l (``PropOps.row_sets``): S_L holds the nodes whose logits
are asked for, S_{l-1} the rows that P[S_l, :] reads, and a set that holds
more than half the nodes is every node.  A ``PropOps`` keeps what a
forward computes that does not depend on w: the row sets and sparse blocks
of each drawn node, and the products P X and P^2 X that the first layer of
every gcn and sgc forward reads (``PropOps.x_products``).  appnp and
gprgnn compute their node-wise MLP on every node; a whole-graph forward
also forms the filter product (a weighted ``gpr_powers`` stack), which no
training step reads.  A forward computes everything it returns at once.

Architectures (P is the normalized adjacency, sigma the smoothed ReLU):

  gcn     softmax( P sigma(P X W1) W2 ),  extendable to more layers
  sgc     softmax( P^2 X W1 W2 )
  gcnii   H0 = sigma(X W0);  H_l = sigma(((1-a_l) P H_{l-1} + a_l H0) Psi_l)
          with Psi_l = (1-b_l) I + b_l W_l;  softmax(H_L W_out)
  appnp   softmax( F sigma(sigma(X W1) W2) ) with F the teleport filter
  gprgnn  softmax( sum_k gamma_k P^k sigma(sigma(X W1) W2) )

The gprgnn display is read with a softmax so the cross-entropy gradient has
the same (probs - onehot) form as the other four models.  Bias terms are
omitted everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .activations import ActivationSpec, act_eval
from .graphs import (FILTER_MATERIALIZE_LIMIT, PropagationMatrix, appnp_apply,
                     appnp_coefficients, appnp_filter, csr_product,
                     gpr_powers, unique_sorted)
from .rng import stream

ARCHITECTURES = ("gcn", "gcnii", "sgc", "appnp", "gprgnn")

# The row set of a layer that runs on every node.
ALL = slice(None)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor: dimensions, activation, hyperparameters.

    ``depth`` counts propagation layers and only applies to gcn / gcnii
    (default 2, the setting with constant certificates; deeper stacks are
    for the depth experiment only).  gcnii with depth > 2 uses alpha1 for
    every layer and the decaying identity-map weights beta1 / layer_index.
    """

    arch: str
    d: int
    h: int
    num_classes: int
    activation: ActivationSpec
    alpha1: float = 0.1
    alpha2: float = 0.1
    beta1: float = 0.5
    beta2: float = 0.25
    gamma: float = 0.1
    big_k: int = 10
    depth: int = 2

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if min(self.d, self.h, self.num_classes) <= 0:
            raise ValueError("all dimensions must be positive")
        for name in ("alpha1", "alpha2", "beta1", "beta2", "gamma"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.arch in ("appnp", "gprgnn") and self.big_k < 1:
            raise ValueError("appnp and gprgnn need K >= 1")
        if self.depth < 2:
            raise ValueError("depth must be >= 2")
        if self.depth != 2 and self.arch not in ("gcn", "gcnii"):
            raise ValueError("only gcn/gcnii support depth != 2")

    def gcnii_alphas(self) -> tuple[float, ...]:
        if self.depth == 2:
            return (self.alpha1, self.alpha2)
        return (self.alpha1,) * self.depth

    def gcnii_betas(self) -> tuple[float, ...]:
        if self.depth == 2:
            return (self.beta1, self.beta2)
        return tuple(self.beta1 / l for l in range(1, self.depth + 1))

    def receptive_hops(self) -> int | None:
        """Hops of P between a node's logits and the inputs they read.

        None for appnp and gprgnn: their K-step filters reach most of any
        connected graph, so their forward runs on every node.
        """
        if self.arch in ("gcn", "gcnii"):
            return self.depth
        if self.arch == "sgc":
            return 2
        return None

    def x_hops(self) -> int:
        """Hops of P that the first layer reads from products of X alone
        (``PropOps.x_products``): P X for gcn, P^2 X for sgc."""
        return {"gcn": 1, "sgc": 2}.get(self.arch, 0)

    def activation_width(self) -> int:
        """Largest vector width the nonlinearity is applied to."""
        if self.arch in ("appnp", "gprgnn"):
            return max(self.h, self.num_classes)
        return self.h


@dataclass(frozen=True)
class ParamLayout:
    """Named blocks of the flat parameter vector, in a fixed order.

    Matrix blocks are stored column-by-column (the column-stacking vec
    convention); vector blocks are stored as-is.
    """

    blocks: tuple[tuple[str, tuple[int, ...]], ...]
    offsets: tuple[int, ...] = field(init=False)
    dim: int = field(init=False)
    # name -> (slice of the flat vector, block shape)
    _table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        offs, table, total = [], {}, 0
        for name, shape in self.blocks:
            size = math.prod(shape)
            offs.append(total)
            table[name] = (slice(total, total + size), shape)
            total += size
        object.__setattr__(self, "offsets", tuple(offs))
        object.__setattr__(self, "dim", total)
        object.__setattr__(self, "_table", table)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.blocks)

    def slice_of(self, name: str) -> slice:
        return self._table[name][0]

    def view(self, w: np.ndarray, name: str) -> np.ndarray:
        """Matrix (or vector) view of one block; writes go through to w."""
        block, shape = self._table[name]
        if len(shape) == 1:
            return w[block]
        return w[block].reshape(shape, order="F")

    def matrices(self, w: np.ndarray) -> dict[str, np.ndarray]:
        return {name: self.view(w, name) for name, _ in self.blocks}


@cache
def layout_for(spec: ModelSpec) -> ParamLayout:
    """The parameter layout of a spec, built once per distinct spec."""
    d, h, c = spec.d, spec.h, spec.num_classes
    if spec.arch == "gcn":
        blocks = [("W1", (d, h))]
        blocks += [(f"W{l}", (h, h)) for l in range(2, spec.depth)]
        blocks += [(f"W{spec.depth}", (h, c))]
    elif spec.arch == "sgc" or spec.arch == "appnp":
        blocks = [("W1", (d, h)), ("W2", (h, c))]
    elif spec.arch == "gprgnn":
        blocks = [("W1", (d, h)), ("W2", (h, c)), ("gamma", (spec.big_k + 1,))]
    else:  # gcnii
        blocks = [("W0", (d, h))]
        blocks += [(f"W{l}", (h, h)) for l in range(1, spec.depth + 1)]
        blocks += [(f"W{spec.depth + 1}", (h, c))]
    return ParamLayout(blocks=tuple(blocks))


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) entries, drawn in vec order.

    The gprgnn coefficient block starts at the teleport-filter coefficients
    with restart weight 0.1 (the standard initialization), which also makes
    the constant comparison against appnp meaningful at step 0.

    Plain stacks deeper than two layers get a sqrt(6) gain (He-style
    variance preservation): under the rectifier-family unit, the fan-in
    bound contracts activations by about 1/3 per layer, leaving a six-layer
    stack numb at any reachable feature scale.  The identity-mapping
    architecture does not need the correction at depth: its residual path
    preserves scale by construction.
    """
    layout = layout_for(spec)
    rng = stream(seed, "init")
    gain = np.sqrt(6.0) if (spec.depth > 2 and spec.arch == "gcn") else 1.0
    w = np.empty(layout.dim, dtype=np.float64)
    for (name, shape), off in zip(layout.blocks, layout.offsets):
        size = math.prod(shape)
        if name == "gamma":
            w[off:off + size] = appnp_coefficients(0.1, spec.big_k)
        else:
            bound = gain / np.sqrt(shape[0])
            w[off:off + size] = rng.uniform(-bound, bound, size=size)
    return w


class PropOps:
    """Per-(graph, spec) propagation helpers shared by forward and gradients.

    It also keeps, once built, what a step computes that does not depend on
    w: the plan (``row_sets``) of each drawn node, and the products of X
    that gcn's and sgc's first layer read (``x_products``).
    """

    def __init__(self, p: PropagationMatrix, spec: ModelSpec):
        self.p = p
        self.spec = spec
        self._stores_filter = (spec.arch == "appnp"
                               and p.n <= FILTER_MATERIALIZE_LIMIT)
        self._plans: dict = {}
        # Set members and link nonzeros the kept plans may hold: L n x h
        # arrays' worth, no more than the hidden arrays a whole-graph
        # forward keeps, so memory stays linear in n.
        self.plan_room = (spec.receptive_hops() or 0) * p.n * spec.h
        self.plan_entries = 0
        self._x = self._xp = None

    @property
    def n(self) -> int:
        return self.p.n

    @cached_property
    def filter(self) -> PropagationMatrix | None:
        """appnp's teleport filter as a matrix, built on first read, where
        the graph had at most ``FILTER_MATERIALIZE_LIMIT`` nodes when this
        ``PropOps`` was made; None otherwise.  No command reads it: steps
        and scans read a filter row from ``power_row``."""
        if not self._stores_filter:
            return None
        return appnp_filter(self.p, self.spec.gamma, self.spec.big_k)

    def propagate(self, m: np.ndarray) -> np.ndarray:
        return self.p.matmat(m)

    def x_products(self, x: np.ndarray) -> list[np.ndarray]:
        """[X, P X, ..., P^u X], u = ``spec.x_hops()``, of the X last given,
        built by ``propagate``; a new array (by identity) rebuilds it.  The
        first layer of every forward reads the last entry."""
        if x is not self._x:
            xp = [x]
            for _ in range(self.spec.x_hops()):
                xp.append(self.propagate(xp[-1]))
            self._x, self._xp = x, xp
        return self._xp

    def appnp_row(self, i: int) -> np.ndarray:
        """Dense row i of the teleport filter (filters are symmetric), from
        the stored ``filter`` if any; no command calls it."""
        f = self.filter
        if f is not None:
            row = np.zeros(self.n)
            lo, hi = f.row_ptr[i], f.row_ptr[i + 1]
            row[f.col_idx[lo:hi]] = f.values[lo:hi]
            return row
        e = np.zeros(self.n)
        e[i] = 1.0
        return appnp_apply(self.p, self.spec.gamma, self.spec.big_k, e)

    def row_link(self, rows) -> tuple:
        """(S', link) for a row set S: S' is S with the column support of
        P[S, :] (sorted), and the link is the block P[S, S'] with P's
        values, as the CSR arguments (ptr, cols, vals, shape) of
        ``csr_product``.  S' is ``ALL`` once it holds more than half the
        nodes; S = ``ALL`` gives (``ALL``, None), the whole graph.
        """
        if isinstance(rows, slice):
            return ALL, None
        p = self.p
        starts = p.row_ptr[rows]
        counts = p.row_ptr[rows + 1] - starts
        ptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        pos = np.repeat(starts - ptr[:-1], counts) + np.arange(ptr[-1])
        cols = p.col_idx[pos]
        below = unique_sorted(np.concatenate([rows, cols]))
        if below.size > self.n / 2:
            below, local, width = ALL, cols, self.n
        else:
            local, width = np.searchsorted(below, cols), below.size
        return below, (ptr, local, p.values[pos], (rows.size, width))

    def row_sets(self, rows) -> tuple[list, list]:
        """The plan of the logits of the nodes ``rows``: lists ``sets`` and
        ``links`` indexed by layer, for layers u..L with u = ``spec.x_hops()``
        and L = ``spec.receptive_hops()``.  ``sets[l]`` is the row set S_l
        and ``links[l]`` the link P[S_l, S_{l-1}] of ``row_link``; entries
        below u are None, as is ``links[u]``: the layers up to u read
        products of X (``x_products``).  S_L holds the distinct nodes
        (``ALL`` for None or more than half the nodes), the sets below
        follow from ``row_link``.

        The plan of one node (``rows`` of length 1) is built once and kept,
        until the kept plans hold ``plan_room`` set members and link
        nonzeros; any other plan is built at every call.  Callers must not
        change what it returns.
        """
        key = None if rows is None or len(rows) != 1 else int(rows[0])
        if key in self._plans:
            return self._plans[key]
        hops, u = self.spec.receptive_hops(), self.spec.x_hops()
        top = ALL if rows is None else unique_sorted(rows)
        if top is not ALL and top.size > self.n / 2:
            top = ALL
        sets, links = [None] * (hops + 1), [None] * (hops + 1)
        sets[hops] = top
        for l in range(hops, u, -1):
            sets[l - 1], links[l] = self.row_link(sets[l])
        if key is not None:
            size = (sum(s.size for s in sets[u:] if s is not ALL)
                    + sum(link[2].size for link in links if link is not None))
            if self.plan_entries + size <= self.plan_room:
                self._plans[key] = sets, links
                self.plan_entries += size
        return sets, links

    def propagate_link(self, link, m: np.ndarray,
                       transpose: bool = False) -> np.ndarray:
        """P[S, S'] @ m through a ``row_link`` link, or P[S, S']^T @ m with
        ``transpose``; the whole-graph ``propagate`` for link None (P is
        symmetric)."""
        if link is None:
            return self.propagate(m)
        return csr_product(*link, m, transpose=transpose)

    def power_row(self, i: int, big_k: int) -> np.ndarray:
        """Stack of rows [P^k]_{i*} for k = 0..K (P symmetric)."""
        rows = np.zeros((big_k + 1, self.n))
        rows[0, i] = 1.0
        for k in range(1, big_k + 1):
            rows[k] = self.p.matmat(rows[k - 1])
        return rows


def positions(held, rows):
    """Where the nodes ``rows`` sit in an array held on the row set
    ``held``; ``rows`` lies inside ``held``."""
    return rows if held is ALL else np.searchsorted(held, rows)


class ForwardCache:
    """The intermediates the backward pass reads, plus the ``logits`` and
    their row softmax ``probs``.  Every model keeps ``sps``, sigma' of each
    pre-activation, bottom up, and no pre-activation.  gcn, sgc and gcnii
    also keep the ``sets`` and ``links`` of ``PropOps.row_sets``, and
    nothing more: layer l's arrays hold the rows of ``sets[l]``, and the
    first layer reads its rows of ``PropOps.x_products``.  gcn keeps its L
    layer inputs ``zs`` and L - 1 ``sps``; sgc ``z`` and ``zw1``; gcnii
    L + 1 ``sps``, L aggregates ``aggs`` and mixing matrices ``psis``, and
    only the top hidden state, ``h_top``.  appnp and gprgnn keep the MLP's
    ``s1``, output ``h`` and two ``sps``, and the filter coefficients
    ``gamma`` (gprgnn's copied block, appnp's ``appnp_coefficients``); a
    whole-graph forward adds the power ``stack`` [h, P h, ..., P^K h].
    ``buf`` is the ``Buffers`` the forward was given, or None."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


class Buffers:
    """The n x h arrays one ``run_sgd`` call creates once and gives to every
    forward it runs; the forward keeps them on its cache (``cache.buf``),
    where the backward passes take their scratch.  Three groups: ``sps``,
    the n x h sigma' arrays; ``keep``, gcnii's top hidden state, sgc's P^2
    X W1 or the filter models' first MLP output; ``tmp``, scratch.  n x c
    arrays stay new (lent, none saved a fault), as do gcn's activation
    scratch and gcnii's first backward product (lent, each would sit idle
    at its pass's peak).  A cache made from the buffers is valid until the
    next forward given them; a pass on k < n rows takes views of their
    first k rows (``lend``).
    """

    def __init__(self, spec: ModelSpec, n: int):
        counts = {"gcn": (spec.depth - 1, 0, 1), "sgc": (0, 1, 1),
                  "gcnii": (spec.depth + 1, 1, 2)}.get(spec.arch, (1, 1, 1))
        self.groups = {name: [np.empty((n, spec.h)) for _ in range(count)]
                       for name, count in zip(("sps", "keep", "tmp"), counts)}


def lend(buf: Buffers | None, group: str, k: int, rows: int):
    """The first ``rows`` rows of array k of a ``Buffers`` group, as an
    ``out`` argument; None without buffers, so numpy allocates."""
    return None if buf is None else buf.groups[group][k][:rows]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted stable softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(p):
    """The cross-entropy -log p of the probabilities ``p`` (a scalar or an
    array) that rows give their labels; p is clamped so the loss is finite."""
    return -np.log(np.maximum(p, 1e-12))


def logit_error(probs: np.ndarray, labels) -> np.ndarray:
    """probs - onehot(labels), the cross-entropy's gradient in the logits,
    as a new array: ``probs`` is one row (1-D) or a stack of rows."""
    err = np.array(probs)
    rows = err.reshape(-1, err.shape[-1])
    rows[np.arange(rows.shape[0]), labels] -= 1.0
    return err


def softmax_xent(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Stable cross-entropy of one logit row, and its probabilities."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < logits.shape[-1]:
        raise ValueError(f"label {label} out of range")
    probs = softmax_rows(logits)
    return cross_entropy(probs[label]), probs


def _check_finite(arr: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {where}")


def _activate(act: ActivationSpec, a: np.ndarray, b: np.ndarray, sps: list,
              buf: Buffers | None, out: tuple | None,
              tmp: tuple | None) -> np.ndarray:
    """sigma(a @ b).  The product goes to the next ``sps`` buffer, where
    sigma' overwrites it, and is appended to ``sps``; sigma goes to the
    buffer ``out``, and the activation's scratch to ``tmp``, each a (group,
    k) of ``buf`` or None.  Without buffers all three are new arrays.
    sigma' in an array of its own left a hole in glibc's heap: a 6000-node
    gcnii ``train`` peaked one n x h array (3 MB) higher."""
    rows = a.shape[0]
    pre = np.matmul(a, b, out=lend(buf, "sps", len(sps), rows))
    out = act_eval(act, pre, deriv=pre, out=out and lend(buf, *out, rows),
                   tmp=tmp and lend(buf, *tmp, rows))
    sps.append(pre)
    return out


def forward(spec: ModelSpec, ops: PropOps, x: np.ndarray, w: np.ndarray,
            rows: np.ndarray | None = None,
            buf: Buffers | None = None) -> ForwardCache:
    """Forward pass that caches every gradient intermediate.

    gcn, sgc and gcnii run each layer on the row set that the logits of
    the nodes ``rows`` read (every node for None; see ``PropOps.row_sets``).
    appnp and gprgnn compute the node-wise MLP on every node; with ``rows``
    they stop there, since a step's gradient reads one filter row
    (``grad_sample``), and without they form every node's logits.  With
    ``buf`` its n x h products, activations and scratch go to those
    ``Buffers``, which the cache keeps for its backward passes; sparse
    products and n x c arrays are new.
    """
    if x.shape != (ops.n, spec.d):
        raise ValueError(f"X has shape {x.shape}, expected {(ops.n, spec.d)}")
    layout = layout_for(spec)
    if w.shape != (layout.dim,):
        raise ValueError(f"w has length {w.shape}, expected {layout.dim}")
    mats = layout.matrices(w)
    act = spec.activation

    sps = []
    if spec.arch in ("appnp", "gprgnn"):
        s1 = _activate(act, x, mats["W1"], sps, buf, ("keep", 0), ("tmp", 0))
        h = _activate(act, s1, mats["W2"], sps, None, None, None)  # n x c
        _check_finite(h, f"{spec.arch} MLP output")
        if spec.arch == "appnp":
            gamma = appnp_coefficients(spec.gamma, spec.big_k)
        else:  # a copy: w may change in place after return
            gamma = mats["gamma"].copy()
        _check_finite(gamma, f"{spec.arch} filter coefficients")
        cache = ForwardCache(gamma=gamma, s1=s1, h=h, sps=sps, buf=buf)
        if rows is not None:
            return cache
        cache.stack = gpr_powers(ops.p, h, spec.big_k)
        logits = np.tensordot(gamma, cache.stack, axes=(0, 0))
    else:
        sets, links = ops.row_sets(rows)
        z = ops.x_products(x)[-1][sets[spec.x_hops()]]
        cache = ForwardCache(sps=sps, sets=sets, links=links, buf=buf)
    if spec.arch == "gcn":
        zs = [z]
        for l in range(1, spec.depth):
            zs.append(ops.propagate_link(links[l + 1], _activate(
                act, zs[-1], mats[f"W{l}"], sps, buf, ("tmp", 0), None)))
        logits = zs[-1] @ mats[f"W{spec.depth}"]
        cache.zs = zs
    elif spec.arch == "sgc":
        zw1 = np.matmul(z, mats["W1"], out=lend(buf, "keep", 0, len(z)))
        logits = zw1 @ mats["W2"]
        cache.z, cache.zw1 = z, zw1
    elif spec.arch == "gcnii":
        alphas, betas = spec.gcnii_alphas(), spec.gcnii_betas()
        # H_0 sits in tmp 0 until the top layer; each H_l overwrites keep 0
        # once the next layer has propagated it
        h0 = h = _activate(act, z, mats["W0"], sps, buf, ("tmp", 0),
                           ("tmp", 1))
        aggs, psis = [], []
        for l in range(1, spec.depth + 1):
            a_l, b_l = alphas[l - 1], betas[l - 1]
            agg = ops.propagate_link(links[l], h)
            agg *= 1.0 - a_l
            agg += np.multiply(a_l, h0[positions(sets[0], sets[l])],
                               out=lend(buf, "tmp", 1, len(agg)))
            # C order: BLAS takes another path, and other bytes, for F
            psi = np.multiply(b_l, mats[f"W{l}"], order="C")
            psi.flat[::spec.h + 1] += 1.0 - b_l
            h = _activate(act, agg, psi, sps, buf, ("keep", 0), ("tmp", 1))
            aggs.append(agg)
            psis.append(psi)
        logits = h @ mats[f"W{spec.depth + 1}"]
        cache.h_top, cache.aggs, cache.psis = h, aggs, psis

    _check_finite(logits, f"{spec.arch} logits")
    cache.logits, cache.probs = logits, softmax_rows(logits)
    return cache


def preactivations(spec: ModelSpec, x: np.ndarray, w: np.ndarray,
                   cache: ForwardCache) -> list[np.ndarray]:
    """The pre-activations of the forward that made ``cache``, bottom up,
    recomputed from it: ``cache.sps`` holds sigma' of each.  sgc has
    none.  Only gradcheck's kink test reads them."""
    mats = layout_for(spec).matrices(w)
    if spec.arch == "gcn":
        return [cache.zs[l - 1] @ mats[f"W{l}"] for l in range(1, spec.depth)]
    if spec.arch == "gcnii":
        return [x[cache.sets[0]] @ mats["W0"]] + [
            agg @ psi for agg, psi in zip(cache.aggs, cache.psis)]
    if spec.arch == "sgc":
        return []
    return [x @ mats["W1"], cache.s1 @ mats["W2"]]


def kink_distance(spec: ModelSpec, x: np.ndarray, w: np.ndarray,
                  cache: ForwardCache) -> float:
    """Smallest |pre-activation| of the forward that made ``cache``; inf
    for sgc.  The unit's derivative is only (q - 1)-Hoelder at 0, so below
    q = 1.5 gradient checks resample an instance whose distance is
    <= 1e-4."""
    return min((float(np.min(np.abs(pre)))
                for pre in preactivations(spec, x, w, cache)),
               default=math.inf)


def loss_sample(spec: ModelSpec, ops: PropOps, x: np.ndarray, w: np.ndarray,
                i: int, label: int) -> float:
    return cross_entropy(forward(spec, ops, x, w).probs[i, label])


def _sidecar(layout: ParamLayout) -> dict:
    """The JSON layout sidecar that describes a parameter file."""
    return {
        "dtype": "<f8",
        "order": "columns",
        "dim": layout.dim,
        "blocks": [{"name": name, "shape": list(shape), "offset": off}
                   for (name, shape), off in zip(layout.blocks,
                                                 layout.offsets)],
    }


def save_params(spec: ModelSpec, w: np.ndarray, path) -> None:
    """Write w as raw little-endian float64 plus a JSON layout sidecar."""
    layout = layout_for(spec)
    if w.shape != (layout.dim,):
        raise ValueError("parameter vector does not match the layout")
    path = Path(path)
    w.astype("<f8").tofile(path)
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(_sidecar(layout), sort_keys=True) + "\n")


def load_params(spec: ModelSpec, path) -> np.ndarray:
    """Read a parameter vector written by save_params.  The file's whole
    sidecar must equal the spec's: dtype, order, dim, and each block's
    name, shape and offset, so a layout of the same length is rejected."""
    layout = layout_for(spec)
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    expected = _sidecar(layout)
    if sidecar != expected:
        raise ValueError(f"layout mismatch: file has {sidecar}, spec needs "
                         f"{expected}")
    w = np.fromfile(path, dtype="<f8")
    if w.shape != (layout.dim,):
        raise ValueError("raw parameter file has the wrong length")
    return w.astype(np.float64)
