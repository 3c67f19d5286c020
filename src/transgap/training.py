"""Single-draw stochastic training on a transductive split, with tracing.

The update loop draws indices uniformly with replacement from the training
set, steps along the mean of the drawn samples' gradients (batch size 1 is
the plain single-draw recursion), and records a checkpoint row every
``eval_every`` steps and at the final step.  Only training labels are ever
read by the update path; test labels enter exclusively through checkpoint
evaluation.
"""

from __future__ import annotations

import io
import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .datasets import Split
from .gradients import grad_mean, grad_sample
from .models import (Buffers, ForwardCache, ModelSpec, PropOps, cross_entropy,
                     forward, init_params, layout_for)
from .rng import stream

CSV_HEADER = "t,R_m,R_u,acc_m,acc_u,grad_gap,dist,g_emp"


@dataclass(frozen=True)
class LrSchedule:
    """Step sizes: c / (t + t0) for inverse_time, or constant c."""

    kind: str = "inverse_time"
    c: float = 1.0
    t0: float = 0.0

    def __post_init__(self):
        if self.kind not in ("inverse_time", "constant"):
            raise ValueError("schedule kind must be inverse_time or constant")
        if not 0.0 <= self.t0 < math.inf:
            raise ValueError("t0 must be finite and >= 0")
        if self.kind == "inverse_time" and not self.c > 0.0:
            raise ValueError("inverse-time schedule needs c > 0")
        if not 0.0 <= self.c < math.inf:
            raise ValueError("c must be finite and >= 0")

    def eta(self, t: int) -> float:
        if self.kind == "constant":
            return self.c
        return self.c / (t + self.t0)

    def eta_sum(self, big_t: int) -> float:
        """Sum of eta_t over t = 1..T (harmonic partial sum for inverse time)."""
        return float(sum(self.eta(t) for t in range(1, big_t + 1)))


@dataclass(frozen=True)
class SgdConfig:
    big_t: int
    seed: int
    batch_size: int = 1
    schedule: LrSchedule = field(default_factory=LrSchedule)
    optimizer: str = "vanilla_sgd"
    eval_every: int = 10
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.big_t < 1:
            raise ValueError("T must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.optimizer not in ("vanilla_sgd", "adam"):
            raise ValueError("optimizer must be vanilla_sgd or adam")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")


@dataclass(frozen=True)
class Checkpoint:
    """One evaluation row; g_emp is the running max over every step so far
    of sqrt(eta_t) * ||per-sample gradient||, i.e. the empirical step-size
    weighted gradient bound (measured, never assumed)."""

    t: int
    r_m: float
    r_u: float
    acc_m: float
    acc_u: float
    grad_gap: float
    dist: float
    g_emp: float


@dataclass
class TrainTrace:
    """Checkpoint rows plus whole-run extrema used by the certificates."""

    checkpoints: list[Checkpoint] = field(default_factory=list)
    max_dist: float = 0.0
    g_emp: float = 0.0

    def to_csv(self) -> str:
        rows = np.array([astuple(cp) for cp in self.checkpoints], dtype=float)
        buf = io.StringIO()
        np.savetxt(buf, rows.reshape(-1, 8), fmt=["%d"] + ["%.17g"] * 7,
                   delimiter=",", header=CSV_HEADER, comments="")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "TrainTrace":
        """Read ``to_csv``'s text.  ``dist`` is sampled at checkpoints, so
        the run's radius (its max over every step) is unknown: nan."""
        lines = [ln for ln in text.strip().splitlines() if ln]
        if lines[0] != CSV_HEADER:
            raise ValueError("unexpected trace header")
        trace = TrainTrace(max_dist=math.nan)
        for ln in lines[1:]:
            parts = ln.split(",")
            cp = Checkpoint(int(parts[0]), *(float(p) for p in parts[1:]))
            trace.checkpoints.append(cp)
        if trace.checkpoints:
            trace.g_emp = trace.checkpoints[-1].g_emp
        return trace


def evaluate(spec: ModelSpec, ops: PropOps, x: np.ndarray, labels: np.ndarray,
             split: Split, w: np.ndarray,
             cache: ForwardCache | None = None) -> tuple[float, float, float, float]:
    """Mean loss and accuracy over the train and test index sets.

    Accuracy uses argmax with lowest-index tie-break.
    """
    if cache is None:
        cache = forward(spec, ops, x, w)
    losses = cross_entropy(cache.probs[np.arange(ops.n), labels])
    hits = np.argmax(cache.probs, axis=1) == labels
    return (float(np.mean(losses[split.train_idx])),
            float(np.mean(losses[split.test_idx])),
            float(np.mean(hits[split.train_idx])),
            float(np.mean(hits[split.test_idx])))


def gradient_gap(spec: ModelSpec, ops: PropOps, x: np.ndarray,
                 labels: np.ndarray, split: Split, w: np.ndarray,
                 cache: ForwardCache | None = None) -> float:
    """2-norm of (mean train gradient - mean test gradient).

    One backward pass over the signed errors: train rows weigh 1/m, test
    rows -1/u.  The two sets are disjoint, so no row mixes both signs."""
    idx = np.concatenate([split.train_idx, split.test_idx])
    weights = np.concatenate([np.full(split.m, 1.0 / split.m),
                              np.full(split.u, -1.0 / split.u)])
    g = grad_mean(spec, ops, x, w, idx, labels, cache=cache, weights=weights)
    return float(np.linalg.norm(g))


def schedule_offset(p_const: float, alpha: float,
                    mu: float | None = None) -> float:
    """Smallest admissible schedule offset t0 given the smoothness constant.

    Returns max((2P)^(1/alpha), 1), scaled by 2/mu when a curvature constant
    is supplied; inf when the power overflows a float.
    """
    if p_const <= 0.0:
        raise ValueError("P must be positive")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if mu is not None and not 0.0 < mu < math.inf:
        raise ValueError("mu must be positive and finite")
    try:
        base = (2.0 * p_const) ** (1.0 / alpha)
    except OverflowError:
        return math.inf
    if mu is not None:
        base *= 2.0 / mu
    return max(base, 1.0)


class _AdamState:
    """Adam with the default moment constants (0.9, 0.999, 1e-8)."""

    def __init__(self, dim: int):
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0

    def step(self, w: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
        self.t += 1
        self.m = 0.9 * self.m + 0.1 * g
        self.v = 0.999 * self.v + 0.001 * g * g
        mhat = self.m / (1.0 - 0.9 ** self.t)
        vhat = self.v / (1.0 - 0.999 ** self.t)
        return w - eta * mhat / (np.sqrt(vhat) + 1e-8)


def run_sgd(spec: ModelSpec, ops: PropOps, x: np.ndarray, labels: np.ndarray,
            split: Split, config: SgdConfig,
            w0: np.ndarray | None = None) -> tuple[np.ndarray, TrainTrace]:
    """Train from w0 (or a fresh seeded init) and trace the trajectory.

    A step reads only the logits of its drawn nodes.  gcn, sgc and gcnii
    run its forward and backward on the row sets of the drawn nodes (see
    ``PropOps.row_sets``): each layer on the rows the logits read, or on
    every node once that is more than half of them.  Steps of appnp and
    gprgnn are row-local: their forward computes only the node-wise MLP,
    and each drawn node's logits and gradient come from its own filter
    row, so the whole-graph filter product is never formed for a step.
    Checkpoints always evaluate the whole graph, and their forward is
    where appnp and gprgnn form it.

    The call gives one set of ``Buffers`` to every forward it runs, steps
    and checkpoints alike; a step on row sets takes views of their rows.

    Deterministic given (inputs, config.seed).  Aborts with a diagnostic if a
    checkpoint loss turns non-finite.
    """
    if split.n != ops.n:
        raise ValueError("split does not match graph size")
    w = init_params(spec, config.seed) if w0 is None else w0.astype(np.float64).copy()
    w_start = w.copy()
    layout = layout_for(spec)
    if w.shape != (layout.dim,):
        raise ValueError("w0 has wrong length")

    draw = stream(config.seed, "sgd_draws")
    adam = _AdamState(layout.dim) if config.optimizer == "adam" else None
    trace = TrainTrace()
    train = split.train_idx
    g_emp = 0.0
    max_dist = 0.0
    buf = Buffers(spec, ops.n)

    for t in range(1, config.big_t + 1):
        eta = config.schedule.eta(t)
        picks = train[draw.integers(0, split.m, size=config.batch_size)]
        cache = forward(spec, ops, x, w, picks, buf=buf)
        gsum = np.zeros(layout.dim)
        sqrt_eta = np.sqrt(eta)
        for j in picks:
            g_j = grad_sample(spec, ops, x, w, int(j), int(labels[j]),
                              cache=cache)
            gsum += g_j
            g_emp = max(g_emp, sqrt_eta * float(np.linalg.norm(g_j)))
        del cache  # a checkpoint forward must not find it alive
        g = gsum / config.batch_size
        if config.weight_decay > 0.0:
            g = g + config.weight_decay * w
        if adam is None:
            w = w - eta * g
        else:
            w = adam.step(w, g, eta)
        dist = float(np.linalg.norm(w - w_start))
        max_dist = max(max_dist, dist)

        if t % config.eval_every == 0 or t == config.big_t:
            cache = forward(spec, ops, x, w, buf=buf)
            r_m, r_u, acc_m, acc_u = evaluate(spec, ops, x, labels, split, w,
                                              cache=cache)
            if not (np.isfinite(r_m) and np.isfinite(r_u)):
                raise FloatingPointError(
                    f"non-finite loss at step {t}: R_m={r_m}, R_u={r_u}")
            gap = gradient_gap(spec, ops, x, labels, split, w, cache=cache)
            del cache  # nor may the next step's forward find this one
            trace.checkpoints.append(Checkpoint(
                t=t, r_m=r_m, r_u=r_u, acc_m=acc_m, acc_u=acc_u,
                grad_gap=gap, dist=dist, g_emp=g_emp))

    trace.max_dist = max_dist
    trace.g_emp = g_emp
    return w, trace
