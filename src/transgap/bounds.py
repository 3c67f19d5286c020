"""Concrete generalization-gap certificate and rate surrogates.

The certificate is the fully evaluable chain

    total = b_loss (m+u)^{3/2} / (mu)
          + 12 (m+u)^{3/2} / (mu) sqrt(dim) (sqrt(ln 3) + 1.5 sqrt(pi)) L R
          + c0 Q sqrt(min(m, u))
          + sqrt(S Q / 2 * ln(2 / delta))

with Q = 1/m + 1/u, S = (m+u) / ((m+u-1/2)(1 - 1/(2 max(m,u)))) and
c0 = sqrt(32 ln(4e) / 3).  The radius R defaults to the measured trajectory
radius max_t ||w_t - w_1||, so every reported number is computable from the
run itself ("measured-R certificate").  Rate surrogates share three classes
in the Hoelder exponent: below, at, and above one half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gradients import grad_sample
from .models import cross_entropy, forward

C0 = math.sqrt(32.0 * math.log(4.0 * math.e) / 3.0)
DUDLEY_FACTOR = math.sqrt(math.log(3.0)) + 1.5 * math.sqrt(math.pi)


def concentration_terms(m: int, u: int) -> tuple[float, float, float]:
    """(Q, S, c0) for a split of m training and u test nodes."""
    if m < 1 or u < 1:
        raise ValueError("m and u must be >= 1")
    q = 1.0 / m + 1.0 / u
    s = (m + u) / ((m + u - 0.5) * (1.0 - 1.0 / (2.0 * max(m, u))))
    return q, s, C0


def complexity_terms(m: int, u: int, dim: int, l_f: float, radius: float,
                     b_loss: float) -> tuple[float, float]:
    """(initial-loss term, Dudley covering term); the latter is 0 at radius
    0 whatever L_F is, since a ball of radius 0 holds one function."""
    scale = (m + u) ** 1.5 / (m * u)
    dudley = (0.0 if radius == 0.0 else
              12.0 * scale * math.sqrt(dim) * DUDLEY_FACTOR * l_f * radius)
    return b_loss * scale, dudley


def complexity_upper(m: int, u: int, dim: int, l_f: float, radius: float,
                     b_loss: float) -> float:
    """Closed-form complexity bound: initial-loss term plus covering term."""
    if min(m, u, dim) < 1:
        raise ValueError("m, u, dim must be >= 1")
    for name, v in (("l_f", l_f), ("radius", radius), ("b_loss", b_loss)):
        if v < 0.0:
            raise ValueError(f"{name} must be nonnegative")
    return sum(complexity_terms(m, u, dim, l_f, radius, b_loss))


def rate_class(alpha: float) -> str:
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if alpha < 0.5:
        return "alpha_lt_half"
    if alpha == 0.5:
        return "alpha_eq_half"
    return "alpha_gt_half"


def rate_factor(alpha: float, big_t: float) -> float:
    """Iteration-count factor of the gap bound (shared by both gap rates)."""
    if big_t < 1:
        raise ValueError("T must be >= 1")
    cls = rate_class(alpha)
    log_t = math.log(big_t)
    if cls == "alpha_lt_half":
        return math.sqrt(log_t) * big_t ** ((1.0 - 2.0 * alpha) / 2.0)
    if cls == "alpha_eq_half":
        return log_t
    return math.sqrt(log_t)


@dataclass(frozen=True)
class ExcessRiskRate:
    gap_rate: float
    optimization: float

    @property
    def total(self) -> float:
        return self.gap_rate + self.optimization


def excess_risk_rate(alpha: float, big_t: float,
                     delta: float = 0.5) -> ExcessRiskRate:
    """Gap-rate factor plus the optimization-error term under curvature.

    The optimization term is T^(-alpha) for alpha < 1 and
    log(T) log^3(1/delta) / T at alpha = 1.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    gap = rate_factor(alpha, big_t)
    if alpha < 1.0:
        opt = big_t ** (-alpha)
    else:
        opt = math.log(big_t) * math.log(1.0 / delta) ** 3 / big_t
    return ExcessRiskRate(gap_rate=gap, optimization=opt)


@dataclass(frozen=True)
class BoundInputs:
    m: int
    u: int
    dim: int
    big_t: int
    delta: float
    alpha: float
    l_f: float
    radius: float
    b_loss: float
    b_grad: float = 0.0

    def __post_init__(self):
        if self.m < 1 or self.u < 1:
            raise ValueError("m and u must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")


@dataclass(frozen=True)
class BoundReport:
    trc_term: float
    dudley_term: float
    conc_term_1: float
    conc_term_2: float
    rate_class: str
    rate_value: float

    @property
    def total(self) -> float:
        return (self.trc_term + self.dudley_term + self.conc_term_1
                + self.conc_term_2)

    def to_dict(self) -> dict:
        return {
            "trc_term": self.trc_term,
            "dudley_term": self.dudley_term,
            "conc_term_1": self.conc_term_1,
            "conc_term_2": self.conc_term_2,
            "total": self.total,
            "rate_class": self.rate_class,
            "rate_value": self.rate_value,
            "radius_source": "measured-R certificate",
        }


def gap_certificate(inputs: BoundInputs) -> BoundReport:
    """Assemble the four-term certificate and the rate surrogate."""
    q, s, c0 = concentration_terms(inputs.m, inputs.u)
    trc, dudley = complexity_terms(inputs.m, inputs.u, inputs.dim,
                                   inputs.l_f, inputs.radius, inputs.b_loss)
    conc1 = c0 * q * math.sqrt(min(inputs.m, inputs.u))
    conc2 = math.sqrt(s * q / 2.0 * math.log(2.0 / inputs.delta))
    return BoundReport(trc_term=trc, dudley_term=dudley, conc_term_1=conc1,
                       conc_term_2=conc2, rate_class=rate_class(inputs.alpha),
                       rate_value=rate_factor(inputs.alpha, inputs.big_t))


def initial_bounds(spec, ops, x: np.ndarray, labels: np.ndarray,
                   w1: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(b_loss, b_grad, norms): exact maxima over all n nodes at the initial
    weights, and the per-node gradient norms of the same scan, for
    ``gradient_norm_diagnostics``.
    """
    cache = forward(spec, ops, x, w1)
    b_loss = float(np.max(np.abs(
        cross_entropy(cache.probs[np.arange(ops.n), labels]))))
    norms = np.empty(ops.n)
    for i in range(ops.n):
        g = grad_sample(spec, ops, x, w1, i, int(labels[i]), cache=cache)
        norms[i] = np.linalg.norm(g)
    b_grad = float(norms.max())
    return b_loss, b_grad, norms


def gradient_norm_diagnostics(norms: np.ndarray) -> dict:
    """Empirical means of the per-node gradient norm and its square.

    The variance-style condition is stated with an unsquared norm against a
    squared constant; both moments are reported so neither reading is
    silently chosen.
    """
    return {"grad_norm_mean": float(norms.mean()),
            "grad_sq_norm_mean": float((norms ** 2).mean())}
