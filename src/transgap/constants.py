"""Measured assumption constants and closed-form architecture constants.

``compute_cx`` / ``compute_cw`` measure the feature-row bound and the
largest weight-matrix spectral norm.  ``loss_lipschitz`` evaluates each
architecture's loss-Lipschitz constant from those measurements and the
propagation norms; ``gradient_smoothness`` assembles the gradient-Hoelder
constant from per-block coefficient tables via the column-sum aggregation

    P_F = (sum_i P_i^2)^(1/2) + (sum_i Pt_i^(2/(2-at)))^(1-at/2)

with P_i / Pt_i the column sums of the linear / Hoelder coefficient tables
(the plain-sum reading of the aggregation; reports carry the tag
"lemma-aggregation (sum reading)").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import (PropagationMatrix, appnp_coefficients, degree_bound,
                     gpr_powers)
from .models import ModelSpec, ParamLayout, layout_for

SQRT2 = math.sqrt(2.0)

# Entries of the power stack held at once by ``gpr_filter_inf_norm``
# (whole unit columns, at least one).
_NORM_CHUNK = 1 << 20


@dataclass(frozen=True)
class SpectralEstimate:
    value: float
    converged: bool
    iterations: int


def spectral_norm(mat: np.ndarray) -> SpectralEstimate:
    """Largest singular value, exactly (numpy's 2-norm, from the SVD).

    ``converged`` and ``iterations`` are kept for callers that read them:
    always True and 0.
    """
    mat = np.asarray(mat, dtype=np.float64)
    order = None if mat.ndim == 1 else 2
    return SpectralEstimate(float(np.linalg.norm(mat, order)), True, 0)


def compute_cx(x: np.ndarray) -> float:
    """Largest feature-row 2-norm."""
    if x.size == 0:
        raise ValueError("empty feature matrix")
    return float(np.max(np.linalg.norm(x, axis=1)))


def compute_cw(w: np.ndarray, layout: ParamLayout) -> float:
    """Largest spectral norm over the matrix blocks of w.

    Vector blocks (the spectral-filter coefficients) are skipped: they are
    not weight matrices under the spectral-norm bound.
    """
    return max((spectral_norm(layout.view(w, name)).value
                for name, shape in layout.blocks if len(shape) > 1),
               default=0.0)


@dataclass(frozen=True)
class PropagationNorms:
    """Infinity norms of the operators an architecture propagates with."""

    a_inf: float
    a2_inf: float
    g_inf: float
    power_sum: float


def measure_norms(spec: ModelSpec, p: PropagationMatrix,
                  gamma: np.ndarray | None = None) -> PropagationNorms:
    """Propagation norms for one architecture.

    g_inf is the norm of the architecture's own filter: the normalized
    adjacency for gcn/gcnii, its square for sgc, and the coefficient-weighted
    polynomial for gprgnn (for which ``gamma`` must be supplied) and appnp.
    appnp is gprgnn with its coefficients fixed at ``appnp_coefficients``:
    no coefficient block moves, so its power_sum is 0.
    """
    a_inf = p.inf_norm
    # Row k is P^k 1, whose largest entry is the norm of P^k (P is
    # nonnegative); the filter models read rows 0..K, the others only row 2.
    big_k = max(2, spec.big_k) if spec.arch in ("appnp", "gprgnn") else 2
    powers = gpr_powers(p, np.ones(p.n), big_k)
    a2_inf = float(powers[2].max())
    power_sum = 0.0
    if spec.arch in ("gcn", "gcnii"):
        g_inf = a_inf
    elif spec.arch == "sgc":
        g_inf = a2_inf
    else:
        if spec.arch == "appnp":
            gamma = appnp_coefficients(spec.gamma, spec.big_k)
        elif gamma is None:
            raise ValueError("gprgnn norms need the coefficient vector")
        else:
            power_sum = float(sum(float(powers[k].max())
                                  for k in range(spec.big_k + 1)))
        gamma = np.asarray(gamma, dtype=np.float64)
        if np.all(gamma >= 0.0):  # the filter is nonnegative too
            g_inf = float(np.tensordot(gamma, powers[:gamma.size],
                                       axes=(0, 0)).max())
        else:
            g_inf = gpr_filter_inf_norm(p, gamma)
    return PropagationNorms(a_inf=a_inf, a2_inf=a2_inf, g_inf=g_inf,
                            power_sum=power_sum)


def gpr_filter_inf_norm(p: PropagationMatrix, gamma: np.ndarray) -> float:
    """Infinity norm of sum_k gamma_k P^k without forming the powers.

    The absolute row sums are read from the filter applied to blocks of
    unit columns (P is symmetric, so column i is row i).  With nonnegative
    coefficients ``measure_norms`` reads the norm from the ones-vector
    stack instead.
    """
    big_k = gamma.shape[0] - 1
    best = 0.0
    step = max(1, _NORM_CHUNK // (max(p.n, 1) * (big_k + 1)))
    for start in range(0, p.n, step):
        cols = np.arange(start, min(start + step, p.n))
        unit = np.zeros((p.n, cols.size))
        unit[cols, np.arange(cols.size)] = 1.0
        block = np.tensordot(gamma, gpr_powers(p, unit, big_k), axes=(0, 0))
        best = max(best, float(np.abs(block).sum(axis=0).max()))
    return best


@dataclass(frozen=True)
class LipschitzParts:
    """GCNII intermediates exposed for inspection."""

    c1: float
    c2: float
    b1: float
    b2: float
    l1: float
    l2: float


@dataclass(frozen=True)
class LipschitzResult:
    value: float
    parts: LipschitzParts | None = None


def gcnii_lipschitz_parts(spec: ModelSpec, c_x: float, c_w: float,
                          a_inf: float) -> LipschitzParts:
    a1, a2 = spec.alpha1, spec.alpha2
    c1 = 1.0 - spec.beta1 + spec.beta1 * c_w
    c2 = 1.0 - spec.beta2 + spec.beta2 * c_w
    b1 = c_x * c_w * c1 * ((1.0 - a1) * a_inf + a1)
    b2 = ((1.0 - a2) * b1 * a_inf + a2 * c_x * c_w) * c2
    l1 = 2.0 * (2.0 + (c_w ** 2 * spec.beta2 ** 2) / c2 ** 2) * b2 ** 2
    l2 = (2.0 * (1.0 - a2) ** 2 * spec.beta1 ** 2 * c_w ** 2 * a_inf ** 2
          * (b1 ** 2 * c2 ** 2 / c1 ** 2))
    return LipschitzParts(c1=c1, c2=c2, b1=b1, b2=b2, l1=l1, l2=l2)


def check_certified(spec: ModelSpec) -> None:
    """Only the depth-2 settings carry constant certificates."""
    if spec.depth != 2:
        raise ValueError("no constant certificate for depth != 2")


def loss_lipschitz(spec: ModelSpec, c_x: float, c_w: float,
                   norms: PropagationNorms) -> LipschitzResult:
    """Architecture-specific loss-Lipschitz constant.

    gcn:     2 c_X c_W a^2          (a = norm of the adjacency)
    sgc:     2 c_X c_W a2           (a2 = norm of its square)
    gcnii:   sqrt(L1 + L2) from the layer bound chain
    gprgnn:  sqrt(L1^2 + L2^2), L1 = sqrt(2) c_X c_W^2 power_sum,
             L2 = 2 c_X c_W g       (g = filter norm)
    appnp:   gprgnn's, with power_sum 0 (fixed coefficients): 2 c_X c_W g
    Only the depth-2 gcn/gcnii settings carry a certificate.
    """
    check_certified(spec)
    if spec.arch == "gcn":
        return LipschitzResult(2.0 * c_x * c_w * norms.a_inf ** 2)
    if spec.arch == "sgc":
        return LipschitzResult(2.0 * c_x * c_w * norms.a2_inf)
    if spec.arch in ("appnp", "gprgnn"):
        l1 = SQRT2 * c_x * c_w ** 2 * norms.power_sum
        l2 = 2.0 * c_x * c_w * norms.g_inf
        return LipschitzResult(math.sqrt(l1 ** 2 + l2 ** 2))
    parts = gcnii_lipschitz_parts(spec, c_x, c_w, norms.a_inf)
    return LipschitzResult(math.sqrt(parts.l1 + parts.l2), parts=parts)


@dataclass(frozen=True)
class SmoothnessResult:
    value: float
    linear_term: float
    holder_term: float
    column_sums: tuple[float, ...]
    holder_column_sums: tuple[float, ...]
    aggregation: str = "lemma-aggregation (sum reading)"


def _aggregate(p_tab: np.ndarray, pt_tab: np.ndarray,
               at: float) -> SmoothnessResult:
    p_cols = p_tab.sum(axis=0)
    pt_cols = pt_tab.sum(axis=0)
    linear = float(np.sqrt(np.sum(p_cols ** 2)))
    expo = 2.0 / (2.0 - at)
    holder = float(np.sum(pt_cols ** expo) ** (1.0 - at / 2.0))
    return SmoothnessResult(value=linear + holder, linear_term=linear,
                            holder_term=holder,
                            column_sums=tuple(p_cols),
                            holder_column_sums=tuple(pt_cols))


def smoothness_tables(spec: ModelSpec, c_x: float, c_w: float,
                      norms: PropagationNorms) -> tuple[np.ndarray, np.ndarray]:
    """Per-block gradient difference coefficients (linear, Hoelder).

    Row h, column i holds the coefficient with which a change in parameter
    block i moves the h-th gradient block; linear coefficients multiply the
    plain norm, Hoelder coefficients its (q-1) power.  Column order follows
    the parameter layout.  appnp takes gprgnn's tables without the
    coefficient block's row and column.
    """
    at = spec.activation.alpha_tilde
    pc = spec.activation.holder_vector_constant(spec.activation_width())
    sqc = math.sqrt(spec.num_classes)
    cx, cw = c_x, c_w

    if spec.arch == "gcn":
        a = norms.a_inf
        p_tab = np.array([
            [cx ** 2 * cw * a ** 4, SQRT2 * cx * a ** 2 + 2 * cx ** 2 * cw * a ** 4],
            [SQRT2 * cx * a ** 2 + 2 * cx * cw ** 2 * a ** 4, 2 * cx * cw * a ** 2],
        ])
        pt_tab = np.zeros((2, 2))
        pt_tab[0, 0] = cx ** (1 + at) * cw * pc * sqc * a ** (2 + at)
        return p_tab, pt_tab

    if spec.arch == "sgc":
        a = norms.a2_inf
        off = SQRT2 * cx * a + cx ** 2 * cw ** 2 * a ** 2
        diag = cx ** 2 * cw ** 2 * a ** 2
        return np.array([[diag, off], [off, diag]]), np.zeros((2, 2))

    if spec.arch in ("appnp", "gprgnn"):
        a, s = norms.g_inf, norms.power_sum
        off = SQRT2 * cx * a + cx ** 2 * cw ** 2 * a ** 2
        diag = cx ** 2 * cw ** 2 * a ** 2
        cross = (SQRT2 + cx * cw * a) * cx * cw ** 2 * s
        p_tab = np.array([
            [diag, off, cross],
            [off, diag, cross],
            [cx ** 2 * cw ** 3 * a * s, cx ** 2 * cw ** 3 * a * s,
             cx ** 2 * cw ** 4 * s ** 2],
        ])
        cxa, cwa = cx ** (1 + at), cw ** (1 + at)
        pt_tab = np.array([
            [SQRT2 * pc * (cxa * cw + cxa * cwa) * a,
             SQRT2 * pc * cxa * cwa * a, 0.0],
            [SQRT2 * pc * cxa * cwa * a, sqc * cxa * cwa * a, 0.0],
            [SQRT2 * pc * cx ** at * cw ** at * s,
             SQRT2 * pc * cx ** at * cw ** at * s, 0.0],
        ])
        blocks = len(layout_for(spec).blocks)
        return p_tab[:blocks, :blocks], pt_tab[:blocks, :blocks]

    # gcnii: columns ordered [W0, W1, W2, W3]
    a = norms.a_inf
    a1, a2 = spec.alpha1, spec.alpha2
    b1r, b2r = spec.beta1, spec.beta2
    parts = gcnii_lipschitz_parts(spec, cx, cw, a)
    c1, c2, bb1, bb2 = parts.c1, parts.c2, parts.b1, parts.b2
    k3 = SQRT2 + 2.0 * cw * bb2
    r2 = b2r * bb2 / c2
    r1 = b1r * bb1 / c1
    p_tab = np.zeros((4, 4))
    pt_tab = np.zeros((4, 4))
    # gradient block W3
    p_tab[3, 3] = 2.0 * bb2 ** 2
    p_tab[3, 2] = k3 * r2
    p_tab[3, 1] = (1 - a2) * b1r * k3 * (bb1 * c2 / c1) * a
    p_tab[3, 0] = k3 * bb2 / cw
    # gradient block W2
    p_tab[2, 3] = k3 * r2
    p_tab[2, 2] = cw ** 2 * r2 ** 2
    p_tab[2, 1] = (1 - a2) * cw * (bb1 * b1r * b2r / c1) * a * (cw * bb2 + SQRT2)
    p_tab[2, 0] = b2r * bb2 * (SQRT2 + bb2 * cw) / c2
    pt_tab[2, 2] = SQRT2 * pc * cw * r2 ** (1 + at)
    pt_tab[2, 1] = (SQRT2 * pc * cw * (1 - a2) ** at * b1r ** at
                    * (bb1 * c2 / c1) ** at * a ** at * r2)
    pt_tab[2, 0] = SQRT2 * pc * cw * (bb2 / cw) ** at * r2
    # gradient block W1
    p_tab[1, 3] = (b1r * bb1 * c2 / c1) * a * k3
    p_tab[1, 2] = ((1 - a2) * (b1r * bb1 / c1) * a
                   * (cw ** 2 * b2r * bb2 + SQRT2 * (1 - b2r) * cw))
    p_tab[1, 1] = (1 - a2) ** 2 * b1r ** 2 * cw ** 2 * (bb1 ** 2 * c2 ** 2 / c1 ** 2) * a
    p_tab[1, 0] = (1 - a2) * cw * (b1r * bb1 * bb2 / c1) * a
    pt_tab[1, 2] = SQRT2 * (1 - a2) * cw * pc * (b1r * bb1 * c2 / c1) * a * r2 ** at
    pt_tab[1, 1] = (SQRT2 * cw * c2 * pc
                    * ((1 - a2) ** (1 + at) * c2 ** at * a ** at + (1 - a2))
                    * r1 ** (1 + at) * a)
    pt_tab[1, 0] = (SQRT2 * (1 - a2) * cw * pc
                    * ((bb2 / cw) ** at + (bb1 / cw) ** at)
                    * (b1r * bb1 * c2 / c1) * a)
    # gradient block W0
    p_tab[0, 3] = cx * bb2 * k3
    p_tab[0, 2] = (2 * cx * cw ** 2 * b2r * bb2 ** 2 / c2
                   + SQRT2 * a2 * b2r * cx ** 2 * cw ** 2
                   + SQRT2 * (1 - a2) * (1 - b2r) * cx * cw * bb1 * a)
    p_tab[0, 1] = (2 * (1 - a2) * b1r * cx * cw ** 2 * bb1 * bb2 * c2 / c1
                   + SQRT2 * a1 * (1 - a2) * b1r * cx ** 2 * cw ** 2 * c2) * a
    p_tab[0, 0] = cx * bb2 * k3
    pt_tab[0, 2] = bb2 * cx * cw * SQRT2 * pc * r2 ** at
    pt_tab[0, 1] = ((bb2 * (1 - a2) ** at * c2 ** at * a ** at + bb1 * c2 * a)
                    * SQRT2 * pc * cx * cw * r1 ** at)
    pt_tab[0, 0] = (SQRT2 * cx * cw * pc
                    * (bb2 * (bb2 / cw) ** at
                       + (1 - a2) * c2 * a * bb1 * (bb1 / cw) ** at))
    return p_tab, pt_tab


def gradient_smoothness(spec: ModelSpec, c_x: float, c_w: float,
                        norms: PropagationNorms) -> SmoothnessResult:
    """Gradient-Hoelder constant assembled from the per-block tables."""
    check_certified(spec)
    p_tab, pt_tab = smoothness_tables(spec, c_x, c_w, norms)
    return _aggregate(p_tab, pt_tab, spec.activation.alpha_tilde)


@dataclass(frozen=True)
class ConstantsReport:
    c_x: float
    c_w: float
    norms: PropagationNorms
    l_f: float
    p_f: float | None
    alpha_tilde: float
    degree_bound_value: float
    lipschitz_parts: LipschitzParts | None = None
    l_f_zero_hypers: float | None = None

    def to_dict(self) -> dict:
        d = {
            "c_X": self.c_x,
            "c_W": self.c_w,
            "norms": {
                "a_inf": self.norms.a_inf,
                "a2_inf": self.norms.a2_inf,
                "g_inf": self.norms.g_inf,
                "power_sum": self.norms.power_sum,
            },
            "L_F": self.l_f,
            "P_F": self.p_f,
            "alpha_tilde": self.alpha_tilde,
            "degree_bound": self.degree_bound_value,
        }
        if self.lipschitz_parts is not None:
            p = self.lipschitz_parts
            d["gcnii_parts"] = {"C1": p.c1, "C2": p.c2, "B1": p.b1,
                                "B2": p.b2, "L1": p.l1, "L2": p.l2}
        if self.l_f_zero_hypers is not None:
            # corner of the feasible hyperparameter region, where the
            # identity-mapping constant collapses to the plain-stack one
            d["L_F_zero_hypers"] = self.l_f_zero_hypers
        return d


def _inf_on_overflow(constant, inf_result, c_w: float):
    """``constant()``, or ``inf_result`` when a float power in it overflows
    (a huge pinned c_W): such a constant is reported as infinite instead
    of raising ``OverflowError``.  A pinned c_W of inf gives ``inf_result``
    too, without evaluating the formulas: every constant grows with c_W,
    and at inf they would form inf / inf or 0 * inf, which is nan."""
    if math.isinf(c_w):
        return inf_result
    try:
        return constant()
    except OverflowError:
        return inf_result


def constants_report(spec: ModelSpec, p: PropagationMatrix, x: np.ndarray,
                     w: np.ndarray, stats=None,
                     c_w_override: float | None = None) -> ConstantsReport:
    """Measure c_X / c_W on real data and evaluate both constants."""
    check_certified(spec)
    layout = layout_for(spec)
    c_x = compute_cx(x)
    c_w = (float(c_w_override) if c_w_override is not None
           else compute_cw(w, layout))
    gamma = layout.view(w, "gamma") if spec.arch == "gprgnn" else None
    norms = measure_norms(spec, p, gamma=gamma)
    lip = _inf_on_overflow(lambda: loss_lipschitz(spec, c_x, c_w, norms),
                           LipschitzResult(math.inf), c_w)
    p_f = _inf_on_overflow(
        lambda: gradient_smoothness(spec, c_x, c_w, norms).value, math.inf,
        c_w)
    db = degree_bound(stats) if stats is not None else float("nan")
    zero = None
    if spec.arch == "gcnii":
        corner = replace(spec, alpha1=0.0, alpha2=0.0, beta1=0.0, beta2=0.0)
        zero = _inf_on_overflow(
            lambda: loss_lipschitz(corner, c_x, c_w, norms).value, math.inf,
            c_w)
    return ConstantsReport(c_x=c_x, c_w=c_w, norms=norms, l_f=lip.value,
                           p_f=p_f,
                           alpha_tilde=spec.activation.alpha_tilde,
                           degree_bound_value=db,
                           lipschitz_parts=lip.parts,
                           l_f_zero_hypers=zero)
