"""Piecewise power-smoothed ReLU.

For an exponent q in (1, 2] the unit is 0 on the negative axis, x^q on
(0, t] with t = (1/q)^(1/(q-1)), and the shifted identity x - t + c with
c = (1/q)^(q/(q-1)) beyond t.  It is continuously differentiable, its
derivative is bounded by 1, and the derivative is (q-1)-power Hoelder with
scalar constant q.  The largest deviation from plain ReLU is t - t^q,
attained at x = t (0.25 for q = 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ActivationSpec:
    """Exponent q plus the derived knee location t and offset c."""

    q: float
    t: float = field(init=False)
    c: float = field(init=False)

    def __post_init__(self):
        if not 1.0 < self.q <= 2.0:
            raise ValueError("q must lie in (1, 2]")
        object.__setattr__(self, "t", (1.0 / self.q) ** (1.0 / (self.q - 1.0)))
        object.__setattr__(self, "c", (1.0 / self.q) ** (self.q / (self.q - 1.0)))

    @property
    def alpha_tilde(self) -> float:
        """Hoelder exponent of the derivative (q - 1)."""
        return self.q - 1.0

    def holder_vector_constant(self, dim: int) -> float:
        """Hoelder constant q * dim^((2-q)/2) for dim-dimensional inputs."""
        return self.q * float(dim) ** ((2.0 - self.q) / 2.0)

    def relu_gap(self) -> float:
        """sup |sigma(x) - relu(x)|, attained at x = t."""
        return self.t - self.t ** self.q


def act_eval(a: ActivationSpec, x: np.ndarray, deriv: np.ndarray | None = None,
             out: np.ndarray | None = None,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """Elementwise activation value, clip(x, 0, t)^q + max(x - t, 0).

    Beyond the knee t^q equals c, so this is the shifted identity there.
    Branch-free and computed in place in two arrays, ``out`` and ``tmp``
    (new ones when not given; max(x, 0) - clip(x, 0, t) is max(x - t, 0)
    exactly); 0-d input gives a 0-d array.  Given an array ``deriv``, which
    may be ``x`` itself, it also writes sigma' there from the same clip, by
    ``act_deriv``'s operations: seven passes over the elements, not nine,
    and six at q = 2, where the power q - 1 = 1 is skipped.
    """
    x = np.asarray(x, dtype=np.float64)
    tail = np.maximum(x, 0.0, out=np.empty_like(x) if tmp is None else tmp)
    out = np.minimum(tail, a.t, out=np.empty_like(x) if out is None else out)
    tail -= out
    if deriv is not None:  # x is read no more
        np.divide(out, a.t, out=deriv)
        if a.q - 1.0 != 1.0:
            deriv **= a.q - 1.0
    out **= a.q
    out += tail
    return out


def act_deriv(a: ActivationSpec, x: np.ndarray) -> np.ndarray:
    """Elementwise activation derivative (0, q x^(q-1), or 1).

    Computed as (clip(x, 0, t) / t)^(q-1), which equals q clip(x, 0, t)^(q-1)
    because q t^(q-1) = 1: the base is at most 1, so the derivative never
    exceeds 1 and is exactly 1 from the knee on, whatever the rounding of t.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0, out=np.empty_like(x))
    np.minimum(out, a.t, out=out)
    out /= a.t
    if a.q - 1.0 != 1.0:  # x ** 1.0 is x
        out **= a.q - 1.0
    return out
