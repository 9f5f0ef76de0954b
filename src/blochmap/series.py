"""Truncated power-series algebra for analytic functions on the unit disk.

A series is stored as its Taylor coefficients about 0 together with an
optional declared bound on the absolute coefficient sum of the dropped tail.
``tail_bound=None`` marks an exact polynomial; ``numpy.inf`` marks a tail that
exists but carries no usable bound.  Declared bounds are used as-is; no
geometric tail model is assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AnalyticSeries",
    "eval_series",
    "polyval_batch",
    "differentiate",
    "dilate",
    "linear_combination",
]


@dataclass(frozen=True, eq=False)
class AnalyticSeries:
    """Coefficients of an analytic function, truncated at a fixed order.

    ``coefficients[k]`` multiplies ``z**k``.  The array is copied and frozen at
    construction, so instances are safe to share between threads.
    """

    coefficients: np.ndarray
    tail_bound: float | None = None

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=complex)).copy()
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        if self.tail_bound is not None:
            tb = float(self.tail_bound)
            if not tb >= 0.0:
                raise ValueError("tail_bound must be nonnegative or None")
            object.__setattr__(self, "tail_bound", tb)

    @property
    def truncation_order(self) -> int:
        return self.coefficients.size - 1

    @property
    def is_exact(self) -> bool:
        """True when the series is an exact polynomial (no tail, or zero tail)."""
        return self.tail_bound is None or self.tail_bound == 0.0


def polyval_batch(coefficients, z):
    """Horner evaluation, broadcasting coefficients ``(..., K)`` against ``z``.

    A single coefficient vector evaluated on an array of points and a matrix
    of coefficient rows evaluated pointwise against a matching array of points
    both go through here.
    """
    c = np.asarray(coefficients, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = np.broadcast_to(c[..., -1], z.shape).copy()
    for k in range(c.shape[-1] - 2, -1, -1):
        out *= z
        out += c[..., k]
    return out


def eval_series(s: AnalyticSeries, z) -> complex:
    """Evaluate the truncated series at a point of the open disk.

    The declared tail, if any, is not corrected for; callers own the tail
    policy.

    This runs the Horner steps of ``polyval_batch`` in the same order on
    Python complex numbers instead of 0-d arrays.  Python's complex multiply
    and add round exactly as numpy's complex ufuncs do, so the result has the
    same bits at about 25x less cost per scalar call.
    """
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError("series evaluation requires |z| < 1")
    c = s.coefficients.tolist()
    acc = c[-1]
    for k in range(len(c) - 2, -1, -1):
        acc = acc * z + c[k]
    return acc


def differentiate(s: AnalyticSeries) -> AnalyticSeries:
    """Termwise derivative; the truncation order drops by one (floor at 0).

    A declared coefficient-sum tail bound says nothing about the derivative's
    tail, so a truncated input yields ``tail_bound=inf``.
    """
    c = s.coefficients
    if c.size == 1:
        dc = np.zeros(1, dtype=complex)
    else:
        dc = c[1:] * np.arange(1, c.size)
    tb = None if s.is_exact else np.inf
    return AnalyticSeries(dc, tb)


def dilate(s: AnalyticSeries, epsilon: float) -> AnalyticSeries:
    """Coefficients of z -> f((1-epsilon) z); requires 0 < epsilon <= 1.

    Dilation shrinks the tail, so a declared bound stays valid unchanged.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("dilation parameter must satisfy 0 < epsilon <= 1")
    factors = (1.0 - epsilon) ** np.arange(s.coefficients.size)
    return AnalyticSeries(s.coefficients * factors, s.tail_bound)


def _combined_order(s: AnalyticSeries, t: AnalyticSeries) -> int:
    # exact polynomials pad with zeros; a declared tail caps the usable order
    tailed = [u.truncation_order for u in (s, t) if not u.is_exact]
    if tailed:
        return min(tailed)
    return max(s.truncation_order, t.truncation_order)


def linear_combination(alpha, s: AnalyticSeries, beta, t: AnalyticSeries) -> AnalyticSeries:
    """alpha*s + beta*t.

    An exact polynomial is padded with zeros to its partner's order, so
    combining a tailed series with an exact one keeps every coefficient the
    tailed series carries.  A declared tail caps the order: the result stops
    at the lowest order of a tailed input, and coefficients beyond it join
    the declared tail."""
    order = _combined_order(s, t)
    out = np.zeros(order + 1, dtype=complex)
    cs = s.coefficients[: order + 1]
    ct = t.coefficients[: order + 1]
    out[: cs.size] += complex(alpha) * cs
    out[: ct.size] += complex(beta) * ct
    if s.is_exact and t.is_exact:
        tb = None
    else:
        tb = abs(alpha) * (s.tail_bound or 0.0) + abs(beta) * (t.tail_bound or 0.0)
        if np.isfinite(tb):
            # coefficients dropped by the truncation join the declared tail
            dropped = abs(alpha) * np.abs(s.coefficients[order + 1:]).sum()
            dropped += abs(beta) * np.abs(t.coefficients[order + 1:]).sum()
            tb += dropped
    return AnalyticSeries(out, tb)
