"""Truncated power-series algebra for analytic functions on the unit disk.

A series is stored as its Taylor coefficients about 0 together with a
declared bound on the absolute coefficient sum of the dropped tail, always a
float.  ``tail_bound == 0.0`` marks an exact polynomial (the constructor also
reads ``None`` as 0.0); ``numpy.inf`` marks a tail that exists but carries no
usable bound.  Declared bounds are used as-is; no geometric tail model is
assumed.
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
    tail_bound: float = 0.0

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=complex)).copy()
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        # None (a Python default or a JSON null) is read as the exact 0.0
        tb = self.tail_bound
        tb = 0.0 if tb is None else float(tb)
        if not tb >= 0.0:
            raise ValueError("tail_bound must be nonnegative or None")
        object.__setattr__(self, "tail_bound", tb)

    @property
    def is_exact(self) -> bool:
        """True when the series is an exact polynomial (a zero tail)."""
        return self.tail_bound == 0.0


def polyval_batch(coefficients, z):
    """Horner evaluation, broadcasting coefficients ``(..., K)`` against ``z``.

    A single coefficient vector evaluated on an array of points and a matrix
    of coefficient rows evaluated pointwise against a matching array of points
    both go through here.
    """
    c = np.asarray(coefficients, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    out[...] = c[..., -1]
    for k in range(c.shape[-1] - 2, -1, -1):
        out *= z
        out += c[..., k]
    return out


def eval_series(s: AnalyticSeries, z) -> complex:
    """Evaluate the truncated series at a point of the open disk.

    The declared tail, if any, is not corrected for; callers own the tail
    policy.

    This runs the Horner steps of ``polyval_batch`` in the same order on
    Python complex numbers instead of 0-d arrays, at about 25x less cost per
    scalar call.  The result has the bits of ``polyval_batch`` on a single
    point.  On an array of two or more points numpy's complex multiply may
    take a vectorized loop that rounds differently, so a value read off a
    grid or a compass walk can differ from this one in the last bit.
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
    return AnalyticSeries(dc, 0.0 if s.is_exact else np.inf)


def dilate(s: AnalyticSeries, epsilon: float) -> AnalyticSeries:
    """Coefficients of z -> f((1-epsilon) z); requires 0 < epsilon <= 1.

    Dilation shrinks the tail, so a declared bound stays valid unchanged.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("dilation parameter must satisfy 0 < epsilon <= 1")
    factors = (1.0 - epsilon) ** np.arange(s.coefficients.size)
    return AnalyticSeries(s.coefficients * factors, s.tail_bound)


def linear_combination(alpha, s: AnalyticSeries, beta, t: AnalyticSeries) -> AnalyticSeries:
    """alpha*s + beta*t.

    An exact polynomial is padded with zeros to its partner's order, so
    combining a tailed series with an exact one keeps every coefficient the
    tailed series carries.  A declared tail caps the order: the result stops
    at the lowest order of a tailed input, and coefficients beyond it join
    the declared tail.  A zero weight contributes no tail and caps nothing
    (0 * inf would be NaN)."""
    weighted = [(abs(w), u) for w, u in ((alpha, s), (beta, t)) if w != 0]
    tailed = [u.coefficients.size for _, u in weighted if not u.is_exact]
    size = min(tailed) if tailed else max(s.coefficients.size, t.coefficients.size)
    out = np.zeros(size, dtype=complex)
    cs = s.coefficients[:size]
    ct = t.coefficients[:size]
    out[: cs.size] += complex(alpha) * cs
    out[: ct.size] += complex(beta) * ct
    tb = sum(a * u.tail_bound for a, u in weighted)
    if np.isfinite(tb):
        # coefficients dropped by the truncation join the declared tail
        tb += sum(a * np.abs(u.coefficients[size:]).sum() for a, u in weighted)
    return AnalyticSeries(out, tb)
