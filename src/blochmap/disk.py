"""Hyperbolic geometry of the unit disk and its Mobius self-maps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import AnalyticSeries

__all__ = [
    "MobiusAutomorphism",
    "hyperbolic_distance",
    "apply_automorphism",
    "precompose",
]

# rho diverges at the boundary; points this close are rejected, not clamped
BOUNDARY_MARGIN = 1e-12


@dataclass(frozen=True)
class MobiusAutomorphism:
    """Disk automorphism z -> exp(i*rotation) * (z - center) / (1 - conj(center) z)."""

    center: complex
    rotation: float = 0.0

    def __post_init__(self):
        c = complex(self.center)
        if not abs(c) < 1.0:
            raise ValueError("automorphism center must lie in the open disk")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "rotation", float(self.rotation))


def hyperbolic_distance(z, w) -> float:
    """Hyperbolic distance arctanh |(z - w) / (1 - conj(z) w)| on the disk."""
    z = complex(z)
    w = complex(w)
    for p in (z, w):
        if not abs(p) < 1.0 - BOUNDARY_MARGIN:
            raise ValueError("hyperbolic distance requires points away from the boundary")
    m = abs((z - w) / (1.0 - z.conjugate() * w))
    return math.atanh(m)


def apply_automorphism(phi: MobiusAutomorphism, z) -> complex:
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError("automorphisms act on the open disk")
    num = z - phi.center
    den = 1.0 - phi.center.conjugate() * z
    return complex(np.exp(1j * phi.rotation)) * num / den


def _automorphism_series(phi: MobiusAutomorphism, order: int) -> np.ndarray:
    # (z - c) / (1 - conj(c) z) expanded: coef_0 = -c, coef_k = conj(c)^(k-1) (1 - |c|^2)
    c = phi.center
    coeffs = np.empty(order + 1, dtype=complex)
    coeffs[0] = -c
    if order >= 1:
        k = np.arange(order)
        coeffs[1:] = np.conj(c) ** k * (1.0 - abs(c) ** 2)
    return coeffs * np.exp(1j * phi.rotation)


def _conv_trunc(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    return np.convolve(a, b)[: order + 1]


def _compose_poly(coeffs: np.ndarray, inner: np.ndarray, order: int) -> np.ndarray:
    # Horner in the outer variable with truncation at each multiply
    out = np.zeros(order + 1, dtype=complex)
    out[0] = coeffs[-1]
    for k in range(coeffs.size - 2, -1, -1):
        out = _conv_trunc(out, inner, order)
        out[0] += coeffs[k]
    return out


def _composition_tail(coeffs: np.ndarray, c_abs: float, order: int) -> float:
    """Bound on the coefficient-sum tail of a polynomial composed with an
    automorphism, beyond the given order.

    The composition is analytic up to |z| = 1/c_abs, so Cauchy estimates on a
    circle of radius rho in (1, 1/c_abs) bound every dropped coefficient; the
    best rho over a small sweep is kept.
    """
    if c_abs == 0.0:
        # pure rotation: only coefficients beyond the truncation are dropped
        return float(np.abs(coeffs[order + 1:]).sum())
    degrees = np.arange(coeffs.size)
    mags = np.abs(coeffs)
    best = np.inf
    span = 1.0 / c_abs - 1.0
    for frac in np.linspace(0.05, 0.95, 24):
        rho = 1.0 + frac * span
        peak = (rho + c_abs) / (1.0 - c_abs * rho)
        with np.errstate(over="ignore"):
            m = float(mags @ peak ** degrees)
            bound = m * rho ** (-order) / (rho - 1.0)
        if bound < best:
            best = bound
    return best


def precompose(f, phi: MobiusAutomorphism, order: int):
    """Truncated series of f o phi, renormalized so the co-analytic part kills 0.

    The composed constant of the co-analytic part is moved (conjugated) into
    the analytic part, which leaves the mapping and its derivatives unchanged.
    `order` controls the truncation of the composition; the caller picks it
    for the accuracy needed, since |phi| expansions decay like |center|^k.
    The dropped tail of each part is bounded and declared on the result.
    """
    from .mapping import HarmonicMapping

    order = int(order)
    if order < 1:
        raise ValueError("composition order must be at least 1")
    inner = _automorphism_series(phi, order)
    h_new = _compose_poly(f.h.coefficients, inner, order)
    g_new = _compose_poly(f.g.coefficients, inner, order)
    g0 = g_new[0]
    h_new[0] += g0.conjugate()
    g_new[0] = 0.0

    def out_tail(series):
        if not series.is_exact:
            return np.inf
        tb = _composition_tail(series.coefficients, abs(phi.center), order)
        return None if tb == 0.0 else tb

    return HarmonicMapping(
        AnalyticSeries(h_new, out_tail(f.h)),
        AnalyticSeries(g_new, out_tail(f.g)),
    )
