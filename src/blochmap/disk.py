"""Hyperbolic geometry of the unit disk and its Mobius self-maps."""

from __future__ import annotations

import math
import sys
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
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class MobiusAutomorphism:
    """Disk automorphism z -> exp(i*rotation) * (z - center) / (1 - conj(center) z)."""

    center: complex
    rotation: float = 0.0

    def __post_init__(self):
        c = complex(self.center)
        if not abs(c) < 1.0:
            raise ValueError("automorphism center must lie in the open disk")
        if not math.isfinite(self.rotation):
            raise ValueError("automorphism rotation must be finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "rotation", float(self.rotation))

    def __call__(self, z):
        """The map at a point or elementwise on an array, unchecked."""
        c = self.center
        return np.exp(1j * self.rotation) * (z - c) / (1.0 - np.conj(c) * z)


def _disk_weight(z):
    """1 - |z|^2 at a point or elementwise on an array."""
    return 1.0 - (z.real ** 2 + z.imag ** 2)


def _pseudo_distance(z, w):
    """|z - w| / |1 - conj(z) w| at points or on arrays, read off the identity
    |1 - conj(z) w|^2 = |z - w|^2 + (1 - |z|^2)(1 - |w|^2): bit-symmetric."""
    d = abs(z - w)
    return d / (d * d + _disk_weight(z) * _disk_weight(w)) ** 0.5


def _sinh_distance(z, w):
    """sinh rho(z, w) = |z - w| / sqrt((1 - |z|^2)(1 - |w|^2)) at points or on arrays."""
    return abs(z - w) / np.sqrt(_disk_weight(z) * _disk_weight(w))


def hyperbolic_distance(z, w) -> float:
    """Hyperbolic distance on the disk as asinh(sinh rho): bit-symmetric, and well
    conditioned also where the pseudo-distance |(z - w) / (1 - conj(z) w)| rounds to 1."""
    z = complex(z)
    w = complex(w)
    for p in (z, w):
        if not abs(p) < 1.0 - BOUNDARY_MARGIN:
            raise ValueError("hyperbolic distance requires points away from the boundary")
    return math.asinh(_sinh_distance(z, w))


def apply_automorphism(phi: MobiusAutomorphism, z) -> complex:
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError("automorphisms act on the open disk")
    return complex(phi(z))


def _automorphism_series(center, order: int, rotation: float = 0.0) -> np.ndarray:
    """Coefficients of exp(i*rotation) (z - c)/(1 - conj(c) z) up to `order`:
    coef_0 = -c, coef_k = conj(c)^(k-1) (1 - |c|^2); one row per centre when
    `center` is an array."""
    c = np.asarray(center, dtype=complex)[..., None]
    k = np.arange(order)
    # hypot rounds |c| as abs(complex) does; np.abs differs in the last bit
    coeffs = np.concatenate([-c, np.conj(c) ** k * (1.0 - np.hypot(c.real, c.imag) ** 2)], axis=-1)
    return coeffs * np.exp(1j * rotation)


def _compose_poly(coeffs: np.ndarray, inner: np.ndarray, order: int) -> np.ndarray:
    # Horner in the outer variable with truncation at each multiply
    out = np.zeros(order + 1, dtype=complex)
    out[0] = coeffs[-1]
    for k in range(coeffs.size - 2, -1, -1):
        out = np.convolve(out, inner)[: order + 1]
        out[0] += coeffs[k]
    return out


def _composition_tail(coeffs: np.ndarray, c_abs: float, order: int) -> float:
    """Bound on the coefficient-sum tail of a polynomial composed with an
    automorphism, beyond the given order.

    The composition is analytic up to |z| = 1/c_abs, so Cauchy estimates on a
    circle of radius rho in (1, 1/c_abs) bound every dropped coefficient; the
    best of 36 radii is kept, 24 spread over that interval and 12 geometric
    ones within 1 of one, which a high degree at a small centre needs.  The
    bounds are summed in log space, so a bound below the double range reads
    as the smallest positive double and one above it as inf; only a zero
    polynomial has a zero tail.
    """
    mags = np.abs(coeffs)
    if c_abs == 0.0:
        # pure rotation: only coefficients beyond the truncation are dropped
        return float(mags[order + 1:].sum())
    degrees = np.flatnonzero(mags)
    if degrees.size == 0:
        return 0.0
    span = 1.0 / c_abs - 1.0
    rho = 1.0 + np.concatenate((np.linspace(0.05, 0.95, 24) * span,
                                np.geomspace(1e-3, 1.0, 12) * min(1.0, 0.95 * span)))
    peak = (rho + c_abs) / (1.0 - c_abs * rho)
    # log of sum_k |a_k| peak^k for each rho, shifted by its largest term
    terms = np.log(mags[degrees]) + np.log(peak)[:, None] * degrees
    top = terms.max(axis=1)
    log_sum = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
    best = float((log_sum - order * np.log(rho) - np.log(rho - 1.0)).min())
    if not best < _LOG_DOUBLE_MAX:
        return math.inf
    return max(math.exp(best), math.ulp(0.0))


def precompose(f, phi: MobiusAutomorphism, order: int):
    """f o phi: its truncated series, renormalized so the co-analytic part
    kills 0, and an exact mu.

    mu of the result is mu_f(phi(z)), evaluated exactly at f's degree: its
    ``_composition`` field holds ``(f, phi)``, which ``mapping._mu_values``
    reads, so the Bloch constant, the level set and ``mu`` see no truncation.
    `order` sets only the coefficient series and its declared tail, which
    coefficient consumers, ``f(z)``, ``sup_modulus`` and the accuracy that
    ``estimate_bloch_constant`` reports still read; the caller picks it for
    the accuracy needed, since |phi| expansions decay like |center|^k.  The
    composed constant of the co-analytic part is moved (conjugated) into the
    analytic part, which leaves the mapping and its derivatives unchanged,
    though not the modulus |h| + |g|.
    """
    from .mapping import HarmonicMapping  # mapping imports this module
    order = int(order)
    if order < 1:
        raise ValueError("composition order must be at least 1")
    inner = _automorphism_series(phi.center, order, phi.rotation)
    h_new = _compose_poly(f.h.coefficients, inner, order)
    g_new = _compose_poly(f.g.coefficients, inner, order)
    h_new[0] += g_new[0].conjugate()
    g_new[0] = 0.0

    def out_tail(s):
        return _composition_tail(s.coefficients, abs(phi.center), order) if s.is_exact else np.inf

    return HarmonicMapping(AnalyticSeries(h_new, out_tail(f.h)),
                           AnalyticSeries(g_new, out_tail(f.g)), (f, phi))
