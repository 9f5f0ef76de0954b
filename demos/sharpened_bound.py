"""Sharpening the weighted-derivative bound near a touching point.

Inside the ball the bound mu_f < 1 can be strengthened: around an isolated
point where mu_f = 1, some power of the Mobius factor can be added to the
left side and the inequality still holds on a punctured neighborhood.  The
exponent measures how flat the touching is.
"""

import numpy as np

from blochmap import (
    AnalyticSeries,
    HarmonicMapping,
    counterexample_family,
    sharpening_exponent,
    verify_sharpening,
)

IDENTITY = HarmonicMapping(AnalyticSeries([0.0, 1.0]), AnalyticSeries([0.0]))


def main():
    print("== identity at its touching point 0 ==")
    res = sharpening_exponent(IDENTITY, 0.0, 0.9)
    print(f"smallest working exponent: n = {res.exponent_n}")
    print(f"radius delta = {res.delta}, sampled margin = {res.worst_margin:.3e}")
    margin = verify_sharpening(IDENTITY, res)
    print(f"margin on an independent 10^6-point grid: {margin:.3e}")
    print("for the identity the sharpened quantity is 1 - r^2 + r^n (1 - r^2), and")
    print("n = 2 is exactly the first exponent with 1 - (1 + r^2)(1 - r^2) = r^4 > 0")

    print()
    print("== a curve of touching points defeats every exponent ==")
    f = counterexample_family(1.0)
    z0 = 1.0 / np.sqrt(3.0)
    res = sharpening_exponent(f, z0, 0.5)
    print(f"search result at a level-circle point: {res}")
    print("every punctured neighborhood of z0 meets the level circle, where the")
    print("sharpened bound fails; the dense cross-check rejects all grid artifacts")

    print()
    print("== a scaled-down mapping has no touching point at all ==")
    half = HarmonicMapping(AnalyticSeries([0.0, 0.5]), AnalyticSeries([0.0]))
    try:
        sharpening_exponent(half, 0.0, 0.5)
    except ValueError as exc:
        print(f"rejected as expected: {exc}")


if __name__ == "__main__":
    main()
