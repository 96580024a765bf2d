#!/usr/bin/env python3
"""Metastability rates versus their fluctuation-count conversion bound.

For each random rotation trajectory: count eps-fluctuations (s), convert
the count into the worst-case rate g^s(1) for the chosen g, then measure
the actual least n whose window [n, g(n)] is eps-stable. The measured
rate sits at or below the conversion bound whenever the horizon is long
enough to resolve it; when it is not, the exhaustion lower bound is shown.
"""

import math

import numpy as np

from ergolab import (
    HorizonExhaustedError,
    RotationProduct,
    Vector,
    count_fluctuations,
    ergodic_averages,
    g_double,
    metastability_from_fluctuations,
    metastability_rate,
)


def main():
    rng = np.random.default_rng(42)
    horizon, eps = 1024, 0.5
    print(f"horizon = {horizon}, eps = {eps}, g(n) = 2n")
    print(f"{'case':>4} {'count s':>8} {'g^s(1)':>8} {'rate':>12}")
    for case in range(8):
        dim = int(rng.integers(2, 5))
        angles = rng.uniform(0.25, math.pi, dim)
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x = Vector(z / Vector(z, p=2).norm(), p=2)
        traj = ergodic_averages(RotationProduct(angles), x, horizon)
        s = count_fluctuations(traj, eps).count
        bound = metastability_from_fluctuations(s, g_double)
        try:
            rate = str(metastability_rate(traj, eps, g_double))
        except HorizonExhaustedError as exc:
            rate = f">= {exc.verified_lower_bound}"
        print(f"{case:4d} {s:8d} {bound:8d} {rate:>12}")


if __name__ == "__main__":
    main()
