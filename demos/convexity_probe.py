#!/usr/bin/env python3
"""Probe the uniform convexity modulus of l^p numerically.

Prints the exact two-point modulus against the K*eps^p power lower bound
for the shipped descriptors, then runs the randomized midpoint audit: an
admissible (p, K) pair produces zero violations, while an inflated K is
caught immediately.
"""

from ergolab import (
    SpaceDescriptor,
    check_uniform_convexity,
    clarkson_modulus,
    descriptor_preset,
)


def main():
    print("two-point modulus vs power-form lower bound, p = 3:")
    print(f"{'eps':>5} {'modulus':>12} {'K*eps^p':>12}")
    clarkson = descriptor_preset("clarkson", p=3.0)
    for eps in (0.25, 0.5, 1.0, 1.5, 2.0):
        mod = clarkson_modulus(3.0, eps)
        low = clarkson.eta(eps)
        print(f"{eps:5.2f} {mod:12.8f} {low:12.8f}")

    print("\nrandomized midpoint audits (2000 trials each):")
    audits = [
        ("hilbert preset", descriptor_preset("hilbert")),
        ("clarkson p=3", descriptor_preset("clarkson", p=3.0)),
        ("inflated K=1", SpaceDescriptor(2.0, 1.0)),
    ]
    for label, desc in audits:
        violations = check_uniform_convexity(desc, dim=3, trials=2000, seed=1)
        tag = "admissible" if desc.admissible else "inadmissible"
        print(f"  {label:16s} ({tag}): {violations} violations")


if __name__ == "__main__":
    main()
