#!/usr/bin/env python3
"""Route-equivalence experiment: synthesize a random multipole field on
spheres of several electrical sizes, recover the coefficients three ways
(radial E+H, tangential E, tangential H), and tabulate how well the routes
agree, alongside the spread of the tangential-E route's noise gain: its
largest per-degree coefficient error per unit sample noise over its smallest."""

import argparse

import numpy as np

from spheremodes import CoefficientSet, Medium, equivalence_report, make_grid, mode_count, synthesize


def random_set(l_max, medium, rng):
    n = mode_count(l_max)
    mags = rng.uniform(0.5, 1.5, size=(2, n))
    phases = np.exp(2j * np.pi * rng.random((2, n)))
    return CoefficientSet(l_max, medium, mags[0] * phases[0], mags[1] * phases[1])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lmax", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kr0", type=float, nargs="+", default=[1.0, np.pi / 2, 3.0, 10.0])
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    r0 = 1.0
    print(f"l_max = {args.lmax}, sphere radius = {r0} m")
    print(f"{'kr0':>8}  {'rad|tanE':>12}  {'rad|tanH':>12}  {'tanE|tanH':>12}  {'tanE gain':>10}")
    for kr0 in args.kr0:
        medium = Medium(k=kr0 / r0)
        coeffs = random_set(args.lmax, medium, rng)
        grid = make_grid(args.lmax, r0)
        e, h = synthesize(coeffs, r0, grid)
        result = equivalence_report(e, h, args.lmax)
        dev = result.pairwise_deviation
        gain = np.concatenate(list(result.tangential_e.noise_gain.values()))
        print(f"{kr0:8.4f}  "
              f"{dev[('radial', 'tangential-E')]:12.3e}  "
              f"{dev[('radial', 'tangential-H')]:12.3e}  "
              f"{dev[('tangential-E', 'tangential-H')]:12.3e}  "
              f"{gain.max() / gain.min():10.2e}")
    print("\nAll three routes read disjoint sample components; agreement at the")
    print("roundoff floor is the numerical statement that radial data on the")
    print("sphere pins down the same field as tangential data.")


if __name__ == "__main__":
    main()
