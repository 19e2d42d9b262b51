"""Moments built from the free white-noise star product agree with the
epsilon -> 0 limit of the truncated correlations, symbol for symbol.

The star product chains kernels with a 2*pi diagonal weight; the resulting
moment functional is exactly the limiting object, so the two computations
must match to rounding. Random kernels, random test functions, zero shifts.
"""

import numpy as np

from lowdensity import NumberSymbol, TestFunction, free_moment, limit_truncated_smeared, make_model
from lowdensity.spectral import EnergyGrid

rng = np.random.default_rng(7)


def random_setup(bins=64, e_max=3.0):
    grid = EnergyGrid(e_max=e_max, bins=bins)
    dens = rng.uniform(0.1, 1.5, bins)
    vecs = {}
    for name in ("a", "b"):
        vecs[name] = rng.normal(size=bins) + 1j * rng.normal(size=bins)
    return make_model(grid, dens, vecs)


if __name__ == "__main__":
    model = random_setup()
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 4))
        symbols = []
        for _ in range(n):
            phi = TestFunction.gaussian(center=float(rng.uniform(-1, 1)),
                                        width=float(rng.uniform(0.5, 1.5)))
            symbols.append(NumberSymbol.make(str(rng.choice(["a", "b"])),
                                             str(rng.choice(["a", "b"])), 0, phi))
        lhs = free_moment(model, symbols)
        rhs = limit_truncated_smeared(model, symbols)
        diff = abs(lhs - rhs)
        worst = max(worst, diff)
        print(f"trial {trial}: n={n}  free={lhs:.8f}  limit={rhs:.8f}  |diff|={diff:.2e}")
    print(f"\nworst absolute difference over 10 trials: {worst:.2e}")
