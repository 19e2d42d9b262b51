"""Sweep the scale parameter and watch the truncated pair correlation
approach its limiting value.

The model is a two-shell reference: a Gaussian bump and a displaced copy on a
1280-bin grid, which resolves every Fourier factor down to epsilon = 0.025
(8 bins per eps/sigma_t). At each epsilon the exact lattice sum is compared
against the closed-form limit; the error should drop roughly linearly in
epsilon. A row the grid does not resolve is printed with its warnings.
"""

import numpy as np

from lowdensity import (
    NumberSymbol,
    TestFunction,
    limit_truncated_smeared,
    make_model,
    resolution_warnings,
    truncated_smeared,
)
from lowdensity.spectral import EnergyGrid


def reference_model(bins=1280, e_max=4.0):
    grid = EnergyGrid(e_max=e_max, bins=bins)
    e = grid.centers
    a = np.exp(-((e - 1.2) ** 2) / (2 * 0.35**2)).astype(complex)
    b = 0.8 * np.exp(-((e - 2.1) ** 2) / (2 * 0.5**2)).astype(complex)
    return make_model(grid, np.ones(bins), {"a": a, "b": b})


if __name__ == "__main__":
    model = reference_model()
    phi = TestFunction.gaussian(width=1.0)
    symbols = [NumberSymbol.make("a", "b", 0, phi), NumberSymbol.make("b", "a", 0, phi)]

    limit = limit_truncated_smeared(model, symbols)
    print(f"limiting value: {limit:.10f}\n")
    print(f"{'epsilon':>8}  {'truncated':>24}  {'rel err':>10}")
    for eps in (0.4, 0.2, 0.1, 0.05, 0.025):
        value = truncated_smeared(model, symbols, eps)
        rel = abs(value - limit) / abs(limit)
        print(f"{eps:>8}  {value:>24.10f}  {rel:>10.4e}")
        for note in resolution_warnings(model, symbols, eps):
            print(f"{'':>8}  warning: {note}")
