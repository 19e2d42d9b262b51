"""Compute the vacuum expectation of a product of white-noise number
symbols from the commutation relations and evaluate it on a concrete model.

The symbolic side knows only the commutation relations; the numeric side
knows only kernels on an energy grid. The bridge is the partition table:
each block of a set partition contributes one connected chain weighted by
2*pi per internal link.
"""

import math

from lowdensity import (
    FrequencyIndex,
    bell,
    evaluate_symbolic,
    limit_truncated_coefficient,
    make_model,
    rank_one_kernel,
    vacuum_expectation,
)
from lowdensity.spectral import EnergyGrid, TWO_PI

import numpy as np


def model_with_two_shells(bins=48, e_max=4.0):
    grid = EnergyGrid(e_max=e_max, bins=bins)
    e = grid.centers
    f = np.exp(-((e - 1.0) ** 2)).astype(complex)
    g = np.exp(-((e - 2.5) ** 2)).astype(complex)
    return make_model(grid, np.ones(bins), {"f": f, "g": g})


if __name__ == "__main__":
    model = model_with_two_shells()

    for k in (2, 3, 4):
        labels = [("f", "g")] * k
        vac = vacuum_expectation(labels, include_scalar=True)
        print(f"k={k}: {len(vac.terms)} vacuum terms = Bell({k}) = {bell(k)}")

        connected = evaluate_symbolic(vac, model)[(tuple(range(1, k + 1)),)]
        kerns = [rank_one_kernel(model, f, g) for f, g in labels]
        coeff = limit_truncated_coefficient(model, kerns, [FrequencyIndex(0)] * k)
        direct = TWO_PI ** (k - 1) * coeff.value
        print(f"      connected part {connected:.8f}  "
              f"direct chain {direct:.8f}  "
              f"|diff| {abs(connected - direct):.1e}")

    # partition table for k=3: one entry per set partition of {1,2,3}
    vac = vacuum_expectation([("f", "g")] * 3, include_scalar=True)
    table = evaluate_symbolic(vac, model)
    print(f"\nk=3 partition table ({len(table)} entries):")
    for part, val in sorted(table.items()):
        print(f"  {part}: {val:.8f}")
