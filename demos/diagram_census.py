"""Walk the pairing diagrams at small order and see why exactly one survives.

Each permutation sigma of {1..n} is a diagram. Positions l with l <= sigma(l)
contribute a small factor (one power of the density scale) and the rest
contribute order-one commutators, so a diagram with k small factors sits at
relative order k-1 once the overall normalization is fixed by the chain
diagram. Irreducible means sigma is a single n-cycle: no proper nonempty
subset of the slots is mapped onto itself. The subset need not be a block of
consecutive slots: sigma = (3, 2, 1) = (1 3)(2) splits {1, 2, 3} into no two
consecutive blocks, yet it fixes {2} and is reducible.
"""

import math

from lowdensity import classify, enumerate_pair_diagrams, irreducible_diagrams, surviving_diagram


def census(n):
    diagrams = enumerate_pair_diagrams(n)
    irred = irreducible_diagrams(n)
    print(f"n={n}: {len(diagrams)} diagrams, {len(irred)} irreducible "
          f"(expected {math.factorial(n - 1)})")
    for d in diagrams:
        c = classify(d)
        tag = "irreducible" if c.irreducible else f"{len(c.cycles)} components"
        star = "  <- survives" if d.sigma == surviving_diagram(n).sigma else ""
        print(f"  sigma={d.sigma}  k={c.k}  {tag}{star}")


if __name__ == "__main__":
    for n in (2, 3):
        census(n)
        print()
    # at larger order just count: the irreducible class grows as (n-1)!
    for n in (4, 5, 6):
        print(f"n={n}: {len(irreducible_diagrams(n))} irreducible of {math.factorial(n)}")
