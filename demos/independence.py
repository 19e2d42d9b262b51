"""Observables smeared against well-separated time windows decorrelate.

Two groups of number symbols share a model but live in test-function windows
ten widths apart. The centered cross-correlation of the separated pair is
compared against a co-located control at the same scale; separation should
buy many orders of magnitude.
"""

from lowdensity import NumberSymbol, TestFunction, independence_probe
from demos.convergence_sweep import reference_model

if __name__ == "__main__":
    model = reference_model()
    width = 0.5
    here = TestFunction.gaussian(width=width)
    there = TestFunction.gaussian(center=10 * width, width=width)

    group_a = [NumberSymbol.make("a", "a", 0, here)]
    separated = independence_probe(model, [group_a, [NumberSymbol.make("b", "b", 0, there)]],
                                   (0.2, 0.1, 0.05))
    control = independence_probe(model, [group_a, [NumberSymbol.make("b", "b", 0, here)]],
                                 (0.2, 0.1, 0.05))

    print(f"{'epsilon':>8}  {'separated':>12}  {'co-located':>12}")
    for sep, col in zip(separated.rows, control.rows):
        print(f"{sep.epsilon:>8}  {abs(sep.value):>12.4e}  {abs(col.value):>12.4e}")
        for note in sep.warnings + col.warnings:
            print(f"{'':>8}  warning: {note}")
