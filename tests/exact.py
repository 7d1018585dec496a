"""Exact answers for the tests: the order-2 grid, its exact laws, and pooled distances to them.

``order2_grid(n)`` is criterion 1's grid: each cell is occupied with the
probability ``ORDER2`` gives the two cells before it, the cells before the
first counting as vacant.  ``grid_problem`` gives an observed set's exact
conditional law on it, with the model and the constraints that sample that
law.  ``grid_bits`` turns seeded runs into the outcomes that law is over,
and ``pooled_tv`` takes the total variation between an exact law and the
outcomes pooled in the order given, which fixes its bits.
"""

from __future__ import annotations

from collections import Counter

from ppsmc.oracle import (GridModel, GridSequenceModel, bits_from_times, enumerate_conditional,
                          normalize_counts, observed_constraints, total_variation)

# (cell i - 2, cell i - 1): P(cell i occupied)
ORDER2 = {(0, 0): 0.55, (0, 1): 0.25, (1, 0): 0.7, (1, 1): 0.1}


def _order2(bits: tuple) -> float:
    return ORDER2[(bits[-2] if len(bits) >= 2 else 0, bits[-1] if bits else 0)]


def order2_grid(n: int) -> GridModel:
    return GridModel(n=n, g=_order2)


def grid_problem(n: int, observed: list) -> tuple:
    """``(exact, model, constraints)``: the law of ``order2_grid(n)``'s occupancy
    bits given 1s at ``observed``, and the sequence model and constraints whose
    conditional samples follow it at ``horizon=n``."""
    grid = order2_grid(n)
    return (enumerate_conditional(grid, observed), GridSequenceModel(grid),
            observed_constraints(observed))


def grid_bits(runs, n: int):
    """The occupancy bits over ``n`` cells of every sample of ``runs``, run by
    run in sample order; every run must have survived."""
    for result in runs:
        assert result.survived
        yield from (bits_from_times(s, n) for s in result.samples)


def pooled_tv(exact: dict, outcomes) -> float:
    """The total variation between ``exact`` and the empirical law of ``outcomes``."""
    return total_variation(exact, normalize_counts(Counter(outcomes)))
