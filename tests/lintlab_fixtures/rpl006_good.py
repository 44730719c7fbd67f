# virtual-path: src/repro/core/steps/fixture_kernel.py
"""Clean twin of rpl006_bad: sorted operands, a pinned layout or annotated
determinism."""

import numpy as np


def total_weight(weights: dict) -> float:
    # Sorting pins the operand order: bit-identical on every run.
    return sum(weights[key] for key in sorted(weights))


def accumulate(members) -> float:
    total = 0.0
    for member in sorted(set(members)):
        total += member
    return total


def partial_sums(partials: dict) -> float:
    total = 0.0
    # repro: ordered: partials is keyed by partition index, inserted 0..N-1
    for value in partials.values():
        total += value
    return total


def unit_rows(slab):
    # The caller's array is copied into one layout first; the annotation
    # states why the reduction over it is order-pinned.
    slab = np.array(slab, dtype=np.float64, order="C")
    norms = np.sqrt(np.add.reduce(slab * slab, axis=0))  # repro: ordered: C slab, band by band
    return (slab / norms).T


def covered_counts(cosines, threshold):
    # A local boolean mask: integer sums are exact in any order.
    covered = cosines >= threshold
    return covered.sum(axis=1)


def total(values):
    # No axis: not a layout-dependent reduction.
    return np.sum(values)
