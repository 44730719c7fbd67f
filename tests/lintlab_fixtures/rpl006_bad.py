# virtual-path: src/repro/core/steps/fixture_kernel.py
"""Planted RPL006 violations: unordered iteration or a caller's memory
layout feeding reductions."""

import numpy as np


def total_weight(weights: dict) -> float:
    return sum(weights.values())  # planted


def accumulate(members) -> float:
    total = 0.0
    for member in set(members):  # planted
        total += member
    return total


def spread(samples: dict) -> float:
    return max(v * v for v in samples.values())  # planted


def count(members) -> int:
    # len() is order-insensitive: never flagged.
    return len(set(members))


def unit_rows(pixels):
    norms = np.linalg.norm(pixels, axis=1, keepdims=True)  # planted
    return pixels / norms


def row_energy(pixels):
    return (pixels * pixels).sum(axis=1)  # planted


def band_totals(pixels, weights):
    scaled = [np.add.reduce(pixels * w) for w in weights]  # planted
    return np.sum(scaled, axis=0)


def nested(pixels):
    def inner(scale):
        return np.sum(pixels * scale, 1)  # planted
    return inner(2.0)
