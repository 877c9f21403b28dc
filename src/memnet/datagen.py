"""Seeded generators for separated test datasets.

Used by the sweep command and the test suite.  Coordinates come out as
exact strings so the CSV round trip is the same code path users hit.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .pipeline import Dataset, load_and_validate

__all__ = [
    "random_separated_points",
    "random_dataset",
    "random_regression_labels",
    "write_csv",
]


def random_separated_points(n: int, dim: int, seed: int,
                            coord_kind: str = "integer") -> list[tuple[str, ...]]:
    """n distinct lattice-based points; distinctness makes separation exact.

    integer: coordinates in 0..4n.  dyadic: eighths.  decimal: hundredths
    (exercises the exact-decimal CSV path, which is not dyadic).
    """
    if dim < 1:
        raise ValueError(f"points need a dimension of at least 1, got {dim}")
    rng = random.Random(seed)
    span = 4 * n + 8
    seen = set()
    points = []
    while len(points) < n:
        base = tuple(rng.randint(0, span) for _ in range(dim))
        if base in seen:
            continue
        seen.add(base)
        if coord_kind == "integer":
            points.append(tuple(str(c) for c in base))
        elif coord_kind == "dyadic":
            points.append(tuple(str(Fraction(8 * c + rng.randint(0, 7), 8))
                                for c in base))
        elif coord_kind == "decimal":
            points.append(tuple(f"{c}.{rng.randint(0, 99):02d}" for c in base))
        else:
            raise ValueError(f"unknown coord_kind {coord_kind!r}")
    if coord_kind != "integer":
        # jittered coordinates can collide across cells; dedupe exactly
        exact = {tuple(Fraction(c) for c in p) for p in points}
        if len(exact) != n:
            return random_separated_points(n, dim, seed + 1, coord_kind)
    return points


def random_dataset(n: int, dim: int, num_classes: int, seed: int,
                   coord_kind: str = "integer") -> Dataset:
    if num_classes < 1:
        raise ValueError(f"num_classes must be at least 1, got {num_classes}")
    rng = random.Random(seed ^ 0x5EED)
    points = random_separated_points(n, dim, seed, coord_kind)
    labels = [rng.randint(1, num_classes) for _ in range(n)]
    return load_and_validate(points, labels, num_classes)


def random_regression_labels(n: int, seed: int, grid: int = 1024) -> list[Fraction]:
    """Labels uniform on the dyadic grid {0, 1/grid, ..., 1}."""
    rng = random.Random(seed ^ 0xF00D)
    return [Fraction(rng.randint(0, grid), grid) for _ in range(n)]


def write_csv(path, points, labels) -> None:
    import csv

    dim = len(points[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{k + 1}" for k in range(dim)] + ["label"])
        for p, y in zip(points, labels):
            writer.writerow([str(c) for c in p] + [str(y)])
