"""Finite sets as index ranges and total functions as dense tables.

Subsets of a finite set are represented throughout as integer bitmasks;
bit i set means element i belongs to the subset.
"""

from __future__ import annotations

from dataclasses import dataclass

# Largest set a diagram may hold, and largest hom-set the hom frontend
# enumerates.  Edge masks and section-test state are sized by the sets, so
# one {"size": 10**9} would exhaust memory before a sweep.
MAX_SET_SIZE = 2 ** 20


def bits(mask: int):
    """Yield the indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def full_mask(size: int) -> int:
    return (1 << size) - 1


@dataclass(frozen=True)
class FinSetObj:
    """Finite set with elements 0..size-1; labels are presentation metadata."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("size must be >= 0")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.size:
                raise ValueError("label count differs from size")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be pairwise distinct")


@dataclass(frozen=True)
class FinFn:
    """Total function between index sets, stored as a dense target table."""

    source_size: int
    target_size: int
    table: tuple[int, ...]

    def __post_init__(self):
        table = tuple(self.table)
        object.__setattr__(self, "table", table)
        if len(table) != self.source_size:
            raise ValueError("table length differs from source size")
        for i, t in enumerate(table):
            # bool is an int subclass but no element index
            if type(t) is not int or not 0 <= t < self.target_size:
                raise ValueError(f"table entry {t!r} at {i} is not an integer "
                                 f"below target size {self.target_size}")

    def __call__(self, i: int) -> int:
        return self.table[i]

    @classmethod
    def identity(cls, n: int) -> "FinFn":
        return cls(n, n, tuple(range(n)))

    @classmethod
    def constant(cls, source_size: int, target_size: int, value: int) -> "FinFn":
        return cls(source_size, target_size, (value,) * source_size)


def compose(f: FinFn, g: FinFn) -> FinFn:
    """The composite g after f, applying f first."""
    if f.target_size != g.source_size:
        raise ValueError(f"cannot compose: target size {f.target_size} != "
                         f"source size {g.source_size}")
    gt = g.table
    return FinFn(f.source_size, g.target_size, tuple(gt[t] for t in f.table))


def image(f: FinFn, source_mask: int | None = None) -> int:
    """Bitmask of target elements hit by f, optionally from a masked source."""
    if source_mask is None:
        source_mask = full_mask(f.source_size)
    return table_image(f.table, source_mask)


def table_image(table, source_mask: int) -> int:
    """Bitmask of the values table[s] over the set bits s of source_mask."""
    out = 0
    for s in bits(source_mask):
        out |= 1 << table[s]
    return out
