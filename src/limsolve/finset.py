"""Finite sets as index ranges and total functions as dense tables.

Subsets of a finite set are represented throughout as integer bitmasks;
bit i set means element i belongs to the subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import lt

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


def table_fits(table, target: int) -> bool:
    """Whether every entry of table is an int (not a bool) in [0, target)."""
    return not table or (set(map(type, table)) <= {int} and min(table) >= 0
                         and max(table) < target)


def tables_fit(tables, sources: list[int], targets) -> bool:
    """Whether every tables[i] has length sources[i] and fits targets[i],
    as table_fits says: a few passes over all the tables at once, without
    a Python step per table."""
    entries = list(chain.from_iterable(tables))
    return (list(map(len, tables)) == sources
            and set(map(type, entries)) <= {int}
            and min(entries, default=0) >= 0
            and all(map(lt, map(partial(max, default=-1), tables), targets)))


def table_image(table, source_mask: int) -> int:
    """Bitmask of the values table[s] over the set bits s of source_mask."""
    out = 0
    for s in bits(source_mask):
        out |= 1 << table[s]
    return out
