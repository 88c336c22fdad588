"""Finite sets as index ranges and total functions as dense tables.

Subsets of a finite set are represented throughout as integer bitmasks;
bit i set means element i belongs to the subset.
"""

from __future__ import annotations

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


def table_fits(table, target: int) -> bool:
    """Whether every entry of table is an int (not a bool) in [0, target)."""
    return not table or (set(map(type, table)) <= {int} and min(table) >= 0
                         and max(table) < target)


def tables_fit(tables, sources: list[int], targets: list[int]) -> bool:
    """Whether every tables[i] has length sources[i] and fits targets[i],
    as table_fits says: a few passes over all the tables at once, without
    a Python step per table.  When the largest entry is below the smallest
    target, no table's own largest entry is needed."""
    entries = list(chain.from_iterable(tables))
    return (list(map(len, tables)) == sources
            and set(map(type, entries)) <= {int}
            and (not entries
                 or min(entries) >= 0
                 and (max(entries) < min(targets, default=0)
                      or all(map(lt, map(partial(max, default=-1), tables),
                                 targets)))))


def table_image(table, source_mask: int) -> int:
    """Bitmask of the values table[s] over the set bits s of source_mask."""
    out = 0
    for s in bits(source_mask):
        out |= 1 << table[s]
    return out
