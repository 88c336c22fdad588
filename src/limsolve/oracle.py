"""Brute-force reference implementations used to certify the solver.

These stay deliberately independent of the mask/filter machinery: they
enumerate matching families straight from the leg tables.
"""

from __future__ import annotations

from .diagram import CoDecomposition, SubMask
from .solver import Witness

CAP_DEFAULT = 10_000_000


class CapExceeded(RuntimeError):
    """The instance is too large for brute-force enumeration."""


def _product_guard(d: CoDecomposition, cap: int) -> None:
    prod = 1
    for size in d.vertex_size:
        prod *= size
        if prod > cap:
            raise CapExceeded(
                f"vertex tuple space exceeds cap {cap}")


def enumerate_limit(d: CoDecomposition, cap: int = CAP_DEFAULT) -> list[Witness]:
    """All global matching families, lexicographic by vertex tuple.

    Guarded: refuses when the full vertex tuple space exceeds cap.
    """
    _product_guard(d, cap)
    n = d.shape.n
    if n == 0:
        # empty product: the single empty family
        return [Witness((), ())]
    sizes = d.vertex_size
    # per vertex, constraints against already-assigned lower-index vertices
    constraints: list[list[tuple[int, tuple[int, ...], tuple[int, ...]]]] = [
        [] for _ in range(n)
    ]
    for (u, v), (tu, tv) in zip(d.shape.edges, d.tables):
        hi, lo, t_hi, t_lo = (u, v, tu, tv) if u > v else (v, u, tv, tu)
        constraints[hi].append((lo, t_hi, t_lo))
    out = []
    assign = [-1] * n
    level = 0
    while level >= 0:
        assign[level] += 1
        if assign[level] >= sizes[level]:
            assign[level] = -1
            level -= 1
            continue
        a = assign[level]
        ok = True
        for lo, table_hi, table_lo in constraints[level]:
            if table_hi[a] != table_lo[assign[lo]]:
                ok = False
                break
        if not ok:
            continue
        if level == n - 1:
            edges = tuple(tu[assign[u]] for (u, _), (tu, _)
                          in zip(d.shape.edges, d.tables))
            out.append(Witness(tuple(assign), edges))
        else:
            level += 1
    return out


def brute_image(d: CoDecomposition, cap: int = CAP_DEFAULT) -> SubMask:
    """Projection of every global matching family onto each vertex and
    edge set, as membership masks."""
    families = enumerate_limit(d, cap)
    vertex = [0] * d.shape.n
    edge = [0] * d.shape.m
    for w in families:
        for x, a in enumerate(w.vertex_elements):
            vertex[x] |= 1 << a
        for e, a in enumerate(w.edge_elements):
            edge[e] |= 1 << a
    return SubMask(vertex, edge)

