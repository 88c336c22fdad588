"""Simple graphs, connectivity, cycle detection, and exact bounded
feedback-vertex-set search.

Vertices are the integers 0..n-1.  Edges are unordered pairs; the position
of a pair in the edge list is its stable edge id.
"""

from __future__ import annotations

from dataclasses import dataclass


class SimpleGraph:
    """Finite simple graph: no loops, no parallel edges."""

    __slots__ = ("n", "edges", "_incidence")

    def __init__(self, n: int, edges=()):
        # ids are never coerced: bool is an int subclass but no vertex id
        if type(n) is not int:
            raise ValueError(f"vertex count {n!r} is not an integer")
        edges = tuple((u, v) for u, v in edges)
        seen = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r},{v!r}): endpoints must be integers")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {{{u},{v}}}")
            seen.add(key)
        self.n = n
        self.edges = edges
        self._incidence = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def incidence(self) -> list[list[tuple[int, int]]]:
        """Per vertex, its (edge id, other endpoint) pairs in edge order."""
        if self._incidence is None:
            inc = [[] for _ in range(self.n)]
            for e, (u, v) in enumerate(self.edges):
                inc[u].append((e, v))
                inc[v].append((e, u))
            self._incidence = inc
        return self._incidence

    def neighbors(self, v: int) -> list[int]:
        return [w for _, w in self.incidence[v]]

    def degree(self, v: int) -> int:
        return len(self.incidence[v])

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, edges={list(self.edges)!r})"


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices of a graph with n vertices, as a bitmask."""

    n: int
    mask: int = 0

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("vertex mask out of range")

    @classmethod
    def of(cls, n: int, vertices) -> "VertexSet":
        mask = 0
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for n={n}")
            mask |= 1 << v
        return cls(n, mask)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __iter__(self):
        # byte-wise scan: cheap even for masks with many thousands of bits
        data = self.mask.to_bytes((self.n + 7) // 8 or 1, "little")
        for i, byte in enumerate(data):
            base = i * 8
            while byte:
                low = byte & -byte
                yield base + low.bit_length() - 1
                byte ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ((1 << self.n) - 1) ^ self.mask)


def components(g: SimpleGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    seen = [False] * g.n
    inc = g.incidence
    out = []
    for r in range(g.n):
        if seen[r]:
            continue
        seen[r] = True
        comp = [r]
        stack = [r]
        while stack:
            v = stack.pop()
            for _, w in inc[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comp.sort()
        out.append(comp)
    return out


def is_forest(g: SimpleGraph) -> bool:
    """True iff the graph is acyclic."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def find_cycle(g: SimpleGraph) -> list[int] | None:
    """Some simple cycle as a vertex sequence, or None if the graph is a forest.

    Deterministic: depth-first search started from the lowest-index vertex,
    exploring incident edges in edge-id order.
    """
    return _find_cycle_alive(g, (1 << g.n) - 1 if g.n else 0)


def _find_cycle_alive(g: SimpleGraph, alive: int) -> list[int] | None:
    inc = g.incidence
    depth: dict[int, int] = {}
    parent: dict[int, int] = {}
    for r in range(g.n):
        if not alive >> r & 1 or r in depth:
            continue
        depth[r] = 0
        parent[r] = -1
        stack = [(r, iter(inc[r]))]
        while stack:
            v, it = stack[-1]
            descended = False
            for _, w in it:
                if not alive >> w & 1:
                    continue
                if w not in depth:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    stack.append((w, iter(inc[w])))
                    descended = True
                    break
                if w != parent[v]:
                    # w is an ancestor of v: walk the parent chain back to it
                    cycle = [v]
                    x = v
                    while x != w:
                        x = parent[x]
                        cycle.append(x)
                    return cycle
            if not descended:
                stack.pop()
    return None


def _peel(g: SimpleGraph, alive: int) -> int:
    # Iteratively drop degree-0 and degree-1 vertices; cycles are untouched.
    inc = g.incidence
    deg = {}
    queue = []
    for v in range(g.n):
        if alive >> v & 1:
            deg[v] = sum(1 for _, w in inc[v] if alive >> w & 1)
            if deg[v] <= 1:
                queue.append(v)
    while queue:
        v = queue.pop()
        if not alive >> v & 1 or deg[v] > 1:
            continue
        alive &= ~(1 << v)
        for _, w in inc[v]:
            if alive >> w & 1:
                deg[w] -= 1
                if deg[w] <= 1:
                    queue.append(w)
    return alive


def _fvs_search(g: SimpleGraph, alive: int, budget: int) -> int | None:
    alive = _peel(g, alive)
    cycle = _find_cycle_alive(g, alive)
    if cycle is None:
        return 0
    if budget == 0:
        return None
    # every feedback vertex set intersects this cycle
    for v in sorted(cycle):
        sub = _fvs_search(g, alive & ~(1 << v), budget - 1)
        if sub is not None:
            return sub | (1 << v)
    return None


def fvs_exact(g: SimpleGraph, k_max: int) -> VertexSet | None:
    """A feedback vertex set of minimum size if one of size <= k_max exists.

    Iterative deepening over the budget; branches on the vertices of one
    cycle in ascending order, so the result is deterministic.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if is_forest(g):
        return VertexSet(g.n, 0)
    full = (1 << g.n) - 1 if g.n else 0
    for k in range(1, k_max + 1):
        found = _fvs_search(g, full, k)
        if found is not None:
            return VertexSet(g.n, found)
    return None


def remove_vertices(g: SimpleGraph, s: VertexSet) -> tuple[SimpleGraph, list[int | None]]:
    """Induced subgraph on V(g) minus s, plus the old->new vertex index map."""
    if s.n != g.n:
        raise ValueError("vertex set belongs to a different graph")
    vmap: list[int | None] = [0] * g.n
    for v in s:  # byte-wise; testing s.mask per vertex is O(n^2 / 64)
        vmap[v] = None
    kept = 0
    for v in range(g.n):
        if vmap[v] is not None:
            vmap[v] = kept
            kept += 1
    edges = [
        (vmap[u], vmap[v])
        for u, v in g.edges
        if vmap[u] is not None and vmap[v] is not None
    ]
    return SimpleGraph(kept, edges), vmap
