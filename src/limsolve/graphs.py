"""Simple graphs, connectivity, cycle detection, and exact bounded
feedback-vertex-set search.

Vertices are the integers 0..n-1.  Edges are unordered pairs; the position
of a pair in the edge list is its stable edge id.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq, itemgetter


class SimpleGraph:
    """Finite simple graph: no loops, no parallel edges."""

    __slots__ = ("n", "edges", "_incidence")

    def __init__(self, n: int, edges=()):
        # ids are never coerced: bool is an int subclass but no vertex id
        if type(n) is not int:
            raise ValueError(f"vertex count {n!r} is not an integer")
        if n < 0:
            raise ValueError(f"vertex count {n} is negative")
        edges = tuple(map(tuple, edges))
        # the common case, every edge fine, takes no Python step per edge;
        # _edge_errors then finds, and names, what is wrong
        if not _edges_fit(n, edges):
            _edge_errors(n, edges)
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

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, edges={list(self.edges)!r})"


def _edges_fit(n: int, edges: tuple) -> bool:
    """Whether every edge is a pair of distinct int (not bool) vertex ids
    in [0, n) and no two edges join the same pair: a few passes over all
    the edges at once."""
    if not set(map(len, edges)) <= {2}:
        return False
    us = list(map(itemgetter(0), edges))
    vs = list(map(itemgetter(1), edges))
    ends = us + vs
    if not (set(map(type, ends)) <= {int}
            and (not ends or min(ends) >= 0 and max(ends) < n)
            and not any(map(eq, us, vs))):
        return False
    # with no loops, a parallel edge repeats a pair or reverses one
    pairs = set(zip(us, vs))
    return len(pairs) == len(us) and pairs.isdisjoint(zip(vs, us))


def _edge_errors(n: int, edges) -> None:
    """Raise the ValueError that names the first bad edge, edge by edge."""
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
    return _components(g, bytearray(b"\x01") * g.n)


def _components(g: SimpleGraph, live: bytearray) -> list[list[int]]:
    # the components of the subgraph induced by the live vertices
    seen = bytearray(g.n)
    inc = g.incidence
    out = []
    for r in range(g.n):
        if seen[r] or not live[r]:
            continue
        seen[r] = 1
        comp = [r]
        stack = [r]
        while stack:
            v = stack.pop()
            for _, w in inc[v]:
                if live[w] and not seen[w]:
                    seen[w] = 1
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


def _core(g: SimpleGraph) -> tuple[bytearray, list[int]]:
    """The 2-core of g: (live flag per vertex, live degree per vertex)."""
    deg = [len(i) for i in g.incidence]
    alive = bytearray(b"\x01") * g.n
    _peel(g, alive, deg, [v for v in range(g.n) if deg[v] <= 1])
    return alive, deg


def _peel(g: SimpleGraph, alive: bytearray, deg: list[int], queue: list[int]) -> None:
    # Remove the queued vertices in place, then every vertex left with at
    # most one live neighbour.  A vertex enters the queue once: at the start,
    # or when its live degree drops to exactly 1.
    inc = g.incidence
    while queue:
        v = queue.pop()
        alive[v] = 0
        for _, w in inc[v]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)


def _cycle(g: SimpleGraph, core: bytearray) -> list[int] | None:
    """A cycle of the live vertices, which must form a 2-core, or None if
    none is live.  The walk starts at the lowest live vertex and always
    leaves by the first live edge (in incidence order) other than the one it
    came in by, until a vertex repeats; every vertex of a 2-core has such an
    edge.  The cycle runs from the last vertex back to the repeated one."""
    v = core.find(1)
    if v < 0:
        return None
    inc = g.incidence
    path = [v]
    at = {v: 0}
    came = -1
    while True:
        for e, w in inc[v]:
            if core[w] and e != came:
                break
        if w in at:
            return path[at[w]:][::-1]
        at[w] = len(path)
        path.append(w)
        v, came = w, e


def _fvs_search(g: SimpleGraph, alive: bytearray, deg: list[int],
                budget: int) -> list[int] | None:
    cycle = _cycle(g, alive)
    if cycle is None:
        return []
    if budget == 0:
        return None
    # every feedback vertex set intersects this cycle
    for v in sorted(cycle):
        sub_alive, sub_deg = alive[:], deg[:]
        _peel(g, sub_alive, sub_deg, [v])
        sub = _fvs_search(g, sub_alive, sub_deg, budget - 1)
        if sub is not None:
            return sub + [v]
    return None


def _core_components(g: SimpleGraph, core: bytearray) -> list[tuple[list[int], SimpleGraph]]:
    """The components of the live vertices, ordered by least vertex, each as
    (its vertices ascending, the subgraph it induces).  The subgraph numbers
    the vertices in that order and keeps g's edge order, so _cycle walks it
    exactly as it walks the component inside g."""
    comps = _components(g, core)
    comp_of = [0] * g.n
    local = [0] * g.n
    for c, verts in enumerate(comps):
        for i, v in enumerate(verts):
            comp_of[v] = c
            local[v] = i
    edges = [[] for _ in comps]
    for u, v in g.edges:
        if core[u] and core[v]:
            edges[comp_of[u]].append((local[u], local[v]))
    return [(verts, SimpleGraph(len(verts), es)) for verts, es in zip(comps, edges)]


def fvs_exact(g: SimpleGraph, k_max: int) -> VertexSet | None:
    """A feedback vertex set of minimum size if one of size <= k_max exists.

    Each component of the 2-core of g is searched on its own, with what the
    earlier components left of the budget: iterative deepening from its
    2-core, each search node branching on the vertices of one cycle in
    ascending order.  A minimum set is minimum on every component, so this
    returns the set that one search over the whole 2-core finds first, and
    the result is deterministic.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if is_forest(g):
        return VertexSet(g.n, 0)
    found: list[int] = []
    for verts, h in _core_components(g, _core(g)[0]):
        alive, deg = _core(h)
        for k in range(1, k_max - len(found) + 1):
            sub = _fvs_search(h, alive, deg, k)
            if sub is not None:
                found += [verts[v] for v in sub]
                break
        else:
            return None
    return VertexSet.of(g.n, found)


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
