"""Simple graphs, connectivity, cycle detection, and exact bounded
feedback-vertex-set search.

Vertices are the integers 0..n-1.  Edges are unordered pairs; the position
of a pair in the edge list is its stable edge id.  One depth-first
search, _preorder, finds components here and lays out the solver's forest
plan; one builder, _induced, makes every induced subgraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq, itemgetter

# Largest graph, diagram set and hom-set: per-vertex lists, edge masks and
# section-test state are sized by these, so one SimpleGraph(10**9) or
# {"size": 10**9} would exhaust memory before a sweep.
MAX_SET_SIZE = 2 ** 20


class SimpleGraph:
    """Finite simple graph: no loops, no parallel edges.

    _plan is None until the solver first plans a solve on this object; it
    then holds the feedback vertex set and forest plan of that solve, for
    the next solve on the same object (solver._resolve_plan)."""

    __slots__ = ("n", "edges", "_incidence", "_plan")

    def __init__(self, n: int, edges=()):
        # ids are never coerced: bool is an int subclass but no vertex id
        if type(n) is not int:
            raise ValueError(f"vertex count {n!r} is not an integer")
        if n < 0:
            raise ValueError(f"vertex count {n} is negative")
        if n > MAX_SET_SIZE:  # before any edge is read
            raise ValueError(f"vertex count {n} exceeds the limit of "
                             f"{MAX_SET_SIZE} vertices")
        edges = tuple(edges)
        # the common case, every edge fine, takes no Python step per edge;
        # _edge_errors then finds, and names, what is wrong
        if not _edges_fit(n, edges):
            _edge_errors(n, edges)
        self.n = n
        self.edges = tuple(map(tuple, edges))
        self._incidence = None
        self._plan = None

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

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, edges={list(self.edges)!r})"


def all_pairs(items) -> bool:
    """Whether every item is a list or tuple of length 2, in two passes."""
    return (set(map(type, items)) <= {list, tuple}
            and set(map(len, items)) <= {2})


def _edges_fit(n: int, edges: tuple) -> bool:
    """Whether every edge is a pair (all_pairs) of distinct int (not bool)
    vertex ids in [0, n) and no two edges join the same pair: a few passes
    over all the edges at once."""
    if not all_pairs(edges):
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
    """Raise the ValueError that names the first bad edge: the first edge
    that is not a pair, then, edge by edge, the first other fault."""
    for i, e in enumerate(edges):
        if not all_pairs([e]):
            raise ValueError(f"edge {i} is not a pair of vertex ids")
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
        # as in SimpleGraph, bool is an int subclass but no count, mask or id
        if type(self.n) is not int:
            raise ValueError(f"vertex count {self.n!r} is not an integer")
        if type(self.mask) is not int:
            raise ValueError(f"vertex mask {self.mask!r} is not an integer")
        if self.n < 0:
            raise ValueError(f"vertex count {self.n} is negative")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("vertex mask out of range")

    @classmethod
    def of(cls, n: int, vertices) -> "VertexSet":
        mask = 0
        for v in vertices:
            if type(v) is not int:
                raise ValueError(f"vertex id {v!r} is not an integer")
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
    return [sorted([x for _, x in tree])
            for tree in _preorder(g, [False] * g.n)]


def _preorder(g: SimpleGraph, seen: list[bool]) -> list[list[tuple[int, int]]]:
    """Depth-first search over the vertices not yet seen, marking each seen
    when it is first reached: each tree is rooted at the lowest vertex left.
    Returns per tree its (edge id, vertex) pairs in the order the search
    leaves a stack, each vertex with the edge it was reached by (-1 at the
    root); every pair but the root's is an incidence pair of g.  On a forest
    that is a preorder, so every subtree's pairs are contiguous and the
    reversed list is a post-order."""
    inc = g.incidence
    trees = []
    for r in range(g.n):
        if seen[r]:
            continue
        seen[r] = True
        tree = []
        stack = [(-1, r)]
        while stack:
            reached = stack.pop()
            tree.append(reached)
            for arc in inc[reached[1]]:
                if not seen[arc[1]]:
                    seen[arc[1]] = True
                    stack.append(arc)
        trees.append(tree)
    return trees


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


def _induced(g: SimpleGraph, parts: list[list[int]]
             ) -> tuple[list[SimpleGraph], list[int | None]]:
    """The subgraphs that disjoint ascending vertex lists induce in g, each
    numbering its vertices in list order and keeping g's edge order, and
    per vertex of g its number in its part (None if in no part)."""
    part = [-1] * g.n
    local: list[int | None] = [None] * g.n
    for p, verts in enumerate(parts):
        for i, v in enumerate(verts):
            part[v] = p
            local[v] = i
    edges = [[] for _ in parts]
    for u, v in g.edges:
        p = part[u]
        if p >= 0 and p == part[v]:
            edges[p].append((local[u], local[v]))
    return [SimpleGraph(len(verts), es) for verts, es in zip(parts, edges)], local


def _check_budget(k_max) -> None:
    if type(k_max) is not int:
        raise ValueError(f"k_max {k_max!r} is not an int")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")


def fvs_exact(g: SimpleGraph, k_max: int) -> VertexSet | None:
    """A feedback vertex set of minimum size if one of size <= k_max exists.

    g is a forest iff its 2-core is empty, and then the set is empty.
    Otherwise each component of the 2-core of g is settled on its own, with
    what the other components leave of the budget.  A component whose
    vertices all have core degree 2 is a cycle: its minimum set is its
    lowest vertex, the set the search below returns first, so it is taken
    without a search (Cygan et al., Parameterized Algorithms, 2015, §3.3).
    Each other component is searched as the subgraph it induces, by
    iterative deepening from its 2-core, each search node branching on the
    vertices of one cycle in ascending order.  A minimum set is minimum on
    every component, so this returns the set that one search over the
    whole 2-core finds first, and the result is deterministic.
    """
    _check_budget(k_max)
    core, core_deg = _core(g)
    if core.find(1) < 0:
        return VertexSet(g.n, 0)
    found: list[int] = []
    searched: list[list[int]] = []
    for tree in _preorder(g, [not live for live in core]):
        verts = list(map(itemgetter(1), tree))
        # every core degree is at least 2, so a sum of 2 per vertex means
        # that all are 2
        if sum(map(core_deg.__getitem__, verts)) == 2 * len(verts):
            if len(found) == k_max:
                return None
            found.append(tree[0][1])  # the root, its lowest vertex
        else:
            searched.append(sorted(verts))
    # _induced reads every edge of g, so it runs only for a search; each
    # subgraph numbers its vertices in ascending order, so _cycle walks it
    # exactly as it walks the component inside g
    subgraphs = _induced(g, searched)[0] if searched else []
    for verts, h in zip(searched, subgraphs):
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
    drop = [False] * g.n
    for v in s:  # byte-wise; testing s.mask per vertex is O(n^2 / 64)
        drop[v] = True
    (sub,), vmap = _induced(g, [[v for v in range(g.n) if not drop[v]]])
    return sub, vmap
