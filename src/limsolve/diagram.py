"""Graph-shaped diagrams of finite sets and mask-based subdiagrams.

A diagram assigns a finite set to every vertex and every edge of a simple
graph; each edge carries one leg function per endpoint, sending the
endpoint's elements into the edge set.  An element of the limit picks one
element per vertex so that for every edge both endpoint choices map to the
same edge element.

Subdiagrams never copy the base diagram: they are bitmasks over its
objects (one mask per vertex set, one per edge set).  The mask invariant is
leg-closure: masked vertex elements must map into the masked edge set.
Narrowing masks edge by edge is what the solver's whole running-time story
rests on, so ``filter_edge`` mutates its mask in place.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finset import FinFn, FinSetObj, bits, full_mask
from .graphs import SimpleGraph, VertexSet, remove_vertices


class CoDecomposition:
    """A diagram over a simple graph shape.

    legs[e] holds the pair of leg functions of edge e, in the same order as
    the endpoints in shape.edges[e].
    """

    __slots__ = ("shape", "vertex_obj", "edge_obj", "legs", "_edge_data")

    def __init__(self, shape: SimpleGraph, vertex_obj, edge_obj, legs):
        self.shape = shape
        self.vertex_obj = tuple(vertex_obj)
        self.edge_obj = tuple(edge_obj)
        self.legs = tuple((fu, fv) for fu, fv in legs)
        self._edge_data = None
        if len(self.vertex_obj) != shape.n:
            raise ValueError("one set per shape vertex required")
        if len(self.edge_obj) != shape.m:
            raise ValueError("one set per shape edge required")
        if len(self.legs) != shape.m:
            raise ValueError("exactly two legs per shape edge required")

    def leg(self, e: int, x: int) -> FinFn:
        """The leg of edge e at its endpoint x."""
        u, v = self.shape.edges[e]
        if x == u:
            return self.legs[e][0]
        if x == v:
            return self.legs[e][1]
        raise ValueError(f"vertex {x} is not an endpoint of edge {e}")

    @property
    def edge_data(self) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
        """Per edge: (u, v, leg-at-u fibers, leg-at-v fibers); cached, this
        is the view filter_edges reads."""
        if self._edge_data is None:
            self._edge_data = [
                (u, v, self.legs[e][0].fibers, self.legs[e][1].fibers)
                for e, (u, v) in enumerate(self.shape.edges)
            ]
        return self._edge_data

    def width(self) -> int:
        """Largest vertex set size (the w of the running-time bounds)."""
        return max((o.size for o in self.vertex_obj), default=0)

    def full_mask(self) -> "SubMask":
        return SubMask(
            [full_mask(o.size) for o in self.vertex_obj],
            [full_mask(o.size) for o in self.edge_obj],
        )

    def __repr__(self):
        return (f"CoDecomposition(n={self.shape.n}, m={self.shape.m}, "
                f"w={self.width()})")


class SubMask:
    """Membership bitmasks selecting a subdiagram of a base diagram."""

    __slots__ = ("vertex", "edge")

    def __init__(self, vertex, edge):
        self.vertex = list(vertex)
        self.edge = list(edge)

    def copy(self) -> "SubMask":
        return SubMask(self.vertex, self.edge)

    def zero(self) -> None:
        self.vertex = [0] * len(self.vertex)
        self.edge = [0] * len(self.edge)

    def vertex_elements(self, x: int) -> list[int]:
        return list(bits(self.vertex[x]))

    def edge_elements(self, e: int) -> list[int]:
        return list(bits(self.edge[e]))

    def __eq__(self, other):
        if not isinstance(other, SubMask):
            return NotImplemented
        return self.vertex == other.vertex and self.edge == other.edge

    def __repr__(self):
        return f"SubMask(vertex={self.vertex}, edge={self.edge})"


@dataclass(frozen=True)
class Verdict:
    """Outcome of an emptiness decision; True means the limit is empty."""

    empty_limit: bool


def validate(d: CoDecomposition) -> list[str]:
    """All diagram invariants; returns a list of violations, empty when ok."""
    problems = []
    for e, (u, v) in enumerate(d.shape.edges):
        for x, fn in ((u, d.legs[e][0]), (v, d.legs[e][1])):
            if fn.source_size != d.vertex_obj[x].size:
                problems.append(
                    f"leg of edge {e} at vertex {x}: source size "
                    f"{fn.source_size} != vertex set size {d.vertex_obj[x].size}")
            if fn.target_size != d.edge_obj[e].size:
                problems.append(
                    f"leg of edge {e} at vertex {x}: target size "
                    f"{fn.target_size} != edge set size {d.edge_obj[e].size}")
    return problems


def check_leg_closure(d: CoDecomposition, m: SubMask) -> list[str]:
    """Violations of the mask invariant: masked vertex elements must map
    into the masked edge set."""
    problems = []
    for e, (u, v) in enumerate(d.shape.edges):
        em = m.edge[e]
        for x, fn in ((u, d.legs[e][0]), (v, d.legs[e][1])):
            for a in bits(m.vertex[x]):
                if not em >> fn.table[a] & 1:
                    problems.append(
                        f"edge {e}, vertex {x}: element {a} maps to "
                        f"{fn.table[a]} outside the edge mask")
    return problems


def filter_edge(d: CoDecomposition, m: SubMask, e: int) -> SubMask:
    """Narrow the masks at edge e = xy in place: keep the x elements with a
    partner among the masked y elements (and symmetrically), and set the
    edge mask to the shared image.  Returns the same mask object.

    Cost O(|d(x)| + |d(y)| + |d(e)|).
    """
    if not 0 <= e < d.shape.m:
        raise ValueError(f"no edge with id {e}")
    filter_edges(d, m, (e,))
    return m


def filter_edges(d: CoDecomposition, m: SubMask, eids) -> bool:
    """Apply the edge filter of ``filter_edge`` to each edge of eids in turn.

    Returns False at the first edge whose shared image is empty; that edge
    and both its endpoints are then zeroed, so the mask stays leg-closed.
    image_tree, forest_initial and section_tests run on this loop; inlim
    filters many section tests at once over leg tables instead.
    """
    vert = m.vertex
    edge = m.edge
    edge_data = d.edge_data
    for e in eids:
        u, v, fib_u, fib_v = edge_data[e]
        mu = vert[u]
        mv = vert[v]
        hit_u = 0
        hit_v = 0
        for t in range(len(fib_u)):
            if fib_u[t] & mu:
                hit_u |= 1 << t
            if fib_v[t] & mv:
                hit_v |= 1 << t
        common = hit_u & hit_v
        edge[e] = common
        if not common:
            vert[u] = 0
            vert[v] = 0
            return False
        if common == hit_u and common == hit_v:
            # every masked element already has a partner
            continue
        new_u = 0
        new_v = 0
        c = common
        while c:
            low = c & -c
            t = low.bit_length() - 1
            new_u |= fib_u[t]
            new_v |= fib_v[t]
            c ^= low
        vert[u] = mu & new_u
        vert[v] = mv & new_v
    return True


def glue(
    d1: CoDecomposition, m1: SubMask, x1: int, delta1: FinFn,
    d2: CoDecomposition, m2: SubMask, x2: int, delta2: FinFn,
    e_obj: FinSetObj,
) -> tuple[CoDecomposition, SubMask]:
    """Join two diagrams along a fresh edge between boundary vertices x1, x2.

    Vertex and edge ids of d1 are kept; d2's are shifted by d1's counts; the
    fresh edge comes last and gets delta1, delta2 as its legs and a full mask.
    """
    if delta1.source_size != d1.vertex_obj[x1].size:
        raise ValueError("delta1 does not start at the boundary vertex set of d1")
    if delta2.source_size != d2.vertex_obj[x2].size:
        raise ValueError("delta2 does not start at the boundary vertex set of d2")
    if delta1.target_size != e_obj.size or delta2.target_size != e_obj.size:
        raise ValueError("boundary maps must land in the fresh edge set")
    n1 = d1.shape.n
    edges = list(d1.shape.edges)
    edges += [(u + n1, v + n1) for u, v in d2.shape.edges]
    edges.append((x1, x2 + n1))
    shape = SimpleGraph(n1 + d2.shape.n, edges)
    diagram = CoDecomposition(
        shape,
        d1.vertex_obj + d2.vertex_obj,
        d1.edge_obj + d2.edge_obj + (e_obj,),
        d1.legs + d2.legs + ((delta1, delta2),),
    )
    mask = SubMask(
        m1.vertex + m2.vertex,
        m1.edge + m2.edge + [full_mask(e_obj.size)],
    )
    return diagram, mask


@dataclass
class Restriction:
    """A diagram restricted to an induced shape subgraph, with index maps
    (old -> new, None for dropped) back into the original."""

    diagram: CoDecomposition
    mask: SubMask
    vertex_map: list[int | None]
    edge_map: list[int | None]


def restrict_to_subgraph(d: CoDecomposition, m: SubMask, keep: VertexSet) -> Restriction:
    """Restrict to the induced subgraph on keep; only edges with both
    endpoints kept survive.  Objects and legs are shared, not copied."""
    sub_shape, vmap = remove_vertices(d.shape, keep.complement())
    kept = list(keep)
    eids = [e for e, (u, v) in enumerate(d.shape.edges)
            if vmap[u] is not None and vmap[v] is not None]
    emap: list[int | None] = [None] * d.shape.m
    for new_e, e in enumerate(eids):
        emap[e] = new_e
    diagram = CoDecomposition(sub_shape, [d.vertex_obj[v] for v in kept],
                              [d.edge_obj[e] for e in eids],
                              [d.legs[e] for e in eids])
    mask = SubMask([m.vertex[v] for v in kept], [m.edge[e] for e in eids])
    return Restriction(diagram, mask, vmap, emap)


def as_subdiagram(d: CoDecomposition, m: SubMask) -> CoDecomposition:
    """Materialize the masked subdiagram as a standalone diagram with
    densely re-indexed elements.  Raises on leg-closure violations."""
    problems = check_leg_closure(d, m)
    if problems:
        raise ValueError("mask is not leg-closed: " + "; ".join(problems))

    def shrink(obj: FinSetObj, mask: int) -> tuple[FinSetObj, dict[int, int]]:
        kept = list(bits(mask))
        index = {old: new for new, old in enumerate(kept)}
        labels = None
        if obj.labels is not None:
            labels = tuple(obj.labels[i] for i in kept)
        return FinSetObj(len(kept), labels), index

    vertex_obj = []
    vertex_index = []
    for x, obj in enumerate(d.vertex_obj):
        small, index = shrink(obj, m.vertex[x])
        vertex_obj.append(small)
        vertex_index.append(index)
    edge_obj = []
    edge_index = []
    for e, obj in enumerate(d.edge_obj):
        small, index = shrink(obj, m.edge[e])
        edge_obj.append(small)
        edge_index.append(index)
    legs = []
    for e, (u, v) in enumerate(d.shape.edges):
        eix = edge_index[e]
        new_pair = []
        for x, fn in ((u, d.legs[e][0]), (v, d.legs[e][1])):
            table = tuple(eix[fn.table[a]] for a in bits(m.vertex[x]))
            new_pair.append(FinFn(len(table), edge_obj[e].size, table))
        legs.append(tuple(new_pair))
    return CoDecomposition(d.shape, vertex_obj, edge_obj, legs)
