"""Graph homomorphism existence via diagrams of hom-sets.

Given a bag decomposition of a graph X, each bag contributes the set of
homomorphisms from its induced subgraph into a template H, and each
adhesion the corresponding restriction maps.  A global matching family of
that diagram is exactly a compatible choice of partial homomorphisms, so X
admits a homomorphism into H iff the diagram's limit is nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import CoDecomposition
from .finset import FinFn, FinSetObj
from .graphs import SimpleGraph, VertexSet
from .solver import InLimResult, inlim


@dataclass
class BagDecomposition:
    """Bags of X-vertices per shape vertex, adhesions per shape edge.

    Adhesions default to the intersection of the endpoint bags.
    """

    x: SimpleGraph
    shape: SimpleGraph
    bags: tuple[tuple[int, ...], ...]
    adhesions: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        self.bags = tuple(tuple(sorted(set(b))) for b in self.bags)
        if self.adhesions:
            self.adhesions = tuple(tuple(sorted(set(a))) for a in self.adhesions)
        else:
            self.adhesions = tuple(
                tuple(sorted(set(self.bags[u]) & set(self.bags[v])))
                for u, v in self.shape.edges)


def validate_decomposition(b: BagDecomposition) -> list[str]:
    """Checkable sufficient conditions for the bags to reassemble X:
    coverage, adhesion containment, and gluing completeness."""
    problems = []
    if len(b.bags) != b.shape.n:
        return ["one bag per shape vertex required"]
    if len(b.adhesions) != b.shape.m:
        return ["one adhesion per shape edge required"]
    # holders[v]: the shape vertices whose bags hold X-vertex v, ascending
    holders: list[list[int]] = [[] for _ in range(b.x.n)]
    for x, bag in enumerate(b.bags):
        for v in bag:
            if type(v) is not int or not 0 <= v < b.x.n:
                return [f"bag vertex {v!r} outside the target graph"]
            holders[v].append(x)
    for v in range(b.x.n):
        if not holders[v]:
            problems.append(f"vertex {v} of the target graph is in no bag")
    bag_sets = [set(bag) for bag in b.bags]
    for u, v in b.x.edges:
        if not any(v in bag_sets[x] for x in holders[u]):
            problems.append(f"edge {{{u},{v}}} of the target graph fits in no bag")
    for e, (p, q) in enumerate(b.shape.edges):
        extra = set(b.adhesions[e]) - (bag_sets[p] & bag_sets[q])
        if extra:
            problems.append(
                f"adhesion of shape edge {e} is not contained in both bags: "
                f"{sorted(extra)}")
    # gluing completeness: per X-vertex, its bags form a connected shape
    # subgraph, and it belongs to the adhesion of every edge inside
    inc = b.shape.incidence
    for v in range(b.x.n):
        if not holders[v]:
            continue
        seen = {holders[v][0]}
        stack = [holders[v][0]]
        while stack:
            for _, y in inc[stack.pop()]:
                if y not in seen and v in bag_sets[y]:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(holders[v]):
            problems.append(
                f"bags containing vertex {v} do not induce a connected "
                f"shape subgraph")
        inside = sorted(e for x in holders[v] for e, y in inc[x]
                        if x < y and v in bag_sets[y])
        for e in inside:
            if v not in b.adhesions[e]:
                problems.append(
                    f"vertex {v} lies in both bags of shape edge {e} but "
                    f"not in its adhesion")
    return problems


@dataclass(frozen=True)
class HomSet:
    """All homomorphisms from an induced subgraph of X into H; each map is
    a tuple of H-vertices aligned with the sorted X-vertex list."""

    vertices: tuple[int, ...]
    maps: tuple[tuple[int, ...], ...]

    @property
    def obj(self) -> FinSetObj:
        return FinSetObj(len(self.maps))

    def index(self) -> dict[tuple[int, ...], int]:
        return {m: i for i, m in enumerate(self.maps)}


def hom_set(x: SimpleGraph, vertices, h: SimpleGraph) -> HomSet:
    """Enumerate homomorphisms from the subgraph of x induced on the given
    vertices into h, lexicographic by vertex map."""
    verts = tuple(sorted(set(vertices)))
    pos = {v: i for i, v in enumerate(verts)}
    adj = [[False] * h.n for _ in range(h.n)]
    for u, v in h.edges:
        adj[u][v] = adj[v][u] = True
    # per position, earlier positions it must respect an edge with
    inc = x.incidence
    constraints = [[pos[w] for _, w in inc[v] if w in pos and pos[w] < j]
                   for j, v in enumerate(verts)]
    maps = []
    assign = [-1] * len(verts)
    level = 0
    if not verts:
        return HomSet((), ((),))
    while level >= 0:
        assign[level] += 1
        if assign[level] >= h.n:
            assign[level] = -1
            level -= 1
            continue
        c = assign[level]
        if any(not adj[c][assign[j]] for j in constraints[level]):
            continue
        if level == len(verts) - 1:
            maps.append(tuple(assign))
        else:
            level += 1
    return HomSet(verts, tuple(maps))


def find_homomorphism(x: SimpleGraph, h: SimpleGraph) -> tuple[int, ...] | None:
    """First homomorphism x -> h by direct backtracking, or None.

    Used as the independent check against the diagram route.
    """
    adj = [[False] * h.n for _ in range(h.n)]
    for u, v in h.edges:
        adj[u][v] = adj[v][u] = True
    earlier: list[list[int]] = [[] for _ in range(x.n)]
    for u, v in x.edges:
        lo, hi = (u, v) if u < v else (v, u)
        earlier[hi].append(lo)
    if x.n == 0:
        return ()
    assign = [-1] * x.n
    level = 0
    while level >= 0:
        assign[level] += 1
        if assign[level] >= h.n:
            assign[level] = -1
            level -= 1
            continue
        c = assign[level]
        if any(not adj[c][assign[j]] for j in earlier[level]):
            continue
        if level == x.n - 1:
            return tuple(assign)
        level += 1
    return None


@dataclass
class HomInstance:
    """The hom-set diagram of a bag decomposition, keeping the underlying
    maps for stitching a global homomorphism back together."""

    diagram: CoDecomposition
    bag_homs: tuple[HomSet, ...]
    adhesion_homs: tuple[HomSet, ...]


def build_hom_codecomp(b: BagDecomposition, h: SimpleGraph) -> HomInstance:
    """Vertex sets are the bag hom-sets, edge sets the adhesion hom-sets,
    legs the restriction maps."""
    bag_homs = tuple(hom_set(b.x, bag, h) for bag in b.bags)
    adhesion_homs = tuple(hom_set(b.x, adh, h) for adh in b.adhesions)
    legs = []
    for e, (p, q) in enumerate(b.shape.edges):
        target = adhesion_homs[e]
        lookup = target.index()
        pair = []
        for end in (p, q):
            source = bag_homs[end]
            sel = [source.vertices.index(v) for v in target.vertices]
            table = tuple(
                lookup[tuple(m[i] for i in sel)] for m in source.maps)
            pair.append(FinFn(len(source.maps), len(target.maps), table))
        legs.append(tuple(pair))
    diagram = CoDecomposition(
        b.shape,
        [hs.obj for hs in bag_homs],
        [hs.obj for hs in adhesion_homs],
        legs,
    )
    return HomInstance(diagram, bag_homs, adhesion_homs)


def _stitch_coloring(b: BagDecomposition, inst: HomInstance,
                     result: InLimResult) -> tuple[int, ...]:
    coloring: list[int | None] = [None] * b.x.n
    for x, hom_idx in enumerate(result.witness.vertex_elements):
        m = inst.bag_homs[x].maps[hom_idx]
        for v, c in zip(inst.bag_homs[x].vertices, m):
            if coloring[v] is None:
                coloring[v] = c
            elif coloring[v] != c:
                raise AssertionError(
                    f"bags disagree on vertex {v}; decomposition lacks "
                    f"gluing completeness")
    return tuple(coloring)


def hom_exists(
    b: BagDecomposition,
    h: SimpleGraph,
    fvs: VertexSet | None = None,
    k_max: int | None = None,
    want_coloring: bool = False,
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether X admits a homomorphism into h, via the hom-set
    diagram: the limit is nonempty iff a homomorphism exists.  Optionally
    stitches the per-bag maps of a witness into one verified map."""
    problems = validate_decomposition(b)
    if problems:
        raise ValueError("invalid decomposition: " + "; ".join(problems))
    inst = build_hom_codecomp(b, h)
    result = inlim(inst.diagram, fvs=fvs, k_max=k_max,
                   want_witness=want_coloring)
    if result.verdict.empty_limit:
        return False, None
    if not want_coloring:
        return True, None
    coloring = _stitch_coloring(b, inst, result)
    hadj = {(u, v) for u, v in h.edges} | {(v, u) for u, v in h.edges}
    for u, v in b.x.edges:
        if (coloring[u], coloring[v]) not in hadj:
            raise AssertionError(
                f"stitched map sends edge {{{u},{v}}} to a non-edge")
    return True, coloring
