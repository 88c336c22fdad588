"""Graph homomorphism existence via diagrams of hom-sets.

Given a bag decomposition of a graph X, each bag contributes the set of
homomorphisms from its induced subgraph into a template H, and each
adhesion the corresponding restriction maps.  A global matching family of
that diagram is exactly a compatible choice of partial homomorphisms, so X
admits a homomorphism into H iff the diagram's limit is nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from operator import itemgetter

from .diagram import CoDecomposition
from .finset import MAX_SET_SIZE
from .graphs import SimpleGraph, VertexSet
from .solver import InLimResult, inlim


@dataclass
class BagDecomposition:
    """Bags of X-vertices per shape vertex, adhesions per shape edge.

    Adhesions not given (None) default to the intersection of the endpoint
    bags; given ones are kept, even an empty tuple on a shape with edges,
    which validate_decomposition then refuses.
    """

    x: SimpleGraph
    shape: SimpleGraph
    bags: tuple[tuple[int, ...], ...]
    adhesions: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        self.bags = tuple(tuple(sorted(set(b))) for b in self.bags)
        if self.adhesions is not None:
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

    def index(self) -> dict[tuple[int, ...], int]:
        return {m: i for i, m in enumerate(self.maps)}


class _HomSets:
    """Hom-sets into h of induced subgraphs of x, and restriction tables
    between them, each computed once per labelled pattern.

    The pattern of a sorted vertex list is, per position, the tuple of
    earlier positions adjacent to it in x.  The hom-set depends only on the
    pattern, so the maps of every prefix are memoised under the prefix's
    pattern and a new pattern extends its longest memoised prefix.  A
    restriction table depends only on the bag pattern and the positions of
    the adhesion inside the bag.  The memo lives as long as the object:
    one hom_set or build_hom_codecomp call.
    """

    def __init__(self, x: SimpleGraph, h: SimpleGraph):
        self.incidence = x.incidence
        self.h_n = h.n
        nbrs = [0] * h.n
        for u, v in h.edges:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        self.h_nbrs = nbrs
        # one-colour tuples appended to a map, per mask of allowed colours
        self.allowed: dict[int, tuple[tuple[int], ...]] = {}
        self.prefixes: dict[tuple, tuple] = {(): ((),)}
        self.tables: dict[tuple, tuple] = {}

    def pattern(self, verts: tuple[int, ...]) -> tuple[tuple, dict]:
        """The pattern of a sorted vertex list, and each vertex's position."""
        pos = {v: i for i, v in enumerate(verts)}
        inc = self.incidence
        return tuple(tuple(sorted(pos[w] for _, w in inc[v]
                                  if w < v and w in pos))
                     for v in verts), pos

    def maps(self, pattern: tuple, where: str) -> tuple:
        """The hom-set of a pattern, lexicographic by vertex map."""
        prefixes = self.prefixes
        maps = prefixes.get(pattern)
        if maps is None:
            start = len(pattern) - 1
            while pattern[:start] not in prefixes:
                start -= 1
            maps = prefixes[pattern[:start]]
            for j in range(start, len(pattern)):
                maps = self._extend(maps, pattern[j], where)
                prefixes[pattern[:j + 1]] = maps
        return maps

    def _extend(self, maps: tuple, earlier: tuple[int, ...],
                where: str) -> tuple:
        """The maps of a prefix extended by one vertex adjacent to the
        positions earlier, lexicographic: each map in turn, with every
        colour its earlier neighbours allow, ascending.  Refuses a level
        that could exceed MAX_SET_SIZE maps."""
        h_n = self.h_n
        if len(maps) * h_n > MAX_SET_SIZE:
            raise ValueError(
                f"{where}: hom-set may exceed the limit of {MAX_SET_SIZE} "
                f"maps ({len(maps)} partial maps times {h_n} template "
                f"vertices)")
        allowed = self.allowed
        nbrs = self.h_nbrs
        full = (1 << h_n) - 1
        out = []
        for m in maps:
            mask = full
            for j in earlier:
                mask &= nbrs[m[j]]
            cs = allowed.get(mask)
            if cs is None:
                cs = allowed[mask] = tuple((c,) for c in range(h_n)
                                           if mask >> c & 1)
            out += [m + c for c in cs]
        return tuple(out)

    def table(self, pattern: tuple, sel: tuple[int, ...], where: str) -> tuple:
        """The restriction of a bag hom-set to the positions sel, and the
        hom-set it lands in: (table, adhesion maps)."""
        key = (pattern, sel)
        got = self.tables.get(key)
        if got is None:
            # the adhesion's own pattern, read off the bag's
            rank = {i: r for r, i in enumerate(sel)}
            sub = tuple(tuple(rank[j] for j in pattern[i] if j in rank)
                        for i in sel)
            target = self.maps(sub, where)
            source = self.maps(pattern, where)
            if sel:
                # restriction keys made in C by one itemgetter per table
                lookup = dict(zip(map(itemgetter(*range(len(sel))), target),
                                  count()))
                table = tuple(map(lookup.__getitem__,
                                  map(itemgetter(*sel), source)))
            else:
                table = (0,) * len(source)
            got = self.tables[key] = (table, target)
        return got


def hom_set(x: SimpleGraph, vertices, h: SimpleGraph) -> HomSet:
    """Enumerate homomorphisms from the subgraph of x induced on the given
    vertices into h, lexicographic by vertex map.  Raises ValueError when
    the enumeration could exceed MAX_SET_SIZE maps."""
    verts = tuple(sorted(set(vertices)))
    homs = _HomSets(x, h)
    return HomSet(verts, homs.maps(homs.pattern(verts)[0], "vertex set"))


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
    legs the restriction maps.  Bags with one pattern share one maps tuple,
    and equal restrictions one table.  Raises ValueError when a hom-set
    could exceed MAX_SET_SIZE maps."""
    homs = _HomSets(b.x, h)
    patterns = []
    positions = []
    bag_homs = []
    for x, bag in enumerate(b.bags):
        pattern, pos = homs.pattern(bag)
        patterns.append(pattern)
        positions.append(pos)
        bag_homs.append(HomSet(bag, homs.maps(pattern, f"bag {x}")))
    adhesion_homs = []
    tables = []
    for e, ((p, q), adh) in enumerate(zip(b.shape.edges, b.adhesions)):
        where = f"adhesion of shape edge {e}"
        pair = []
        for end in (p, q):
            pos = positions[end]
            try:
                sel = tuple([pos[v] for v in adh])
            except KeyError:
                raise ValueError(f"{where} is not contained in bag {end}")
            table, target = homs.table(patterns[end], sel, where)
            pair.append(table)
        adhesion_homs.append(HomSet(adh, target))
        tables.append(tuple(pair))
    diagram = CoDecomposition.from_columns(
        b.shape, [len(hs.maps) for hs in bag_homs],
        [len(hs.maps) for hs in adhesion_homs], tables)
    return HomInstance(diagram, tuple(bag_homs), tuple(adhesion_homs))


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
