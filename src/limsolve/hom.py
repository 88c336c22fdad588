"""Graph homomorphism existence via diagrams of hom-sets.

Given a bag decomposition of a graph X, each bag contributes the set of
homomorphisms from its induced subgraph into a template H, and each
adhesion the corresponding restriction maps.  A global matching family of
that diagram is exactly a compatible choice of partial homomorphisms, so X
admits a homomorphism into H iff the diagram's limit is nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, compress, count, repeat
from operator import and_, itemgetter

from .diagram import CoDecomposition, _recorded
from .graphs import MAX_SET_SIZE, SimpleGraph, VertexSet, is_forest
from .solver import inlim


@dataclass
class BagDecomposition:
    """Bags of X-vertices per shape vertex, adhesions per shape edge.

    Adhesions not given (None) default to the intersection of the endpoint
    bags; given ones are kept, even an empty tuple on a shape with edges,
    which validate_decomposition then refuses.  Each bag and adhesion is
    stored as its distinct ids, ascending.
    """

    x: SimpleGraph
    shape: SimpleGraph
    bags: tuple[tuple[int, ...], ...]
    adhesions: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        self.bags = _sorted_ids(self.bags, "bag")
        if self.adhesions is not None:
            self.adhesions = _sorted_ids(self.adhesions, "adhesion")
        else:
            self.adhesions = tuple(
                tuple(sorted(set(self.bags[u]) & set(self.bags[v])))
                for u, v in self.shape.edges)


def _sorted_ids(groups, kind: str) -> tuple[tuple[int, ...], ...]:
    """Each group's distinct ids, ascending; ValueError names a group
    whose ids cannot be sorted.  Ids of the wrong type or range are left
    for validate_decomposition."""
    out = []
    for i, group in enumerate(groups):
        try:
            out.append(tuple(sorted(set(group))))
        except TypeError as exc:
            raise ValueError(f"{kind} {i}: ids cannot be sorted ({exc})"
                             ) from None
    return tuple(out)


def validate_decomposition(b: BagDecomposition) -> list[str]:
    """Checkable sufficient conditions for the bags to reassemble X:
    coverage, adhesion containment, and gluing completeness.  A kind of
    per-vertex or per-edge problem is one line, however many it counts.

    A valid decomposition over a shape that is_forest accepts is accepted
    by _holds in whole-list passes, with no plan built; the walk runs on a
    cyclic shape, or to name the problems."""
    if len(b.bags) != b.shape.n:
        return ["one bag per shape vertex required"]
    if len(b.adhesions) != b.shape.m:
        return ["one adhesion per shape edge required"]
    return [] if _holds(b) else _walk(b)


def _holds(b: BagDecomposition) -> bool:
    """False on a cyclic shape, left to _walk; on a forest shape, True
    exactly when _walk finds no problem.  Ids are checked by a type set,
    min and max, coverage by the size of the id set, and each X-edge by
    the bags' position pairs as they stream by.  An adhesion equal to the
    intersection of its bags is contained in both and holds every vertex
    in both.  Then each X-vertex v in c_v components of its h_v holders
    has h_v - c_v adhesions on a forest shape, so the bag entries less the
    adhesion entries count every c_v, each at least 1, plus any repeated
    entry: that count is |X| iff every c_v is 1 and no entry repeats."""
    if not is_forest(b.shape):
        return False
    n = b.x.n
    entries = list(chain.from_iterable(b.bags))
    if entries and not ({*map(type, entries)} == {int}
                        and min(entries) >= 0 and max(entries) < n):
        return False
    if len(set(entries)) != n:
        return False
    # combinations of a sorted bag run lo < hi, as the edges are written
    edges = set(zip(map(min, b.x.edges), map(max, b.x.edges)))
    if len(edges.intersection(chain.from_iterable(
            map(combinations, b.bags, repeat(2))))) != len(edges):
        return False
    bag_sets = list(map(frozenset, b.bags))
    ends = b.shape.edges
    shared = list(map(and_,
                      map(bag_sets.__getitem__, map(itemgetter(0), ends)),
                      map(bag_sets.__getitem__, map(itemgetter(1), ends))))
    if shared != list(map(frozenset, b.adhesions)):
        return False
    return len(entries) - sum(map(len, shared)) == n


def _walk(b: BagDecomposition) -> list[str]:
    """validate_decomposition's problems, found vertex by vertex; the
    bag and adhesion counts must fit the shape."""
    problems = []
    # holders[v]: the shape vertices whose bags hold X-vertex v, ascending
    holders: list[list[int]] = [[] for _ in range(b.x.n)]
    for x, bag in enumerate(b.bags):
        for v in bag:
            if type(v) is not int or not 0 <= v < b.x.n:
                return [f"bag vertex {v!r} outside the target graph"]
            holders[v].append(x)
    problems += _summary([v for v in range(b.x.n) if not holders[v]],
                         "vertex of the target graph is in no bag",
                         "vertices of the target graph are in no bag")
    bag_sets = [set(bag) for bag in b.bags]
    # an edge fits in a bag of either end's holders, so the check scans the
    # end with fewer: linear in the bags when one vertex sits in many
    problems += _summary(
        [(u, v) for u, v in b.x.edges
         if not (any(v in bag_sets[x] for x in holders[u])
                 if len(holders[u]) <= len(holders[v])
                 else any(u in bag_sets[x] for x in holders[v]))],
        "edge of the target graph fits in no bag",
        "edges of the target graph fit in no bag", "{%d,%d}")
    problems += _summary(
        [e for e, ((p, q), a) in enumerate(zip(b.shape.edges, b.adhesions))
         if not (bag_sets[p].issuperset(a) and bag_sets[q].issuperset(a))],
        "shape edge has an adhesion not contained in both of its bags",
        "shape edges have adhesions not contained in both of their bags")
    # gluing completeness: per X-vertex, its bags form a connected shape
    # subgraph, and it belongs to the adhesion of every edge inside
    inc = b.shape.incidence
    split, outside = [], []
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
            split.append(v)
        inside = sorted(e for x in holders[v] for e, y in inc[x]
                        if x < y and v in bag_sets[y])
        for e in inside:
            if v not in b.adhesions[e]:
                outside.append((v, e))
    problems += _summary(
        split, "vertex of the target graph has bags that do not induce a "
        "connected shape subgraph", "vertices of the target graph have bags "
        "that do not induce a connected shape subgraph")
    problems += _summary(
        outside, "vertex in both bags of a shape edge is not in its adhesion",
        "vertices in both bags of a shape edge are not in its adhesion",
        "vertex %d at shape edge %d")
    return problems


def _summary(ids: list, one: str, many: str, form: str = "%d") -> list[str]:
    """One line for the ids, if any: their count, what they are, and the
    first five of them, each written as form % id."""
    more = ", …" if len(ids) > 5 else ""
    return [f"{len(ids)} {one if len(ids) == 1 else many}: "
            f"{', '.join(form % i for i in ids[:5])}{more}"] if ids else []


@dataclass(frozen=True)
class HomSet:
    """All homomorphisms from an induced subgraph of X into H; each map is
    a tuple of H-vertices aligned with the sorted X-vertex list."""

    vertices: tuple[int, ...]
    maps: tuple[tuple[int, ...], ...]


class _Allowed(dict):
    """The one-colour tuples that may follow a colouring of earlier
    neighbours in a map into h, ascending, keyed as itemgetter reads the
    colouring off a map: an int for one neighbour, else a tuple.  Filled
    on first read, from one neighbour set per vertex of h: O(|V(h)| +
    |E(h)|) memory, and a missed colouring costs its colours' degrees
    (|V(h)| for no colour)."""

    def __init__(self, h: SimpleGraph):
        super().__init__()
        self.h_n = h.n
        nbrs: list[set[int]] = [set() for _ in range(h.n)]
        for u, v in h.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.h_nbrs = nbrs

    def __missing__(self, colours) -> tuple[tuple[int], ...]:
        if type(colours) is not tuple:
            allowed = self.h_nbrs[colours]
        elif colours:
            allowed = reduce(and_, map(self.h_nbrs.__getitem__, colours))
        else:
            allowed = range(self.h_n)
        got = self[colours] = tuple([(c,) for c in sorted(allowed)])
        return got


class _Pattern:
    """A labelled pattern: its hom-set, the pattern one position shorter
    (up) with each map's index in its hom-set (parents), and the patterns
    one position longer, keyed by the new position's adjacency bits."""

    __slots__ = ("up", "maps", "parents", "next")

    def __init__(self, up: _Pattern | None, maps: tuple,
                 parents: tuple[int, ...]):
        self.up = up
        self.maps = maps
        self.parents = parents
        self.next: dict[int, _Pattern] = {}


class _HomSets:
    """Hom-sets into h of induced subgraphs of x, and restriction tables
    between them, each computed once per labelled pattern.

    The pattern of a sorted vertex list v_0 < ... < v_{k-1} says which
    pairs of positions are adjacent in x.  The patterns met so far form a
    trie of _Pattern nodes from the empty one: position j steps to the
    child keyed by a j-bit int whose bits, most significant first, say
    whether v_0, ..., v_{j-1} are adjacent to v_j.  Adjacency is read off
    one set of int edge codes, so a step costs one set lookup per earlier
    position, whatever the degrees in x, and hashes one j-bit int: a bag
    of k vertices costs O(k^2) in all.

    The hom-set depends only on the pattern, so each node holds the maps
    of its pattern, built once by extending its parent's, and each map's
    parent index.  A restriction table depends only on the bag's node and
    the positions of the adhesion inside the bag.  An adhesion that drops
    only the bag's last position is the parent node, so its table is the
    bag's parent indices; any other table is read through one
    map -> index dict per adhesion node.  The memo lives as long as the
    object: one hom_set or build_hom_codecomp call.
    """

    def __init__(self, x: SimpleGraph, h: SimpleGraph):
        n = self.x_n = x.n
        # one int per X-edge: hi * n + lo for endpoints lo < hi
        self.edge_codes = {v * n + u if u < v else u * n + v
                           for u, v in x.edges}
        self.h_n = h.n
        self.allowed = _Allowed(h)
        self.root = _Pattern(None, ((),), ())
        # per adhesion node, each map's index, keyed as itemgetter reads it
        self.lookups: dict[_Pattern, dict] = {}
        self.tables: dict[tuple, tuple] = {}

    def pattern(self, verts: tuple[int, ...], where: str) -> _Pattern:
        """The node of a sorted vertex list, its hom-set lexicographic by
        vertex map."""
        codes = self.edge_codes
        n = self.x_n
        node = self.root
        for j, v in enumerate(verts):
            hi = v * n
            bits = 0
            for lo in verts[:j]:
                bits = bits << 1 | (hi + lo in codes)
            child = node.next.get(bits)
            if child is None:
                # the positions of the set bits, read off the digits
                earlier = tuple(compress(count(), map(
                    "1".__eq__, format(bits, f"0{j}b"))))
                child = node.next[bits] = _Pattern(
                    node, *self._extend(node.maps, earlier, where))
            node = child
        return node

    def _extend(self, maps: tuple, earlier: tuple[int, ...],
                where: str) -> tuple[tuple, tuple[int, ...]]:
        """The maps of a prefix extended by one vertex adjacent to the
        positions earlier, lexicographic: each map in turn, with every
        colour its earlier neighbours allow, ascending; and each new map's
        parent index.  Refuses a level that could exceed MAX_SET_SIZE
        maps."""
        if len(maps) * self.h_n > MAX_SET_SIZE:
            raise ValueError(
                f"{where}: hom-set may exceed the limit of {MAX_SET_SIZE} "
                f"maps ({len(maps)} partial maps times {self.h_n} template "
                f"vertices)")
        if earlier:
            rows = list(map(self.allowed.__getitem__,
                            map(itemgetter(*earlier), maps)))
        else:
            rows = [self.allowed[()]] * len(maps)
        return (tuple([m + c for m, cs in zip(maps, rows) for c in cs]),
                tuple([i for i, cs in enumerate(rows) for _ in cs]))

    def table(self, bag: _Pattern, size: int, adh: tuple[int, ...],
              sel: tuple[int, ...], where: str) -> tuple:
        """The restriction of the hom-set of a size-vertex bag to the
        adhesion adh at the positions sel, and the hom-set it lands in:
        (table, adhesion maps), memoised under (bag, sel)."""
        got = self.tables.get((bag, sel))
        if got is not None:
            return got
        if size and sel == tuple(range(size - 1)):
            got = (bag.parents, bag.up.maps)
        else:
            target = self.pattern(adh, where)
            if sel:
                lookup = self.lookups.get(target)
                if lookup is None:
                    lookup = self.lookups[target] = dict(zip(
                        map(itemgetter(*range(len(sel))), target.maps),
                        count()))
                table = tuple(map(lookup.__getitem__,
                                  map(itemgetter(*sel), bag.maps)))
            else:
                table = (0,) * len(bag.maps)
            got = (table, target.maps)
        self.tables[bag, sel] = got
        return got


def hom_set(x: SimpleGraph, vertices, h: SimpleGraph) -> HomSet:
    """Enumerate homomorphisms from the subgraph of x induced on the given
    vertices into h, lexicographic by vertex map.  Raises ValueError on a
    vertex id that is not an int (bools included) in [0, x.n), and when
    the enumeration could exceed MAX_SET_SIZE maps."""
    vertices = list(vertices)
    for v in vertices:
        if type(v) is not int or not 0 <= v < x.n:
            raise ValueError(f"vertex {v!r} is not a vertex of the graph "
                             f"(an int in [0, {x.n}))")
    verts = tuple(sorted(set(vertices)))
    homs = _HomSets(x, h)
    return HomSet(verts, homs.pattern(verts, "vertex set").maps)


def find_homomorphism(x: SimpleGraph, h: SimpleGraph) -> tuple[int, ...] | None:
    """First homomorphism x -> h by direct backtracking, or None.

    Used as the independent check against the diagram route.
    """
    # ordered pairs: O(|E(h)|) memory, where a matrix is O(|V(h)|^2)
    adj = {*h.edges, *((v, u) for u, v in h.edges)}
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
        if any((c, assign[j]) not in adj for j in earlier[level]):
            continue
        if level == x.n - 1:
            return tuple(assign)
        level += 1
    return None


@dataclass
class HomInstance:
    """The hom-set diagram of a bag decomposition, and each bag's maps, for
    stitching a global homomorphism back together."""

    diagram: CoDecomposition
    bag_maps: tuple[tuple[tuple[int, ...], ...], ...]


def build_hom_codecomp(b: BagDecomposition, h: SimpleGraph) -> HomInstance:
    """Vertex sets are the bag hom-sets, edge sets the adhesion hom-sets,
    legs the restriction maps.  Bags with one pattern share one maps tuple,
    and equal restrictions one table.  Bag vertex ids are not checked
    again: b must pass validate_decomposition, as hom_exists ensures.
    The diagram is valid as built, and recorded so.
    Raises ValueError when an adhesion is not contained in its bag, or a
    hom-set could exceed MAX_SET_SIZE maps."""
    homs = _HomSets(b.x, h)
    patterns = [homs.pattern(bag, f"bag {x}") for x, bag in enumerate(b.bags)]
    edge_size = []
    tables = []
    for e, ((p, q), adh) in enumerate(zip(b.shape.edges, b.adhesions)):
        where = f"adhesion of shape edge {e}"
        pair = []
        for end in (p, q):
            bag = b.bags[end]
            try:
                sel = tuple(map(bag.index, adh))
            except ValueError:
                raise ValueError(f"{where} is not contained in bag {end}") \
                    from None
            table, target = homs.table(patterns[end], len(bag), adh, sel,
                                       where)
            pair.append(table)
        edge_size.append(len(target))
        tables.append(tuple(pair))
    bag_maps = tuple(p.maps for p in patterns)
    diagram = _recorded(CoDecomposition(b.shape, list(map(len, bag_maps)),
                                        edge_size, tables))
    return HomInstance(diagram, bag_maps)


def hom_exists(
    b: BagDecomposition,
    h: SimpleGraph,
    fvs: VertexSet | None = None,
    k_max: int | None = None,
    want_coloring: bool = False,
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether X admits a homomorphism into h, via the hom-set
    diagram: the limit is nonempty iff a homomorphism exists.  Optionally
    stitches the per-bag maps of a witness into one verified map.

    fvs and k_max are read as inlim reads them.  The hom-set diagram,
    recorded valid as built, is not checked again: inlim plans its shape
    and sweeps it."""
    problems = validate_decomposition(b)
    if problems:
        raise ValueError("invalid decomposition: " + "; ".join(problems))
    inst = build_hom_codecomp(b, h)
    result = inlim(inst.diagram, fvs, k_max, want_coloring)
    if result.verdict.empty_limit:
        return False, None
    if not want_coloring:
        return True, None
    coloring: list[int | None] = [None] * b.x.n
    for bag, maps, hom_idx in zip(b.bags, inst.bag_maps,
                                  result.witness.vertex_elements):
        for v, c in zip(bag, maps[hom_idx]):
            if coloring[v] is None:
                coloring[v] = c
            elif coloring[v] != c:
                raise AssertionError(
                    f"bags disagree on vertex {v}; decomposition lacks "
                    f"gluing completeness")
    hadj = {(u, v) for u, v in h.edges} | {(v, u) for u, v in h.edges}
    for u, v in b.x.edges:
        if (coloring[u], coloring[v]) not in hadj:
            raise AssertionError(
                f"stitched map sends edge {{{u},{v}}} to a non-edge")
    return True, tuple(coloring)
