"""Graph-shaped diagrams of finite sets and mask-based subdiagrams.

A diagram assigns a finite set to every vertex and every edge of a simple
graph; each edge carries one leg function per endpoint, sending the
endpoint's elements into the edge set.  An element of the limit picks one
element per vertex so that for every edge both endpoint choices map to the
same edge element.

A diagram is stored as columns only: the vertex and edge set sizes as
int lists, one (table at u, table at v) pair of leg tables per edge, and
labels only for the sets that have them.  Every builder writes these
columns and every reader reads them, so building, loading and solving a
diagram makes no per-set objects.

Subdiagrams never copy the base diagram: they are bitmasks over its
sets (one mask per vertex set, one per edge set, whose bit a is set when
element a is kept).  The mask invariant is leg-closure: masked vertex
elements must map into the masked edge set.  ``filter_edge`` narrows a
mask across one edge, in place, and ``filter_edges`` across a list of
edges.  filter_edges is the one-combination reference that image_tree,
forest_initial and section_tests run on and that inlim's bit-sliced sweep
is tested against; inlim itself never calls either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import lt

from .graphs import SimpleGraph, VertexSet, _induced, all_pairs


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


def tables_fit(tables, sources: list[int], targets: list[int]) -> bool:
    """Whether every tables[i] is a list or tuple of length sources[i] with
    int (not bool) entries in [0, targets[i]): a few passes over all the
    tables at once, without a Python step per table.  When the largest
    entry is below the smallest target, no table's own largest entry is
    needed."""
    if not set(map(type, tables)) <= {list, tuple}:
        return False
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


class CoDecomposition:
    """A diagram over a simple graph shape, stored as columns.

    vertex_size[x] and edge_size[e] are the set sizes; tables[e] is the
    pair of leg tables of edge e, in the same order as the endpoints in
    shape.edges[e], and tables[e][i][a] is the edge element that element a
    of that endpoint maps to.  vertex_labels and edge_labels map a set's
    index to its labels, for the labelled sets only.  The columns are
    kept, not copied; only their lengths are checked here, and validate(d)
    checks the tables.
    """

    __slots__ = ("shape", "vertex_size", "edge_size", "tables",
                 "vertex_labels", "edge_labels")

    def __init__(self, shape: SimpleGraph, vertex_size: list[int],
                 edge_size: list[int], tables: list[tuple],
                 vertex_labels: dict | None = None,
                 edge_labels: dict | None = None):
        if len(vertex_size) != shape.n:
            raise ValueError("one set per shape vertex required")
        if len(edge_size) != shape.m:
            raise ValueError("one set per shape edge required")
        if len(tables) != shape.m:
            raise ValueError("exactly two legs per shape edge required")
        self.shape = shape
        self.vertex_size = vertex_size
        self.edge_size = edge_size
        self.tables = tables
        self.vertex_labels = vertex_labels or {}
        self.edge_labels = edge_labels or {}

    @property
    def edge_data(self) -> list[tuple[int, int, tuple, tuple]]:
        """Per edge: (u, v, table at u, table at v), built afresh from the
        columns on every read."""
        return [(u, v, tu, tv) for (u, v), (tu, tv)
                in zip(self.shape.edges, self.tables)]

    def width(self) -> int:
        """Largest vertex set size (the w of the running-time bounds)."""
        return max(self.vertex_size, default=0)

    def full_mask(self) -> "SubMask":
        return SubMask([(1 << s) - 1 for s in self.vertex_size],
                       [(1 << s) - 1 for s in self.edge_size])

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
    """All diagram invariants; returns a list of violations, empty when ok.
    A set size must be an int (not a bool) >= 0, each edge needs a pair of
    leg tables, a table entry must be an int (not a bool) in [0, edge set
    size), a label key must be a set index, and a labelled set needs a list
    or tuple of distinct labels, one per element.  The tables and labels
    are checked against the sizes, so only when every size is one."""
    return size_problems(d) or sized_problems(d)


def sized_problems(d: CoDecomposition) -> list[str]:
    """The leg tables and labels of d, checked against its set sizes, which
    must have passed size_problems."""
    problems = []
    # the common case, every table fine, takes no Python step per table;
    # _table_problems then finds, and names, what is wrong
    if not (all_pairs(d.tables) and tables_fit(
            list(chain.from_iterable(d.tables)),
            [d.vertex_size[x] for uv in d.shape.edges for x in uv],
            [size for size in d.edge_size for _ in (0, 1)])):
        problems += _table_problems(d)
    # only the labelled sets are read: no Python step per unlabelled set
    for kind, sizes, labels in (("vertex", d.vertex_size, d.vertex_labels),
                                ("edge", d.edge_size, d.edge_labels)):
        stray = [i for i in labels
                 if type(i) is not int or not 0 <= i < len(sizes)]
        problems += [f"{kind} labels: key {i!r} names no {kind} set"
                     for i in stray]
        for i in sorted(labels.keys() - stray):
            names = labels[i]
            if type(names) not in (list, tuple):
                problems.append(f"{kind} set {i}: labels {names!r} are not "
                                f"a list or tuple")
            elif not len(names) == len(set(names)) == sizes[i]:
                problems.append(f"{kind} set {i}: labels {names!r} are not "
                                f"{sizes[i]} distinct names")
    return problems


def size_problems(d: CoDecomposition) -> list[str]:
    """Each set size that is not an int (bool excluded) >= 0, named; all
    sizes are checked at once, and walked only to name a problem."""
    problems = []
    for kind, sizes in (("vertex", d.vertex_size), ("edge", d.edge_size)):
        if not (set(map(type, sizes)) <= {int} and min(sizes, default=0) >= 0):
            problems += [f"{kind} set {i}: size {x!r} is not a non-negative "
                         f"integer" for i, x in enumerate(sizes)
                         if type(x) is not int or x < 0]
    return problems


def _table_problems(d: CoDecomposition) -> list[str]:
    problems = []
    for e, ((u, v), pair) in enumerate(zip(d.shape.edges, d.tables)):
        if not all_pairs([pair]):
            problems.append(f"edge {e}: legs are not a pair of tables")
            continue
        size = d.edge_size[e]
        for x, table in zip((u, v), pair):
            if type(table) not in (list, tuple):
                problems.append(f"leg of edge {e} at vertex {x}: table is "
                                f"not a list or tuple")
                continue
            if len(table) != d.vertex_size[x]:
                problems.append(
                    f"leg of edge {e} at vertex {x}: source size "
                    f"{len(table)} != vertex set size {d.vertex_size[x]}")
            problems += [f"leg of edge {e} at vertex {x}: entry {t!r} at "
                         f"position {i} is not a non-negative integer"
                         for i, t in enumerate(table)
                         if type(t) is not int or t < 0]
            reach = max((t for t in table if type(t) is int), default=-1) + 1
            if reach > size:
                problems.append(
                    f"leg of edge {e} at vertex {x}: table needs target "
                    f"size {reach} > edge set size {size}")
    return problems


def check_leg_closure(d: CoDecomposition, m: SubMask) -> list[str]:
    """Violations of the mask invariant: masked vertex elements must map
    into the masked edge set."""
    problems = []
    for e, ((u, v), pair) in enumerate(zip(d.shape.edges, d.tables)):
        em = m.edge[e]
        for x, table in zip((u, v), pair):
            for a in bits(m.vertex[x]):
                if not em >> table[a] & 1:
                    problems.append(
                        f"edge {e}, vertex {x}: element {a} maps to "
                        f"{table[a]} outside the edge mask")
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

    Each side's hit set is the image of its mask under its leg table; a
    side keeps the elements whose table value lands in the shared image.
    Returns False at the first edge whose shared image is empty; that edge
    and both its endpoints are then zeroed, so the mask stays leg-closed.
    image_tree, forest_initial and section_tests run on this loop; inlim
    filters many section tests at once over the same leg tables instead.
    """
    vert = m.vertex
    edge = m.edge
    edges = d.shape.edges
    tables = d.tables
    for e in eids:
        u, v = edges[e]
        tu, tv = tables[e]
        hit_u = table_image(tu, vert[u])
        hit_v = table_image(tv, vert[v])
        common = hit_u & hit_v
        edge[e] = common
        if not common:
            vert[u] = 0
            vert[v] = 0
            return False
        # a side whose hits are all shared keeps its mask as it is
        if common != hit_u:
            vert[u] = mask_of(a for a in bits(vert[u]) if common >> tu[a] & 1)
        if common != hit_v:
            vert[v] = mask_of(a for a in bits(vert[v]) if common >> tv[a] & 1)
    return True


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
    endpoints kept survive.  The leg tables are shared, not copied, and the
    labels are re-indexed."""
    if keep.n != d.shape.n:
        raise ValueError("vertex set belongs to a different graph")
    kept = list(keep)
    (sub_shape,), vmap = _induced(d.shape, [kept])
    eids = [e for e, (u, v) in enumerate(d.shape.edges)
            if vmap[u] is not None and vmap[v] is not None]
    emap: list[int | None] = [None] * d.shape.m
    for new_e, e in enumerate(eids):
        emap[e] = new_e
    diagram = CoDecomposition(
        sub_shape, [d.vertex_size[v] for v in kept],
        [d.edge_size[e] for e in eids], [d.tables[e] for e in eids],
        _reindexed(d.vertex_labels, kept), _reindexed(d.edge_labels, eids))
    mask = SubMask([m.vertex[v] for v in kept], [m.edge[e] for e in eids])
    return Restriction(diagram, mask, vmap, emap)


def _reindexed(labels, old_ids) -> dict[int, tuple[str, ...]]:
    return {new: labels[old] for new, old in enumerate(old_ids)
            if old in labels}


def as_subdiagram(d: CoDecomposition, m: SubMask) -> CoDecomposition:
    """Materialize the masked subdiagram as a standalone diagram with
    densely re-indexed elements.  Raises on leg-closure violations."""
    problems = check_leg_closure(d, m)
    if problems:
        raise ValueError("mask is not leg-closed: " + "; ".join(problems))
    vertex_kept = [list(bits(mask)) for mask in m.vertex]
    edge_kept = [list(bits(mask)) for mask in m.edge]
    tables = []
    for (u, v), (tu, tv), kept in zip(d.shape.edges, d.tables, edge_kept):
        index = {old: new for new, old in enumerate(kept)}
        tables.append((tuple(index[tu[a]] for a in vertex_kept[u]),
                       tuple(index[tv[a]] for a in vertex_kept[v])))
    return CoDecomposition(
        d.shape, [len(k) for k in vertex_kept], [len(k) for k in edge_kept],
        tables, _kept_labels(d.vertex_labels, vertex_kept),
        _kept_labels(d.edge_labels, edge_kept))


def _kept_labels(labels, kept) -> dict[int, tuple[str, ...]]:
    return {i: tuple(lab[a] for a in kept[i]) for i, lab in labels.items()}
