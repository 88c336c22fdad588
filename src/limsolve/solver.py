"""Deciding emptiness of diagram limits.

The paper's reduction, as one core over the base diagram.  Every vertex of
a feedback vertex set S is pinned to a single element, and one section test
runs per combination of pinned values; the limit is empty iff every test is
empty.  The BFS plan of the forest G - S is built once per solve, and its
edge count is the check that S is a feedback vertex set.  A test filters
the pinned vertices' edges and runs the leaves-to-root pass over the plan:
afterwards every vertex keeps the elements that extend over its subtree,
so that pass alone decides the test, and one root-to-leaves walk over the
same plan reads the witness off the first nonempty test.  The
root-to-leaves filter pass, which turns masks into the image subdiagram,
runs only in image_tree.

inlim runs the tests bit-sliced: one int per (vertex, element) whose bit j
says whether combination j keeps the element; a pinned vertex is a leaf
that restricts each neighbour once, and a plan edge restricts only its
parent p by its child c's rows (Yannakakis's upward semijoin pass), in
O(|d(c)| + |d(p)| + |d(e)|) B-bit word operations for B combinations.
That is ceil(w^k / B) sweeps in Sum |d(v)| * B bits of state, within the
paper's O(w^k * w^2 * n).  section_tests, forest_initial and image_tree run
one test at a time on SubMasks, through the two-sided filter_edges: they
are the per-combination reference that the tests check the sweep against.

The passes are iterative on purpose: path shapes with 10^5 vertices would
overflow the recursion limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .diagram import (
    CoDecomposition,
    SubMask,
    Verdict,
    filter_edges,
    restrict_to_subgraph,
)
from .graphs import SimpleGraph, VertexSet, _bfs, fvs_exact


@dataclass(frozen=True)
class Witness:
    """A global matching family: one element per shape vertex, and the
    induced element per shape edge."""

    vertex_elements: tuple[int, ...]
    edge_elements: tuple[int, ...]


@dataclass(frozen=True)
class SectionAssignment:
    """One chosen element per feedback vertex, sorted by vertex index."""

    choices: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.choices)


@dataclass
class SectionTest:
    """One pinned-and-filtered forest instance of the reduction.

    When pinning already emptied a mask, immediately_empty is set and no
    restricted diagram is produced.  Otherwise tau/tau_mask hold the
    diagram restricted to the forest, and the index maps (old -> new)
    relate it back to the original shape.
    """

    assignment: SectionAssignment
    immediately_empty: bool
    tau: CoDecomposition | None
    tau_mask: SubMask | None
    vertex_map: list[int | None] | None
    edge_map: list[int | None] | None


@dataclass
class InLimResult:
    verdict: Verdict
    witness: Witness | None
    fvs: tuple[int, ...]
    section_test_count: int


def witness_violations(d: CoDecomposition, w: Witness) -> list[str]:
    """Check a witness against every edge constraint of the diagram."""
    problems = []
    if len(w.vertex_elements) != d.shape.n or len(w.edge_elements) != d.shape.m:
        return ["witness arity differs from shape"]
    for e, ((u, v), (tu, tv)) in enumerate(zip(d.shape.edges, d.tables)):
        au = tu[w.vertex_elements[u]]
        av = tv[w.vertex_elements[v]]
        if not au == av == w.edge_elements[e]:
            problems.append(
                f"edge {e}: endpoint values map to {au} and {av}, "
                f"edge element is {w.edge_elements[e]}")
    return problems


def _forest_plan(g: SimpleGraph, s: VertexSet | None = None) -> tuple[list[int], ...]:
    """The sweep schedule of g minus s: (edge ids leaves-to-root, each such
    edge's child endpoint, the root of every component in ascending order).

    One breadth-first search of g minus s serves as component finder,
    forest check (g - s is a forest iff the search discovers all of its
    edges) and schedule: reversed discovery order runs leaves-to-root,
    discovery order root-to-leaves.
    """
    if s is not None and s.n != g.n:
        raise ValueError("vertex set belongs to a different shape")
    seen = [False] * g.n
    inner = g.m
    if s:
        inc = g.incidence
        for v in s:  # byte-wise; testing s.mask per vertex is O(n^2 / 64)
            seen[v] = True
        inner -= len({e for v in s for e, _ in inc[v]})
    order, kids, trees = _bfs(g, seen)
    if len(order) != inner:
        raise ValueError("shape is not a forest" if s is None else
                         "supplied vertex set is not a feedback vertex set")
    order.reverse()
    kids.reverse()
    return order, kids, [tree[0] for tree in trees]


def _leaves_to_root(d: CoDecomposition, m: SubMask,
                    plan: tuple[list[int], ...]) -> bool:
    """The first sweep pass, in place and two-sided.  Afterwards every root
    keeps the elements that extend over its tree, so the planned forest
    admits a matching family iff this returns True."""
    up, _, roots = plan
    return filter_edges(d, m, up) and all(m.vertex[r] for r in roots)


def image_tree(d: CoDecomposition, m: SubMask) -> SubMask:
    """The image subdiagram of the masked diagram, as a fresh mask.

    Each mask entry keeps exactly the elements that occur in some global
    matching family; in particular, if any component admits no family, the
    whole result is zero (there are no global families at all).
    """
    plan = _forest_plan(d.shape)
    out = m.copy()
    if _leaves_to_root(d, out, plan):
        filter_edges(d, out, reversed(plan[0]))
    else:
        out.zero()
    return out


def forest_initial(d: CoDecomposition, m: SubMask) -> Verdict:
    """Emptiness for forest shapes, by the leaves-to-root pass alone."""
    return Verdict(not _leaves_to_root(d, m.copy(), _forest_plan(d.shape)))


def section_tests(d: CoDecomposition, s: VertexSet):
    """Lazily yield one SectionTest per way of pinning every vertex of the
    feedback vertex set s to a single element.

    Pinned combinations are enumerated lexicographically.  For each one,
    every edge incident to a pinned vertex is filtered (per vertex in
    ascending index order, edges by ascending id); if a mask empties, the
    test is tagged immediately_empty, otherwise the diagram is restricted
    to the forest obtained by dropping s.  inlim runs the same tests
    bit-sliced, without restricting.
    """
    _forest_plan(d.shape, s)
    if not s:
        # empty product has exactly one element; the test diagram is d itself
        yield SectionTest(SectionAssignment(()), False, d, d.full_mask(),
                          list(range(d.shape.n)), list(range(d.shape.m)))
        return
    keep = s.complement()
    pinned = list(s)
    pin_edges = [e for v in pinned for e, _ in d.shape.incidence[v]]
    base = d.full_mask()
    for combo in itertools.product(*(range(d.vertex_size[v]) for v in pinned)):
        assignment = SectionAssignment(tuple(zip(pinned, combo)))
        m = base.copy()
        for v, a in assignment.choices:
            m.vertex[v] = 1 << a
        if not filter_edges(d, m, pin_edges):
            yield SectionTest(assignment, True, None, None, None, None)
        else:
            r = restrict_to_subgraph(d, m, keep)
            yield SectionTest(assignment, False, r.diagram, r.mask,
                              r.vertex_map, r.edge_map)


def _resolve_fvs(shape: SimpleGraph, fvs: VertexSet | None,
                 k_max: int | None) -> VertexSet:
    """The supplied set (whether it is a feedback vertex set is checked when
    the forest plan is built), or a minimum one found within k_max."""
    if fvs is not None:
        return fvs
    budget = shape.n if k_max is None else k_max
    found = fvs_exact(shape, budget)
    if found is None:
        raise ValueError(f"no feedback vertex set of size <= {budget}")
    return found


# Combinations per sliced sweep: max(_MIN_BLOCK, _STATE_BITS // Sum |d(v)|),
# so the rows of a block hold about 2 MB of bits.
_MIN_BLOCK = 64
_STATE_BITS = 2 ** 24


def _digit_rows(lo: int, width: int, stride: int, size: int) -> list[int]:
    """Per element a of one pinned vertex: the bits b < width of the
    combinations lo + b that pin it to a, i.e. whose digit
    (lo + b) // stride % size is a."""
    rows = [0] * size
    period = stride * size
    span = min(period, width)
    b = 0
    while b < span:  # one run of equal digits per step
        j = lo + b
        run = min(stride - j % stride, span - b)
        rows[j // stride % size] |= ((1 << run) - 1) << b
        b += run
    if span < width:  # tile the first period by doubling
        keep = (1 << width) - 1
        for a, row in enumerate(rows):
            filled = period
            while filled < width:
                row |= row << filled
                filled *= 2
            rows[a] = row & keep
    return rows


def _sliced_sweep(d: CoDecomposition, pinned: list[int],
                  plan: tuple[list[int], ...], lo: int, width: int):
    """Run the combinations lo .. lo + width - 1 as one sweep.

    Each arc of edge e from c into p runs once for the whole block: it ORs
    c's rows into hits per element of d(e) and keeps in p's rows only the
    hits at p's leg value.  A pinned vertex is a leaf: each of its edges
    runs one arc, out of it, and its rows stay one-hot at its pinned value
    unless another pinned vertex restricts them.  A plan edge runs the arc
    from child into parent, so a vertex's rows keep what extends over its
    subtree, and a combination that some arc empties dies at a root or at
    a pinned vertex.  Returns (state, start, the bits of the combinations
    whose test is nonempty): state[start[v] + a] has bit b set iff
    combination lo + b keeps element a at v.  start[v] is -1 for an
    unpinned vertex without edges, which keeps all of its elements.  The
    rows share one flat list, so a sweep leaves no per-vertex containers
    for the garbage collector to trace.
    """
    shape = d.shape
    inc = shape.incidence
    sizes = d.vertex_size
    full = (1 << width) - 1
    state: list[int] = []
    start = [-1] * shape.n
    stride = 1
    for v in reversed(pinned):
        start[v] = len(state)
        state += _digit_rows(lo, width, stride, sizes[v])
        stride *= sizes[v]
    for v in range(shape.n):
        if start[v] < 0 and inc[v]:
            start[v] = len(state)
            state += [full] * sizes[v]
    edges = shape.edges
    tables = d.tables
    edge_size = d.edge_size
    up, kids, roots = plan
    pin_arcs = ((e, v) for v in pinned for e, _ in inc[v])
    for e, c in itertools.chain(pin_arcs, zip(up, kids)):
        u, v = edges[e]
        tu, tv = tables[e]
        if c == u:
            tc, p, tp = tu, v, tv
        else:
            tc, p, tp = tv, u, tu
        sc = start[c]
        sp = start[p]
        ep = sp + len(tp)
        hit = [0] * edge_size[e]
        for row, x in zip(state[sc:sc + len(tc)], tc):
            hit[x] |= row
        new = [row & hit[x] for row, x in zip(state[sp:ep], tp)]
        if not any(new):  # every test of the block is empty
            return state, start, 0
        state[sp:ep] = new
    alive = full
    for v in itertools.chain(roots, pinned):
        if start[v] < 0:
            if not sizes[v]:
                return state, start, 0
            continue
        survive = 0
        for row in state[start[v]:start[v] + sizes[v]]:
            survive |= row
        alive &= survive
    return state, start, alive


def inlim(
    d: CoDecomposition,
    fvs: VertexSet | None = None,
    k_max: int | None = None,
    want_witness: bool = False,
    early_exit: bool = True,
) -> InLimResult:
    """Decide whether the limit of the diagram is empty.

    A feedback vertex set S is taken as given or found by exact search
    within k_max, and one forest plan of G - S is built.  The w^k pinned
    combinations, numbered lexicographically, run bit-sliced in blocks of
    B: one int per (vertex, element) whose bit j says whether combination
    j keeps that element, and each plan edge restricts its parent by its
    child's rows once per block, in O(|d(c)| + |d(p)| + |d(e)|) B-bit word
    operations.  That is ceil(w^k / B) sweeps in Sum |d(v)| * B bits of
    state, where B = max(64, 2^24 // Sum |d(v)|).  The limit is
    empty iff no combination survives, so the blocks stop at the first one
    with a survivor.  section_test_count is the index of the first
    survivor plus one, or every combination when early_exit is off or the
    limit is empty.  The witness is deterministic: one root-to-leaves walk
    over the same plan reads the lowest-index extension off the rows of
    the lexicographically first surviving combination.
    """
    s = _resolve_fvs(d.shape, fvs, k_max)
    plan = _forest_plan(d.shape, s)
    pinned = list(s)
    total = math.prod(d.vertex_size[v] for v in pinned)
    block = max(_MIN_BLOCK, _STATE_BITS // max(1, sum(d.vertex_size)))
    lo = 0
    while lo < total:
        width = min(block, total - lo)
        state, start, alive = _sliced_sweep(d, pinned, plan, lo, width)
        if alive:
            break
        lo += width
    else:
        return InLimResult(Verdict(True), None, tuple(s), total)
    first = alive & -alive
    witness = (_read_family(d, plan, pinned, state, start, first)
               if want_witness else None)
    return InLimResult(Verdict(False), witness, tuple(s),
                       lo + first.bit_length() if early_exit else total)


def _read_family(d: CoDecomposition, plan: tuple[list[int], ...],
                 pinned: list[int], state: list[int], start: list[int],
                 first: int) -> Witness:
    """One matching family, read root-to-leaves over the plan off rows laid
    out as _sliced_sweep leaves them: element a of vertex c is kept iff
    start[c] < 0 or bit first is set in state[start[c] + a].

    Each root and pinned vertex takes its lowest kept element, and each
    child its lowest kept element whose leg value matches the parent's.
    That element exists when the rows went through the leaves-to-root pass:
    a kept parent element then matches some child element that extends
    over the child's subtree.  The family is checked against every edge of
    d before it is returned.
    """
    vertex: list[int | None] = [None] * d.shape.n
    up, kids, roots = plan
    for r in itertools.chain(roots, pinned):
        i = start[r]
        vertex[r] = next((a for a in range(d.vertex_size[r])
                          if i < 0 or state[i + a] & first), None)
        if vertex[r] is None:
            raise ValueError(f"empty image mask at vertex {r}")
    edges = d.shape.edges
    tables = d.tables
    for e, c in zip(reversed(up), reversed(kids)):
        u, v = edges[e]
        tu, tv = tables[e]
        if c == v:
            table, x = tv, tu[vertex[u]]
        else:
            table, x = tu, tv[vertex[v]]
        i = start[c]  # a child has an edge, so it has rows
        for a, y in enumerate(table):
            if y == x and state[i + a] & first:
                vertex[c] = a
                break
        else:
            raise ValueError(
                f"no element of vertex {c} matches the parent across "
                f"edge {e}; mask is not swept leaves-to-root")
    w = Witness(tuple(vertex),
                tuple(tu[vertex[u]] for (u, _), (tu, _) in zip(edges, tables)))
    problems = witness_violations(d, w)
    if problems:
        raise ValueError("extracted family violates edge constraints: "
                         + "; ".join(problems))
    return w


def extract_witness(
    d: CoDecomposition,
    image_mask: SubMask,
    sigma: SectionAssignment | None = None,
) -> Witness:
    """Read one matching family off a mask after the leaves-to-root pass
    over this shape's plan (an image mask is one).

    The shape minus the pinned vertices (if any) must be a forest, else
    ValueError.  The vertex masks go as width-1 rows, a pinned vertex's
    holding only its pinned element, through the walk inlim reads its
    witness with.  After the leaves-to-root pass, a child's mask and its
    image mask agree on the elements that match a parent element of the
    image, so both give the same family.
    """
    pinned = sigma.as_dict() if sigma is not None else {}
    n = d.shape.n
    for v, a in pinned.items():
        if not 0 <= a < d.vertex_size[v]:
            raise ValueError(f"pinned element {a} out of range at vertex {v}")
    plan = _forest_plan(d.shape, VertexSet.of(n, pinned))
    state: list[int] = []
    start = []
    for v, size in enumerate(d.vertex_size):
        start.append(len(state))
        mask = 1 << pinned[v] if v in pinned else image_mask.vertex[v]
        state += [mask >> a & 1 for a in range(size)]
    return _read_family(d, plan, list(pinned), state, start, 1)
