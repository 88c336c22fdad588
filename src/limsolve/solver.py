"""Deciding emptiness of diagram limits.

The paper's reduction, as one core over the base diagram.  Every vertex of
a feedback vertex set S is pinned to a single element, and one section test
runs per combination of pinned values; the limit is empty iff every test is
empty.  The BFS plan of the forest G - S is built once per solve, and its
edge count is the check that S is a feedback vertex set.  A test filters
the pinned vertices' edges and runs the leaves-to-root pass over the plan:
on a tree, the root mask after that pass is nonempty iff a matching family
exists, so that pass alone decides the test, and the witness of the first
nonempty test is read straight off its masks.  The root-to-leaves pass,
which turns the masks into the image subdiagram, runs only in image_tree.

inlim runs the tests bit-sliced: one int per (vertex, element) whose bit j
says whether combination j keeps the element, so each edge filter serves B
combinations at once.  That is ceil(w^k / B) sweeps of O(w^2 * n) B-bit
word operations, in Sum |d(v)| * B bits of state, for the paper's
O(w^k * w^2 * n) in total.  section_tests, forest_initial and image_tree
run one test at a time on SubMasks, through diagram.filter_edges.

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
from .finset import full_mask
from .graphs import SimpleGraph, VertexSet, fvs_exact


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
    for e, (u, v) in enumerate(d.shape.edges):
        au = d.legs[e][0](w.vertex_elements[u])
        av = d.legs[e][1](w.vertex_elements[v])
        if not au == av == w.edge_elements[e]:
            problems.append(
                f"edge {e}: endpoint values map to {au} and {av}, "
                f"edge element is {w.edge_elements[e]}")
    return problems


def _forest_plan(g: SimpleGraph, s: VertexSet | None = None) -> tuple[list[int], list[int]]:
    """The sweep schedule of g minus s: (edge ids leaves-to-root, the root
    of every component in ascending order).

    One BFS per component, rooted at its lowest vertex and following
    incidence order, serves as component finder, forest check (g - s is a
    forest iff the BFS discovers all of its edges) and schedule: reversed
    discovery order runs leaves-to-root, discovery order root-to-leaves.
    """
    if s is not None and s.n != g.n:
        raise ValueError("vertex set belongs to a different shape")
    inc = g.incidence
    seen = [False] * g.n
    inner = g.m
    if s:
        for v in s:  # byte-wise; testing s.mask per vertex is O(n^2 / 64)
            seen[v] = True
        inner -= sum(1 for u, v in g.edges if seen[u] or seen[v])
    order: list[int] = []
    roots = []
    for r in range(g.n):
        if seen[r]:
            continue
        seen[r] = True
        roots.append(r)
        queue = [r]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for e, w in inc[x]:
                if not seen[w]:
                    seen[w] = True
                    order.append(e)
                    queue.append(w)
    if len(order) != inner:
        raise ValueError("shape is not a forest" if s is None else
                         "supplied vertex set is not a feedback vertex set")
    order.reverse()
    return order, roots


def _leaves_to_root(d: CoDecomposition, m: SubMask,
                    plan: tuple[list[int], list[int]]) -> bool:
    """The first sweep pass, in place.  Afterwards every vertex keeps the
    elements that extend over its subtree, so the planned forest admits a
    matching family iff this returns True."""
    up, roots = plan
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
    for combo in itertools.product(*(range(d.vertex_obj[v].size) for v in pinned)):
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
                  plan: tuple[list[int], list[int]], lo: int, width: int):
    """Run the combinations lo .. lo + width - 1 as one sweep.

    Pin, filter the pinned vertices' edges, then the plan leaves-to-root,
    each edge once for the whole block.  Returns (state, start, the bits of
    the combinations whose test is nonempty): state[start[v] + a] has bit b
    set iff combination lo + b keeps element a at v.  start[v] is -1 for an
    unpinned vertex without edges, which keeps all of its elements.  The
    rows share one flat list, so a sweep leaves no per-vertex containers
    for the garbage collector to trace.
    """
    shape = d.shape
    inc = shape.incidence
    sizes = [o.size for o in d.vertex_obj]
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
    legs = d.legs
    up, roots = plan
    for e in itertools.chain((e for v in pinned for e, _ in inc[v]), up):
        u, v = edges[e]
        fu, fv = legs[e]
        tu = fu.table
        tv = fv.table
        su = start[u]
        sv = start[v]
        eu = su + len(tu)
        ev = sv + len(tv)
        ru = state[su:eu]
        rv = state[sv:ev]
        hit_u = [0] * fu.target_size
        hit_v = [0] * fv.target_size
        for row, x in zip(ru, tu):
            hit_u[x] |= row
        for row, x in zip(rv, tv):
            hit_v[x] |= row
        common = [p & q for p, q in zip(hit_u, hit_v)]
        if not any(common):  # every test of the block is empty
            return state, start, 0
        # a side whose hits are all shared keeps every row as it is
        if common != hit_u:
            state[su:eu] = [row & common[x] for row, x in zip(ru, tu)]
        if common != hit_v:
            state[sv:ev] = [row & common[x] for row, x in zip(rv, tv)]
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
    j keeps that element, so each edge is filtered once per block with
    B-bit word operations.  That is ceil(w^k / B) sweeps in Sum |d(v)| * B
    bits of state, where B = max(64, 2^24 // Sum |d(v)|).  The limit is
    empty iff no combination survives, so the blocks stop at the first one
    with a survivor.  section_test_count is the index of the first
    survivor plus one, or every combination when early_exit is off or the
    limit is empty.  The witness is deterministic: extract_witness reads
    the lowest-index extension off the masks of the lexicographically first
    nonempty combination.
    """
    s = _resolve_fvs(d.shape, fvs, k_max)
    plan = _forest_plan(d.shape, s)
    pinned = list(s)
    total = math.prod(d.vertex_obj[v].size for v in pinned)
    block = max(_MIN_BLOCK,
                _STATE_BITS // max(1, sum(o.size for o in d.vertex_obj)))
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
    witness = None
    if want_witness:
        masks = []
        for o, i in zip(d.vertex_obj, start):
            if i < 0:
                masks.append(full_mask(o.size))
                continue
            m = 0
            for a, row in enumerate(state[i:i + o.size]):
                if row & first:
                    m |= 1 << a
            masks.append(m)
        # a surviving combination keeps exactly its own element at a pinned
        # vertex; extract_witness reads vertex masks only
        sigma = SectionAssignment(tuple((v, masks[v].bit_length() - 1)
                                        for v in pinned))
        image = SubMask(masks, [full_mask(o.size) for o in d.edge_obj])
        witness = extract_witness(d, image, sigma)
    return InLimResult(Verdict(False), witness, tuple(s),
                       lo + first.bit_length() if early_exit else total)


def extract_witness(
    d: CoDecomposition,
    image_mask: SubMask,
    sigma: SectionAssignment | None = None,
) -> Witness:
    """Read one matching family off a mask after the leaves-to-root pass
    over this shape's plan (an image mask is one).

    The shape minus the pinned vertices (if any) must be a forest, else
    ValueError.  The walk runs root-to-leaves over its forest plan, reading
    leg tables: each root takes its lowest surviving element, and each child
    its lowest surviving element whose leg value matches the parent's.  That
    element exists, and is the image mask's lowest there too, because after
    the leaves-to-root pass a child's mask within that fibre is exactly its
    image mask within it.  The family is checked against every edge of d
    before it is returned.
    """
    pinned = sigma.as_dict() if sigma is not None else {}
    n = d.shape.n
    vertex: list[int | None] = [None] * n
    for v, a in pinned.items():
        if not 0 <= a < d.vertex_obj[v].size:
            raise ValueError(f"pinned element {a} out of range at vertex {v}")
        vertex[v] = a
    up, roots = _forest_plan(d.shape, VertexSet.of(n, pinned))
    edges = d.shape.edges
    legs = d.legs
    image = image_mask.vertex
    for r in roots:
        if not image[r]:
            raise ValueError(f"empty image mask at vertex {r}")
        vertex[r] = (image[r] & -image[r]).bit_length() - 1
    for e in reversed(up):
        u, v = edges[e]
        fu, fv = legs[e]
        if vertex[v] is None:
            c, table, x = v, fv.table, fu.table[vertex[u]]
        else:
            c, table, x = u, fu.table, fv.table[vertex[v]]
        mask = image[c]
        for a, y in enumerate(table):
            if y == x and mask >> a & 1:
                vertex[c] = a
                break
        else:
            raise ValueError(
                f"no element of vertex {c} matches the parent across "
                f"edge {e}; mask is not swept leaves-to-root")
    w = Witness(tuple(vertex),
                tuple(legs[e][0].table[vertex[u]] for e, (u, _) in enumerate(edges)))
    problems = witness_violations(d, w)
    if problems:
        raise ValueError("extracted family violates edge constraints: "
                         + "; ".join(problems))
    return w
