"""Deciding emptiness of diagram limits.

The paper's reduction, as one core over the base diagram.  Every vertex of
a feedback vertex set S is pinned to a single element, and one section test
runs per combination of pinned values; the limit is empty iff every test is
empty.  The post-order plan of the forest G - S is built once per solve,
and its edge count is the check that S is a feedback vertex set; the
shape object keeps S and the plan for its next solve.  A test
filters the pinned vertices' edges and runs the leaves-to-root pass over
the plan: afterwards every vertex keeps the elements that extend over its
subtree, so that pass alone decides the test, and one root-to-leaves walk
over the same plan reads the witness off the first nonempty test.  The
root-to-leaves filter pass, which turns masks into the image subdiagram,
runs only in image_tree.

With no set supplied, a shape with fewer edges than vertices is first
planned whole, and the plan's edge count recognises a forest: S is then
empty and no FVS search runs.

inlim runs the tests bit-sliced: one int per (vertex, element) whose bit j
says whether combination j keeps the element; a pinned vertex is a leaf
that restricts each neighbour once and is done, like a root, at the end
of the plan, and a plan edge restricts only its parent p by its child c's
rows (Yannakakis's upward semijoin pass), in O(|d(c)| + |d(p)| + |d(e)|)
B-bit word operations for B combinations.  A block of one combination,
as every forest solve and witness re-sweep runs, uses set passes in C
instead, on rows of truth values: the hit set is the leg values of the
child's kept elements, and the parent keeps the elements whose leg value
is a hit.

The plan folds each child into its parent as soon as the child is done,
so a vertex holds rows only from the first arc into it until its own
fold.  A solve with more than _MIN_BLOCK = 64 combinations orders its
plan so that every child but the first holds less than half of its
parent's subtree; then at most floor(log2 n) + 1 unpinned vertices hold
rows at once (Sethi & Ullman 1970), and B is sized from those rows, not
from n: ceil(w^k / B) sweeps, within the paper's O(w^k * w^2 * n).  A
solve with at most 64 combinations sweeps one block, of at most one
word per row, whatever the order, so its plan runs in search order:
rows at O(n) vertices then stay within a constant factor of the leg
tables.

section_tests, forest_initial and image_tree run one test at a time on
SubMasks, through the two-sided filter_edges: they are the
per-combination reference that the tests check the sweep against.

The passes are iterative on purpose: path shapes with 10^5 vertices would
overflow the recursion limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_, lt

from .diagram import (
    CoDecomposition,
    SubMask,
    Verdict,
    filter_edges,
    restrict_to_subgraph,
    validate,
)
from .graphs import (SimpleGraph, VertexSet, _check_budget, _preorder,
                     fvs_exact)


@dataclass(frozen=True)
class Witness:
    """A global matching family: one element per shape vertex, and the
    induced element per shape edge."""

    vertex_elements: tuple[int, ...]
    edge_elements: tuple[int, ...]


@dataclass
class SectionTest:
    """One pinned-and-filtered forest instance of the reduction.

    When pinning already emptied a mask, immediately_empty is set and no
    restricted diagram is produced.  Otherwise tau/tau_mask hold the
    diagram restricted to the forest, and the index maps (old -> new)
    relate it back to the original shape.
    """

    assignment: tuple[tuple[int, int], ...]
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
    """Check a witness against every edge constraint of the diagram.

    First every element is checked at once: one pass over both tuples
    checks that each is an int (bool excluded), then the vertex elements
    are checked to lie in [0, |d(v)|).  The elements are walked only to
    name those that fail, and then no edge is checked.  Then every edge is
    checked in one loop, and walked again only to name the edges that fail.
    """
    ve, ee = w.vertex_elements, w.edge_elements
    if len(ve) != d.shape.n or len(ee) != d.shape.m:
        return ["witness arity differs from shape"]
    sizes = d.vertex_size
    if not ({*map(type, ve), *map(type, ee)} <= {int}
            and min(ve, default=0) >= 0 and all(map(lt, ve, sizes))):
        return ([f"vertex {v}: element {x!r} is not an int in [0, {size})"
                 for v, (x, size) in enumerate(zip(ve, sizes))
                 if type(x) is not int or not 0 <= x < size]
                + [f"edge {e}: element {x!r} is not an int"
                   for e, x in enumerate(ee) if type(x) is not int])
    edges, tables = d.shape.edges, d.tables
    for (u, v), (tu, tv), x in zip(edges, tables, ee):
        if not tu[ve[u]] == tv[ve[v]] == x:
            break
    else:
        return []
    return [f"edge {e}: endpoint values map to {tu[ve[u]]} and {tv[ve[v]]}, "
            f"edge element is {x}"
            for e, ((u, v), (tu, tv), x) in enumerate(zip(edges, tables, ee))
            if not tu[ve[u]] == tv[ve[v]] == x]


def _forest_plan(g: SimpleGraph, s: VertexSet | None = None,
                 heavy_first: bool = False) -> list[tuple[int, int]] | None:
    """The sweep schedule of g minus s, as (edge id, source) arcs in the
    order they run.  An arc (e, c) with c >= 0 folds the child c into its
    parent, the other end of plan edge e; (e, ~u) runs out of the pinned
    vertex u across e; (-1, r) says that r, the root of a tree or a pinned
    vertex, is done: nothing restricts or reads it later in the sweep.

    The arcs into pinned vertices come first.  Then each tree of g minus s,
    rooted at its lowest vertex and in ascending order of root, runs in
    post-order: per vertex, the arcs into it from pinned vertices, then its
    own fold into its parent, or its tree's end at the root.  So a vertex
    is restricted by everything below it before it folds, and every
    subtree's arcs are contiguous.  Last, each pinned vertex is done, in
    ascending order.  The children of a vertex fold as _heavy_first lays
    them out with heavy_first, else in search order.  Either way a vertex
    keeps the same elements once all its children have folded, so the
    order changes no verdict, count or witness.

    One depth-first search of g minus s serves as component finder, forest
    check (g - s is a forest iff its edge count is its vertex count minus
    its tree count) and schedule.  Returns None when g minus s is not a
    forest: _resolve_plan then searches for a feedback vertex set, and
    _checked_plan turns it into the ValueError.
    """
    if s is not None and s.n != g.n:
        raise ValueError("vertex set belongs to a different shape")
    seen = [False] * g.n
    plan: list[tuple[int, int]] = []
    into: dict[int, list[tuple[int, int]]] = {}
    kept = g.n
    if s:
        inc = g.incidence
        for v in s:  # byte-wise; testing s.mask per vertex is O(n^2 / 64)
            seen[v] = True
        for u in s:
            for e, v in inc[u]:
                if seen[v]:
                    plan.append((e, ~u))
                else:
                    into.setdefault(v, []).append((e, ~u))
        kept -= len(s)
    trees = _preorder(g, seen)
    # an edge between pinned vertices gave an arc from each end
    cut = len(plan) // 2 + sum(map(len, into.values()))
    if g.m - cut != kept - len(trees):
        return None
    edges = g.edges
    for tree in trees:
        post = _heavy_first(edges, tree) if heavy_first else reversed(tree)
        if into:
            for arc in post:
                plan += into.get(arc[1], ())
                plan.append(arc)
        else:
            plan += post
    # after the last arc out of each, and not counted as edges above
    plan += [(-1, u) for u in s or ()]
    return plan


def _checked_plan(g: SimpleGraph, s: VertexSet | None = None,
                  heavy_first: bool = False) -> list[tuple[int, int]]:
    """_forest_plan, with a ValueError when g minus s is not a forest."""
    plan = _forest_plan(g, s, heavy_first)
    if plan is None:
        raise ValueError("shape is not a forest" if s is None else
                         "supplied vertex set is not a feedback vertex set")
    return plan


def _heavy_first(edges, tree: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The (edge id, vertex) pairs of one tree, given in preorder, laid out
    in post-order with a large child subtree first at every vertex.

    The reversed preorder finishes each subtree after its children; a
    finished subtree's run joins its parent's run of finished children in
    front when it is longer than that whole run, else behind.  So every
    child but the first holds less than half of its parent's subtree,
    which is all the floor(log2 n) + 1 bound needs, and each arc is copied
    only into a run at least as long as its own: O(t log t) copies in C.
    """
    runs: dict[int, list[tuple[int, int]]] = {}
    for arc in reversed(tree):
        e, x = arc
        run = runs.pop(x, None)  # x's finished children, x still to come
        if run is None:
            run = [arc]
        else:
            run.append(arc)
        if e < 0:  # the root: the whole tree is done
            break
        u, v = edges[e]
        p = u ^ v ^ x
        done = runs.get(p)
        if done is None:
            runs[p] = run
        elif len(run) > len(done):
            run.extend(done)
            runs[p] = run
        else:
            done.extend(run)
    return run


def _leaves_to_root(d: CoDecomposition, m: SubMask,
                    plan: list[tuple[int, int]]) -> bool:
    """The first sweep pass, in place and two-sided.  Afterwards every root
    keeps the elements that extend over its tree, so the planned forest
    admits a matching family iff this returns True."""
    return (filter_edges(d, m, [e for e, c in plan if e >= 0 and c >= 0])
            and all(m.vertex[r] for e, r in plan if e < 0))


def image_tree(d: CoDecomposition, m: SubMask) -> SubMask:
    """The image subdiagram of the masked diagram, as a fresh mask.

    Each mask entry keeps exactly the elements that occur in some global
    matching family; in particular, if any component admits no family, the
    whole result is zero (there are no global families at all).
    """
    plan = _checked_plan(d.shape)
    out = m.copy()
    if _leaves_to_root(d, out, plan):
        filter_edges(d, out, [e for e, _ in reversed(plan) if e >= 0])
    else:
        out.zero()
    return out


def forest_initial(d: CoDecomposition, m: SubMask) -> Verdict:
    """Emptiness for forest shapes, by the leaves-to-root pass alone."""
    return Verdict(not _leaves_to_root(d, m.copy(), _checked_plan(d.shape)))


def section_tests(d: CoDecomposition, s: VertexSet):
    """Lazily yield one SectionTest per way of pinning every vertex of the
    feedback vertex set s to a single element.

    Pinned combinations are enumerated lexicographically.  For each one,
    every edge incident to a pinned vertex is filtered (per vertex in
    ascending index order, edges by ascending id); if a mask empties, the
    test is tagged immediately_empty, otherwise its tau_mask is the
    filtered mask on the forest obtained by dropping s.  d is restricted
    to that forest once per call, so every test shares tau, vertex_map and
    edge_map.  An empty s has one combination, the empty one, whose test
    restricts d to all of its vertices.
    """
    _checked_plan(d.shape, s)
    pinned = list(s)
    pin_edges = [e for v in pinned for e, _ in d.shape.incidence[v]]
    base = d.full_mask()
    r = restrict_to_subgraph(d, base, s.complement())
    kept = [v for v, new in enumerate(r.vertex_map) if new is not None]
    eids = [e for e, new in enumerate(r.edge_map) if new is not None]
    for combo in itertools.product(*(range(d.vertex_size[v]) for v in pinned)):
        assignment = tuple(zip(pinned, combo))
        m = base.copy()
        for v, a in assignment:
            m.vertex[v] = 1 << a
        if not filter_edges(d, m, pin_edges):
            yield SectionTest(assignment, True, None, None, None, None)
        else:
            tau_mask = SubMask([m.vertex[v] for v in kept],
                               [m.edge[e] for e in eids])
            yield SectionTest(assignment, False, r.diagram, tau_mask,
                              r.vertex_map, r.edge_map)


def _resolve_plan(shape: SimpleGraph, fvs: VertexSet | None,
                  k_max: int | None, diagrams: list[CoDecomposition]
                  ) -> tuple[list[int], list[tuple[int, int]]]:
    """The feedback vertex set S, ascending, and the forest plan of the
    shape minus S that the diagrams over the shape are swept on.

    With no set supplied, a k_max that is not an int >= 0 is refused
    first, and S is found within k_max (n when None), or is empty when
    the shape is a forest.  A supplied set is checked when its plan is
    built.  With no diagram to sweep, S and the plan are empty: no search
    runs and a supplied set is not checked.

    The shape object keeps its last resolution in its _plan slot, as
    (fvs, S, heavy_first, plan), and the next call on it with the same fvs
    reads S there, and the plan too when it asks for the same order.  A
    supplied set matches only an equal VertexSet, n included.  A searched
    S (fvs None) is minimum, so the search would find it again under any
    budget of at least |S|; a smaller budget searches, and is refused.
    Anything else resolves as above and replaces the slot.  Only what
    resolved is kept, so every refusal is raised again on every call.  The
    returned lists are shared between calls: they are read-only.
    """
    if fvs is None and k_max is not None:
        _check_budget(k_max)
    if not diagrams:
        return [], []
    budget = shape.n if k_max is None else k_max
    kept = shape._plan
    if (kept is None or kept[0] != fvs
            or fvs is None and len(kept[1]) > budget):
        kept = None
        s = fvs
        if s is None:
            if shape.m < shape.n:
                whole = _forest_plan(shape)
                if whole is not None:
                    shape._plan = (None, [], False, whole)
                    return [], whole
            s = fvs_exact(shape, budget)
            if s is None:
                raise ValueError(f"no feedback vertex set of size <= {budget}")
        elif s.n != shape.n:  # before its vertices index the diagrams
            raise ValueError("vertex set belongs to a different shape")
        pinned = list(s)
    else:
        s, pinned = fvs, kept[1]
    heavy = any(_combinations(d, pinned) > _MIN_BLOCK for d in diagrams)
    if kept is None or kept[2] != heavy:
        if s is None:  # a searched S, kept for another order
            s = VertexSet.of(shape.n, pinned)
        plan = _checked_plan(shape, s, heavy)
        kept = shape._plan = (fvs, pinned, heavy, plan)
    return pinned, kept[3]


# Combinations per sliced sweep: max(_MIN_BLOCK, _STATE_BITS // held) with
# held the pinned rows plus (floor(log2 n) + 1) * w, the most rows a sweep
# of a heavy-first plan holds at once, so those rows hold about 2 MB of
# bits; a block never exceeds the number of combinations.
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
                  plan: list[tuple[int, int]], lo: int, width: int,
                  keep: bool = False):
    """Run the combinations lo .. lo + width - 1 as one sweep over the plan.

    rows[v][a] has bit b set iff combination lo + b keeps element a at v.
    A pinned vertex starts with its digit rows; an unpinned vertex has no
    rows, and keeps every element, until an arc restricts it.  Each arc of
    edge e from c into p runs once for the whole block: it ORs c's rows
    into hits per element of d(e) and keeps in p's rows only the hits at
    p's leg value.  A pinned vertex is a leaf: each of its edges runs one
    arc, out of it, so its rows stay one-hot at its pinned value unless
    another pinned vertex restricts them.  A child's fold is the last read
    of its rows, and the rows of a root or a pinned vertex are last read at
    its done-arc, so all are dropped there unless keep is set: only the
    vertices between their first restriction and their own fold hold rows,
    and none is left at the end.  A combination survives iff it keeps an
    element at every done-arc, and the sweep stops once no combination of
    the block is left.  At width 1 the rows are truth values (0/1 or bools).

    Returns (rows, the bits of the combinations whose test is nonempty).
    Kept rows, of every vertex that an arc restricted, mean what they mean
    during the sweep: a vertex keeps what extends over its subtree.
    """
    sizes = d.vertex_size
    full = (1 << width) - 1
    rows: dict[int, list[int]] = {}
    stride = 1
    for v in reversed(pinned):
        rows[v] = _digit_rows(lo, width, stride, sizes[v])
        stride *= sizes[v]
    take = rows.get if keep else rows.pop
    edges = d.shape.edges
    tables = d.tables
    edge_size = d.edge_size
    alive = full
    for e, c in plan:
        if e < 0:  # c, a root or a pinned vertex, is done
            got = take(c, None)
            if got is None:  # c has no edge
                if not sizes[c]:
                    return rows, 0
                continue
            survive = 0
            for row in got:
                survive |= row
            alive &= survive
            if not alive:
                return rows, 0
            continue
        if c < 0:
            c = ~c
            src = rows[c]
        else:
            src = take(c, None)
        u, v = edges[e]
        tu, tv = tables[e]
        if c == u:
            tc, p, tp = tu, v, tv
        else:
            tc, p, tp = tv, u, tu
        old = rows.get(p)
        # src is None at a leaf that no arc restricted: it keeps every element
        if width == 1:  # set passes in C; a row is a truth value
            hits = set(tc) if src is None else set(compress(tc, src))
            new = map(hits.__contains__, tp)
            new = list(new) if old is None else list(map(and_, old, new))
        else:
            hit = [0] * edge_size[e]
            if src is None:
                for x in tc:
                    hit[x] = full
            else:
                for row, x in zip(src, tc):
                    hit[x] |= row
            if old is None:
                new = [hit[x] for x in tp]
            else:
                new = [row & hit[x] for row, x in zip(old, tp)]
        if not any(new):  # every test of the block is empty
            return rows, 0
        rows[p] = new
    return rows, alive


def inlim(
    d: CoDecomposition,
    fvs: VertexSet | None = None,
    k_max: int | None = None,
    want_witness: bool = False,
    early_exit: bool = True,
) -> InLimResult:
    """Decide whether the limit of the diagram is empty, by the reduction
    the module docstring describes.

    fvs is the feedback vertex set to pin; ValueError when it belongs to
    another shape or the shape minus it is not a forest.  Without it, a
    minimum set is found within k_max, an int >= 0 (n when None):
    ValueError when none is.  want_witness asks for a matching family when
    the limit is nonempty; it is deterministic, the lowest-index family of
    the lexicographically first surviving combination.
    section_test_count is the index of that combination plus one, or every
    combination when early_exit is off or the limit is empty.

    A diagram that validate(d) refuses gets no verdict: ValueError names
    its problems.  A diagram recorded valid is not checked again.
    """
    problems = validate(d)
    if problems:
        raise ValueError("invalid diagram: " + "; ".join(problems))
    pinned, plan = _resolve_plan(d.shape, fvs, k_max, [d])
    return _solve(d, pinned, plan, want_witness, early_exit)


def _combinations(d: CoDecomposition, pinned: list[int]) -> int:
    """The number of pinned combinations: w^k when every set has size w."""
    return math.prod(d.vertex_size[v] for v in pinned)


def _solve(d: CoDecomposition, pinned: list[int],
           plan: list[tuple[int, int]], want_witness: bool = False,
           early_exit: bool = True) -> InLimResult:
    """inlim after its checks: the sweep over the blocks and the witness
    read, on a valid diagram, with pinned and plan as _resolve_plan gives
    them."""
    sizes = d.vertex_size
    total = _combinations(d, pinned)
    held = sum(sizes[v] for v in pinned) + d.shape.n.bit_length() * d.width()
    block = max(_MIN_BLOCK, _STATE_BITS // max(1, held))
    lo = 0
    while lo < total:
        width = min(block, total - lo)
        rows, alive = _sliced_sweep(d, pinned, plan, lo, width,
                                    want_witness and width == 1)
        if alive:
            break
        lo += width
    else:
        return InLimResult(Verdict(True), None, tuple(pinned), total)
    lo += (alive & -alive).bit_length() - 1  # the first survivor
    witness = None
    if want_witness:
        if width > 1:
            rows, _ = _sliced_sweep(d, pinned, plan, lo, 1, True)
        witness = _read_family(d, plan, rows)
    return InLimResult(Verdict(False), witness, tuple(pinned),
                       lo + 1 if early_exit else total)


def _read_family(d: CoDecomposition, plan: list[tuple[int, int]],
                 rows: dict[int, list[int]]) -> Witness:
    """One matching family, read root-to-leaves over the plan off the rows
    of one combination as a width-1 sweep keeps them: element a of vertex c
    is kept iff c has no rows or rows[c][a] is set.

    Each pinned vertex and root takes its lowest kept element at its
    done-arc, which the reversed plan meets before the vertex's subtree,
    and each child its lowest kept element whose leg value matches the
    parent's.  That element exists when the rows went through the leaves-to-root pass:
    a kept parent element then matches some child element that extends
    over the child's subtree.  The family is checked against every edge of
    d before it is returned.
    """
    vertex: list[int | None] = [None] * d.shape.n
    sizes = d.vertex_size
    edges = d.shape.edges
    tables = d.tables
    for e, c in reversed(plan):
        if e < 0:  # a root or pinned vertex: no leg value to match
            table, x = repeat(None, sizes[c]), None
        elif c < 0:  # an arc out of a pinned vertex
            continue
        else:
            u, v = edges[e]
            tu, tv = tables[e]
            if c == v:
                table, x = tv, tu[vertex[u]]
            else:
                table, x = tu, tv[vertex[v]]
        got = rows.get(c)
        for a, y in enumerate(table):
            if y == x and (got is None or got[a]):
                vertex[c] = a
                break
        else:
            raise ValueError(
                f"empty image mask at vertex {c}" if e < 0 else
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
    sigma: tuple[tuple[int, int], ...] = (),
) -> Witness:
    """Read one matching family off a mask after the leaves-to-root pass
    over this shape's plan (an image mask is one).

    sigma holds the (vertex, element) pairs to pin.  ValueError names a bad
    or repeated vertex, a bad element, or a shape that is not a forest less
    the pinned vertices.  The vertex masks go as width-1 rows, a pinned
    vertex's holding only its pinned element, through the walk inlim reads
    its witness with.  After the leaves-to-root pass, a child's mask and
    its image mask agree on the elements that match a parent element of the
    image, so both give the same family.
    """
    s = VertexSet.of(d.shape.n, [v for v, _ in sigma])
    pinned: dict[int, int] = {}
    for v, a in sigma:
        if v in pinned:
            raise ValueError(f"vertex {v} is pinned twice")
        if type(a) is not int or not 0 <= a < d.vertex_size[v]:
            raise ValueError(f"pinned element {a!r} out of range at vertex {v}")
        pinned[v] = a
    plan = _checked_plan(d.shape, s)
    rows = {}
    for v, size in enumerate(d.vertex_size):
        mask = 1 << pinned[v] if v in pinned else image_mask.vertex[v]
        rows[v] = [mask >> a & 1 for a in range(size)]
    return _read_family(d, plan, rows)
