"""Deciding emptiness of diagram limits.

The paper's reduction, as one core over masks on the base diagram.  Every
vertex of a feedback vertex set S is pinned to a single element, and one
section test runs per combination of pinned values; the limit is empty iff
every test is empty.  The BFS plan of the forest G - S is built once per
solve, and its edge count is the check that S is a feedback vertex set.
A test copies the full masks, writes the pinned elements, filters the
pinned vertices' edges, and runs the leaves-to-root pass over the plan:
on a tree, the root mask after that pass is nonempty iff a matching family
exists, so that pass alone decides the test, and the witness of the first
nonempty test is read straight off its masks.  The root-to-leaves pass,
which turns the masks into the image subdiagram, runs only in image_tree.
Total cost O(w^k * w^2 * n).

The passes are iterative on purpose: path shapes with 10^5 vertices would
overflow the recursion limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .diagram import (
    CoDecomposition,
    SubMask,
    Verdict,
    filter_edges,
    restrict_to_subgraph,
)
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


def _pinned_masks(d: CoDecomposition, s: VertexSet):
    """Per way of pinning every vertex of s to one element, in lexicographic
    order: (the choices, the full masks with the pinned elements written and
    the pinned vertices' edges filtered, or None if a mask emptied)."""
    pinned = list(s)
    inc = d.shape.incidence
    pin_edges = [e for v in pinned for e, _ in inc[v]]
    base = d.full_mask()
    for combo in itertools.product(*(range(d.vertex_obj[v].size) for v in pinned)):
        choices = tuple(zip(pinned, combo))
        m = base.copy()
        for v, a in choices:
            m.vertex[v] = 1 << a
        yield choices, (m if filter_edges(d, m, pin_edges) else None)


def section_tests(d: CoDecomposition, s: VertexSet):
    """Lazily yield one SectionTest per way of pinning every vertex of the
    feedback vertex set s to a single element.

    Pinned combinations are enumerated lexicographically.  For each one,
    every edge incident to a pinned vertex is filtered (per vertex in
    ascending index order, edges by ascending id); if a mask empties, the
    test is tagged immediately_empty, otherwise the diagram is restricted
    to the forest obtained by dropping s.  inlim runs the same tests on
    masks over d, without restricting.
    """
    _forest_plan(d.shape, s)
    if not s:
        # empty product has exactly one element; the test diagram is d itself
        yield SectionTest(SectionAssignment(()), False, d, d.full_mask(),
                          list(range(d.shape.n)), list(range(d.shape.m)))
        return
    keep = s.complement()
    for choices, m in _pinned_masks(d, s):
        assignment = SectionAssignment(choices)
        if m is None:
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


def inlim(
    d: CoDecomposition,
    fvs: VertexSet | None = None,
    k_max: int | None = None,
    want_witness: bool = False,
    early_exit: bool = True,
) -> InLimResult:
    """Decide whether the limit of the diagram is empty.

    A feedback vertex set S is taken as given or found by exact search
    within k_max.  One forest plan of G - S is built; each pinned
    combination then runs on copied masks over d: pin, filter the pinned
    vertices' edges, and decide by the leaves-to-root pass.  The verdict is
    the conjunction of the test verdicts; early_exit stops at the first
    nonempty test.  The witness is deterministic: extract_witness reads the
    lowest-index extension off the masks of the lexicographically first
    nonempty combination.
    """
    s = _resolve_fvs(d.shape, fvs, k_max)
    plan = _forest_plan(d.shape, s)
    empty = True
    witness = None
    count = 0
    for choices, m in _pinned_masks(d, s):
        count += 1
        if m is None or not _leaves_to_root(d, m, plan):
            continue
        if want_witness and empty:
            witness = extract_witness(d, m, SectionAssignment(choices))
        empty = False
        if early_exit:
            break
    return InLimResult(Verdict(empty), witness, tuple(s), count)


def extract_witness(
    d: CoDecomposition,
    image_mask: SubMask,
    sigma: SectionAssignment | None = None,
) -> Witness:
    """Read one matching family off a mask after the leaves-to-root pass
    over this shape's plan (an image mask is one).

    The shape minus the pinned vertices (if any) must be a forest, else
    ValueError.  The walk runs root-to-leaves over its forest plan: each
    root takes its lowest surviving element, and each child its lowest
    surviving element in the fibre over the parent's leg value.  That
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
    edge_data = d.edge_data
    legs = d.legs
    image = image_mask.vertex
    for r in roots:
        if not image[r]:
            raise ValueError(f"empty image mask at vertex {r}")
        vertex[r] = (image[r] & -image[r]).bit_length() - 1
    for e in reversed(up):
        u, v, fib_u, fib_v = edge_data[e]
        if vertex[v] is None:
            c = v
            pick = image[v] & fib_v[legs[e][0].table[vertex[u]]]
        else:
            c = u
            pick = image[u] & fib_u[legs[e][1].table[vertex[v]]]
        if not pick:
            raise ValueError(
                f"no element of vertex {c} matches the parent across "
                f"edge {e}; mask is not swept leaves-to-root")
        vertex[c] = (pick & -pick).bit_length() - 1
    edges = tuple(legs[e][0].table[vertex[u]] for e, (u, _) in enumerate(d.shape.edges))
    w = Witness(tuple(vertex), edges)
    problems = witness_violations(d, w)
    if problems:
        raise ValueError("extracted family violates edge constraints: "
                         + "; ".join(problems))
    return w
