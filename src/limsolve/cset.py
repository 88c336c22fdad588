"""Diagrams valued in C-sets for a finite category C, solved pointwise.

A C-set assigns a finite set to every C-object and a compatible function
to every C-morphism.  Limits and images of C-set diagrams are computed
objectwise, so emptiness reduces to one plain solve per C-object: the
limit is the empty C-set exactly when every pointwise slice has an empty
limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import CoDecomposition, Verdict
from .finset import FinFn, FinSetObj
from .graphs import SimpleGraph, VertexSet
from .solver import _resolve_fvs, inlim


@dataclass(frozen=True)
class FinCat:
    """Finite category given by a full morphism list and composition table.

    Morphism ids index src/tgt; comp[g][f] is the id of "g after f", or -1
    when tgt(f) != src(g).
    """

    object_count: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    identity: tuple[int, ...]
    comp: tuple[tuple[int, ...], ...]

    @property
    def morphism_count(self) -> int:
        return len(self.src)

    @classmethod
    def terminal(cls) -> "FinCat":
        return cls(1, (0,), (0,), (0,), ((0,),))

    @classmethod
    def walking_arrow(cls) -> "FinCat":
        # objects 0, 1; morphisms: id0, id1, and 2: 0 -> 1
        comp = (
            (0, -1, -1),
            (-1, 1, 2),
            (2, -1, -1),
        )
        return cls(2, (0, 1, 0), (0, 1, 1), (0, 1), comp)


def validate_fincat(c: FinCat) -> list[str]:
    """Exhaustively check identity laws, associativity, and src/tgt
    bookkeeping; returns a list of violations, empty when ok."""
    problems = []
    nm = c.morphism_count
    if len(c.tgt) != nm:
        problems.append("src/tgt length mismatch")
        return problems
    for f in range(nm):
        if not (0 <= c.src[f] < c.object_count and 0 <= c.tgt[f] < c.object_count):
            problems.append(f"morphism {f}: src/tgt out of range")
    if len(c.identity) != c.object_count:
        problems.append("one identity per object required")
        return problems
    for o, i in enumerate(c.identity):
        if not 0 <= i < nm or c.src[i] != o or c.tgt[i] != o:
            problems.append(f"identity of object {o} is not an endomorphism of it")
    if len(c.comp) != nm or any(len(row) != nm for row in c.comp):
        problems.append("composition table must be morphisms x morphisms")
        return problems
    for g in range(nm):
        for f in range(nm):
            gf = c.comp[g][f]
            if c.tgt[f] != c.src[g]:
                if gf != -1:
                    problems.append(
                        f"comp[{g}][{f}] defined although not composable")
                continue
            if not 0 <= gf < nm:
                problems.append(f"comp[{g}][{f}] missing for composable pair")
                continue
            if c.src[gf] != c.src[f] or c.tgt[gf] != c.tgt[g]:
                problems.append(f"comp[{g}][{f}] has wrong src/tgt")
    if problems:
        return problems
    for f in range(nm):
        if c.comp[f][c.identity[c.src[f]]] != f:
            problems.append(f"right identity law fails at morphism {f}")
        if c.comp[c.identity[c.tgt[f]]][f] != f:
            problems.append(f"left identity law fails at morphism {f}")
    for h in range(nm):
        for g in range(nm):
            if c.tgt[g] != c.src[h]:
                continue
            hg = c.comp[h][g]
            for f in range(nm):
                if c.tgt[f] != c.src[g]:
                    continue
                if c.comp[h][c.comp[g][f]] != c.comp[hg][f]:
                    problems.append(
                        f"associativity fails on morphisms ({h}, {g}, {f})")
    return problems


@dataclass(frozen=True)
class CSet:
    """A functor from a finite category to finite sets: one set per object,
    one action table per morphism."""

    objects: tuple[FinSetObj, ...]
    actions: tuple[FinFn, ...]

    @property
    def total_size(self) -> int:
        return sum(o.size for o in self.objects)


def validate_cset(cat: FinCat, x: CSet) -> list[str]:
    """Sizes, identities and functoriality of x over cat, which must pass
    validate_fincat; returns a list of violations, empty when ok."""
    problems = []
    if len(x.objects) != cat.object_count:
        return ["one set per category object required"]
    if len(x.actions) != cat.morphism_count:
        return ["one action per category morphism required"]
    for f, fn in enumerate(x.actions):
        if fn.source_size != x.objects[cat.src[f]].size:
            problems.append(f"action of morphism {f}: wrong source size")
        if fn.target_size != x.objects[cat.tgt[f]].size:
            problems.append(f"action of morphism {f}: wrong target size")
    if problems:
        return problems
    for o, i in enumerate(cat.identity):
        if x.actions[i].table != tuple(range(x.objects[o].size)):
            problems.append(f"identity of object {o} does not act as identity")
    # the sizes match once the category is valid, so the tables decide
    tables = [fn.table for fn in x.actions]
    for g in range(cat.morphism_count):
        gt = tables[g]
        for f in range(cat.morphism_count):
            gf = cat.comp[g][f]
            if gf == -1:
                continue
            if list(tables[gf]) != [gt[t] for t in tables[f]]:
                problems.append(
                    f"functoriality fails: action of comp[{g}][{f}]")
    return problems


class CSetCoDecomposition:
    """A diagram of C-sets over a simple graph shape; legs are natural
    transformations given componentwise (one function per C-object)."""

    __slots__ = ("cat", "shape", "vertex_cs", "edge_cs", "legs")

    def __init__(self, cat: FinCat, shape: SimpleGraph, vertex_cs, edge_cs, legs):
        self.cat = cat
        self.shape = shape
        self.vertex_cs = tuple(vertex_cs)
        self.edge_cs = tuple(edge_cs)
        self.legs = tuple(
            (tuple(lu), tuple(lv)) for lu, lv in legs
        )
        if len(self.vertex_cs) != shape.n:
            raise ValueError("one C-set per shape vertex required")
        if len(self.edge_cs) != shape.m:
            raise ValueError("one C-set per shape edge required")
        if len(self.legs) != shape.m:
            raise ValueError("exactly two legs per shape edge required")

    def width(self) -> int:
        """Largest total vertex C-set size (summed over C-objects)."""
        return max((x.total_size for x in self.vertex_cs), default=0)

    def slice_width(self) -> int:
        """Largest single-component vertex set size across C-objects."""
        return max(
            (o.size for x in self.vertex_cs for o in x.objects), default=0)


def validate_cset_codecomp(d: CSetCoDecomposition) -> list[str]:
    problems = validate_fincat(d.cat)
    if problems:
        return [f"category: {p}" for p in problems]
    for x, cs in enumerate(d.vertex_cs):
        problems += [f"vertex {x}: {p}" for p in validate_cset(d.cat, cs)]
    for e, cs in enumerate(d.edge_cs):
        problems += [f"edge {e}: {p}" for p in validate_cset(d.cat, cs)]
    if problems:
        return problems
    cat = d.cat
    for e, (u, v) in enumerate(d.shape.edges):
        for x, leg in ((u, d.legs[e][0]), (v, d.legs[e][1])):
            xs = d.vertex_cs[x]
            es = d.edge_cs[e]
            if len(leg) != cat.object_count:
                problems.append(
                    f"leg of edge {e} at vertex {x}: one component per "
                    f"C-object required")
                continue
            sizes_ok = True
            for c, fn in enumerate(leg):
                if (fn.source_size != xs.objects[c].size
                        or fn.target_size != es.objects[c].size):
                    problems.append(
                        f"leg of edge {e} at vertex {x}, component {c}: "
                        f"size mismatch")
                    sizes_ok = False
            if not sizes_ok:
                continue
            # both sides of each square run from component c0 of the
            # vertex C-set to component c1 of the edge C-set, sizes checked
            for f in range(cat.morphism_count):
                c0, c1 = cat.src[f], cat.tgt[f]
                l1, ef = leg[c1].table, es.actions[f].table
                if ([l1[t] for t in xs.actions[f].table]
                        != [ef[t] for t in leg[c0].table]):
                    problems.append(
                        f"leg of edge {e} at vertex {x}: naturality square "
                        f"fails at morphism {f}")
    return problems


def pointwise_slice(d: CSetCoDecomposition, c: int) -> CoDecomposition:
    """The plain diagram obtained by evaluating every C-set and leg at one
    C-object."""
    if not 0 <= c < d.cat.object_count:
        raise ValueError(f"no C-object {c}")
    vertex = [x.objects[c] for x in d.vertex_cs]
    edge = [x.objects[c] for x in d.edge_cs]
    return CoDecomposition(
        d.shape, [o.size for o in vertex], [o.size for o in edge],
        [(lu[c].table, lv[c].table) for lu, lv in d.legs],
        _labels_of(vertex), _labels_of(edge))


def _labels_of(objs) -> dict[int, tuple[str, ...]]:
    return {i: o.labels for i, o in enumerate(objs) if o.labels is not None}


def cset_inlim(
    d: CSetCoDecomposition,
    fvs: VertexSet | None = None,
    k_max: int | None = None,
) -> Verdict:
    """Emptiness for C-set diagrams: the limit is the initial (everywhere
    empty) C-set iff every pointwise slice has an empty limit."""
    problems = validate_cset_codecomp(d)
    if problems:
        raise ValueError("invalid C-set diagram: " + "; ".join(problems))
    # the slices share the shape, so one feedback vertex set serves them all
    s = _resolve_fvs(d.shape, fvs, k_max)
    for c in range(d.cat.object_count):
        result = inlim(pointwise_slice(d, c), fvs=s)
        if not result.verdict.empty_limit:
            return Verdict(False)
    return Verdict(True)
