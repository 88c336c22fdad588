"""Diagrams valued in C-sets for a finite category C, solved pointwise.

A C-set assigns a finite set to every C-object and a compatible function
to every C-morphism.  Limits and images of C-set diagrams are computed
objectwise, so emptiness reduces to one plain solve per C-object: the
limit is the empty C-set exactly when every pointwise slice has an empty
limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (CoDecomposition, Verdict, size_problems, tables_fit,
                      validate)
from .graphs import SimpleGraph, VertexSet, _check_budget
from .solver import inlim


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


class CSetCoDecomposition:
    """A diagram of C-sets over a simple graph shape, stored as columns.

    slices[c] is the plain diagram at C-object c: its set sizes, leg
    tables (the components at c of the natural-transformation legs) and
    labels, over the shared shape.  vertex_actions[x][f] and
    edge_actions[e][f] are the tables of C-morphism f acting on the C-set
    at vertex x or edge e, from its set at src(f) to its set at tgt(f).
    The columns are kept, not copied, and not edited once the diagram is
    made.

    A C-set diagram is checked once: by parse_cset_diagram as it loads
    it, else by its first validate_cset_codecomp(d), which cset_inlim
    calls; only the lengths are checked here.  Found valid, it is
    recorded so, and no later check reads it again.
    """

    __slots__ = ("cat", "shape", "slices", "vertex_actions", "edge_actions",
                 "_valid")

    def __init__(self, cat: FinCat, shape: SimpleGraph,
                 slices: list[CoDecomposition], vertex_actions: list,
                 edge_actions: list):
        if len(slices) != cat.object_count:
            raise ValueError("one slice per C-object required")
        if any(s.shape != shape for s in slices):
            raise ValueError("every slice must have the diagram's shape")
        if len(vertex_actions) != shape.n:
            raise ValueError("one C-set per shape vertex required")
        if len(edge_actions) != shape.m:
            raise ValueError("one C-set per shape edge required")
        self.cat = cat
        self.shape = shape
        self.slices = slices
        self.vertex_actions = vertex_actions
        self.edge_actions = edge_actions
        self._valid = False

    def width(self) -> int:
        """Largest total vertex C-set size (summed over C-objects)."""
        return max(map(sum, zip(*(s.vertex_size for s in self.slices))),
                   default=0)

    def slice_width(self) -> int:
        """Largest single-component vertex set size across C-objects."""
        return max((s.width() for s in self.slices), default=0)


def _action_problems(cat: FinCat, tables, sizes, pairs) -> list[str]:
    """Sizes, identities and functoriality of one C-set: tables[f] is the
    action of morphism f, sizes[c] the size of its set at object c, and
    pairs the (g, f, comp[g][f]) triples of the composable pairs."""
    if type(tables) not in (list, tuple) or len(tables) != cat.morphism_count:
        return ["one action per category morphism required"]
    problems = []
    for f, (table, c0, c1) in enumerate(zip(tables, cat.src, cat.tgt)):
        if type(table) not in (list, tuple):
            problems.append(f"action of morphism {f}: table is not a list "
                            f"or tuple")
            continue
        if len(table) != sizes[c0]:
            problems.append(f"action of morphism {f}: wrong source size")
        if not tables_fit([table], [len(table)], [sizes[c1]]):
            problems.append(f"action of morphism {f}: wrong target size")
    if problems:
        return problems
    for o, i in enumerate(cat.identity):
        if list(tables[i]) != list(range(sizes[o])):
            problems.append(f"identity of object {o} does not act as identity")
    # once the identities act as identities, a pair with one in it
    # composes correctly, so only the other pairs need their tables read
    ids = () if problems else cat.identity
    for g, f, gf in pairs:
        if g in ids or f in ids:
            continue
        gt = tables[g]
        if list(tables[gf]) != [gt[t] for t in tables[f]]:
            problems.append(f"functoriality fails: action of comp[{g}][{f}]")
    return problems


def _action_columns(cat: FinCat, actions, sizes) -> list[list[tuple]] | None:
    """The action tables of the C-sets in actions, a morphism at a time,
    as tuples: columns[f][i] is the action of morphism f on C-set i, whose
    set at object c has size sizes[c][i] (sizes[c] a list).  None unless
    every table is a list or tuple that fits its sizes; checked over all
    the C-sets at once, with no Python step per C-set."""
    if not (set(map(type, actions)) <= {list, tuple}
            and set(map(len, actions)) <= {cat.morphism_count}):
        return None
    columns = list(zip(*actions)) or [()] * cat.morphism_count
    if not all(tables_fit(col, sizes[c0], sizes[c1])
               for col, c0, c1 in zip(columns, cat.src, cat.tgt)):
        return None
    return [list(map(tuple, col)) for col in columns]


def _actions_lawful(cat: FinCat, columns, sizes) -> bool:
    """Whether identities act as identities and every composite acts as
    the composite of the actions, over columns of tuple tables that fit
    their sizes, as _action_columns and the loader make them.  An
    identity costs one list comparison against the identity tables."""
    ids = cat.identity
    for o, i in enumerate(ids):
        ident = {size: tuple(range(size)) for size in set(sizes[o])}
        if columns[i] != list(map(ident.__getitem__, sizes[o])):
            return False
    # once the identities act as identities, a pair with one in it
    # composes correctly, so only the other pairs need their tables read
    return all(columns[gf] == [tuple(map(tg.__getitem__, tf))
                               for tg, tf in zip(columns[g], columns[f])]
               for g, row in enumerate(cat.comp) for f, gf in enumerate(row)
               if gf != -1 and g not in ids and f not in ids)


def _naturality_problems(cat: FinCat, shape: SimpleGraph, slices,
                         vertex_columns, edge_columns) -> list[str]:
    """Each leg whose naturality square fails at a morphism, named, in a
    C-set diagram whose slices are valid and whose action columns fit and
    act lawfully."""
    # both sides of each square run from component c0 of the vertex C-set
    # to component c1 of the edge C-set, sizes checked; the square of an
    # identity commutes, since identities act as identities
    arrows = [(f, slices[c0].tables, slices[c1].tables, vertex_columns[f],
               edge_columns[f])
              for f, (c0, c1) in enumerate(zip(cat.src, cat.tgt))
              if f not in cat.identity]
    problems = []
    if not arrows:  # a discrete C: every square is an identity's
        return problems
    for e, (u, v) in enumerate(shape.edges):
        for side, x in enumerate((u, v)):
            for f, legs0, legs1, vertex_tables, edge_tables in arrows:
                l0 = legs0[e][side]
                l1 = legs1[e][side]
                ef = edge_tables[e]
                if [l1[t] for t in vertex_tables[x]] != [ef[t] for t in l0]:
                    problems.append(
                        f"leg of edge {e} at vertex {x}: naturality square "
                        f"fails at morphism {f}")
    return problems


def _laws_hold(cat: FinCat, shape: SimpleGraph, slices, vertex_columns,
               edge_columns) -> bool:
    """Whether a C-set diagram's identities act as identities, its
    actions are functorial and its legs natural.  It assumes what the
    loader and validate_cset_codecomp check first: the category is valid,
    the slices are valid, and vertex_columns[f][x] and edge_columns[f][e]
    are tuple tables of morphism f, at vertex x or edge e, that fit their
    sizes."""
    return (_actions_lawful(cat, vertex_columns,
                            [s.vertex_size for s in slices])
            and _actions_lawful(cat, edge_columns,
                                [s.edge_size for s in slices])
            and not _naturality_problems(cat, shape, slices, vertex_columns,
                                         edge_columns))


def validate_cset_codecomp(d: CSetCoDecomposition) -> list[str]:
    """The category, every slice not recorded valid (by validate), every
    C-set's action tables, then _laws_hold; returns a list of violations,
    empty when ok.  A recorded diagram returns [] at once, and a diagram
    found valid is recorded.  The C-sets are walked one at a time only to
    name a problem."""
    if d._valid:
        return []
    problems = validate_fincat(d.cat)
    if problems:
        return [f"category: {p}" for p in problems]
    cat = d.cat
    sized = True
    for c, s in enumerate(d.slices):
        found = validate(s)
        sized = sized and not (found and size_problems(s))
        problems += [f"object {c}: {p}" for p in found]
    if not sized:  # the actions are read against the sizes
        return problems
    kinds = (("vertex", d.vertex_actions,
              [list(s.vertex_size) for s in d.slices]),
             ("edge", d.edge_actions, [list(s.edge_size) for s in d.slices]))
    columns = [_action_columns(cat, actions, sizes)
               for _, actions, sizes in kinds]
    if not problems and None not in columns and _laws_hold(
            cat, d.shape, d.slices, *columns):
        d._valid = True
        return problems
    pairs = [(g, f, gf) for g, row in enumerate(cat.comp)
             for f, gf in enumerate(row) if gf != -1]
    for kind, actions, sizes in kinds:
        for i, tables in enumerate(actions):
            problems += [f"{kind} {i}: {p}" for p in _action_problems(
                cat, tables, [col[i] for col in sizes], pairs)]
    if problems:
        return problems
    return _naturality_problems(cat, d.shape, d.slices, *columns)


def pointwise_slice(d: CSetCoDecomposition, c: int) -> CoDecomposition:
    """The plain diagram obtained by evaluating every C-set and leg at one
    C-object: the stored slice itself, not a copy."""
    if type(c) is not int or not 0 <= c < d.cat.object_count:
        raise ValueError(f"no C-object {c!r}")
    return d.slices[c]


def cset_inlim(
    d: CSetCoDecomposition,
    fvs: VertexSet | None = None,
    k_max: int | None = None,
) -> Verdict:
    """Emptiness for C-set diagrams: the limit is the initial (everywhere
    empty) C-set iff every pointwise slice has an empty limit.

    inlim(slice, fvs, k_max) solves each slice in object order, and the
    answer is NONEMPTY at the first nonempty slice.  The slices share the
    diagram's shape object, whose kept S and plan serve them all; it keeps
    one plan, so slices on both sides of _MIN_BLOCK pinned combinations
    plan again per change of block order: an O(n) plan beside a sweep of
    at least O(n).  Over no C-object the answer is EMPTY with no FVS
    search: only a k_max that is not an int >= 0 is refused, and a
    supplied set is not checked.  ValueError names the problems of an
    invalid diagram: every call runs validate_cset_codecomp, which
    returns at once on a diagram recorded valid, by its loader or an
    earlier check, and reads no slice recorded valid.
    """
    problems = validate_cset_codecomp(d)
    if problems:
        raise ValueError("invalid C-set diagram: " + "; ".join(problems))
    # inlim checks the budget too, but over no C-object no inlim runs
    if fvs is None and k_max is not None:
        _check_budget(k_max)
    for slice_ in d.slices:
        if not inlim(slice_, fvs, k_max).verdict.empty_limit:
            return Verdict(False)
    return Verdict(True)
