"""Diagrams valued in C-sets for a finite category C, solved pointwise.

A C-set assigns a finite set to every C-object and a compatible function
to every C-morphism.  Limits and images of C-set diagrams are computed
objectwise, so emptiness reduces to one plain solve per C-object: the
limit is the empty C-set exactly when every pointwise slice has an empty
limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .diagram import (CoDecomposition, Verdict, size_problems, tables_fit,
                      validate)
from .graphs import SimpleGraph, VertexSet, _check_budget
from .solver import inlim


@dataclass(frozen=True)
class FinCat:
    """Finite category given by a full morphism list and composition table.

    Morphism ids index src/tgt; comp[g][f] is the id of "g after f", or -1
    when tgt(f) != src(g).  A category is checked once: the first
    validate_fincat that finds it valid, which parse_fincat runs, records
    it so, and later checks return at once.
    """

    object_count: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    identity: tuple[int, ...]
    comp: tuple[tuple[int, ...], ...]
    _valid: bool = field(default=False, init=False, repr=False,
                         compare=False)

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
    bookkeeping; returns a list of violations, empty when ok.  A recorded
    category returns [] at once, and a category found valid is recorded.
    Every id and comp entry must be an int (bool excluded), and src, tgt,
    identities, comp and its rows lists or tuples."""
    if c._valid:
        return []
    if type(c.object_count) is not int:
        return ["object count is not an int"]
    if not {type(c.src), type(c.tgt), type(c.identity),
            type(c.comp)} <= {list, tuple}:
        return ["src, tgt, identities and comp must be lists or tuples"]
    problems = []
    nm = c.morphism_count
    if len(c.tgt) != nm:
        problems.append("src/tgt length mismatch")
        return problems
    for f, (s, t) in enumerate(zip(c.src, c.tgt)):
        if type(s) is not int or type(t) is not int:
            return [f"morphism {f}: src/tgt is not an int"]
        if not (0 <= s < c.object_count and 0 <= t < c.object_count):
            problems.append(f"morphism {f}: src/tgt out of range")
    if len(c.identity) != c.object_count:
        problems.append("one identity per object required")
        return problems
    for o, i in enumerate(c.identity):
        if type(i) is not int:
            problems.append(f"identity of object {o} is not an int")
        elif not 0 <= i < nm or c.src[i] != o or c.tgt[i] != o:
            problems.append(f"identity of object {o} is not an endomorphism of it")
    if len(c.comp) != nm or any(type(row) not in (list, tuple)
                                or len(row) != nm for row in c.comp):
        problems.append("composition table must be morphisms x morphisms")
        return problems
    for g in range(nm):
        for f in range(nm):
            gf = c.comp[g][f]
            if type(gf) is not int:
                problems.append(f"comp[{g}][{f}] is not an int")
            elif c.tgt[f] != c.src[g]:
                if gf != -1:
                    problems.append(
                        f"comp[{g}][{f}] defined although not composable")
            elif not 0 <= gf < nm:
                problems.append(f"comp[{g}][{f}] missing for composable pair")
            elif c.src[gf] != c.src[f] or c.tgt[gf] != c.tgt[g]:
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
    if not problems:  # frozen, so recorded past its own __setattr__
        object.__setattr__(c, "_valid", True)
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
    calls; only the lengths are checked here.  Both read the laws with
    one function, _law_problems, once every table fits its sizes.  Found
    valid, a diagram is recorded so, and no later check reads it again;
    its category is recorded by its own first clean check.
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


def _action_problems(cat: FinCat, tables, sizes) -> list[str]:
    """The action tables of one C-set that do not fit its sizes, named:
    tables[f] is the action of morphism f, and sizes[c] the size of its
    set at object c."""
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


def _law_problems(cat: FinCat, shape: SimpleGraph, slices, vertex_columns,
                  edge_columns) -> list[str]:
    """Each C-set whose identities do not act as identities or whose
    actions are not functorial, named, then, when the actions are lawful,
    each leg that is not natural; empty when every law holds.  It assumes
    what the loader and validate_cset_codecomp check first: the category
    is valid, the slices are valid, and vertex_columns[f][x] and
    edge_columns[f][e] are tuple tables of morphism f, at vertex x or
    edge e, that fit their sizes.  A morphism's column is compared whole,
    and walked only when it fails, to find the C-sets it fails at."""
    problems = []
    for kind, columns, sizes in (
            ("vertex", vertex_columns, [s.vertex_size for s in slices]),
            ("edge", edge_columns, [s.edge_size for s in slices])):
        found = []  # (C-set, text), in the order one C-set is checked in

        def check(column, want, text):
            if column != want:
                found.extend((i, text) for i, (table, ok)
                             in enumerate(zip(column, want)) if table != ok)

        for o, i in enumerate(cat.identity):
            ident = {size: tuple(range(size)) for size in set(sizes[o])}
            check(columns[i], list(map(ident.__getitem__, sizes[o])),
                  f"identity of object {o} does not act as identity")
        # where the identities act as identities, a pair with one in it
        # composes correctly, so only the other pairs need their tables read
        ids = () if found else cat.identity
        for g, row in enumerate(cat.comp):
            for f, gf in enumerate(row):
                if gf != -1 and g not in ids and f not in ids:
                    check(columns[gf],
                          [tuple(map(tg.__getitem__, tf))
                           for tg, tf in zip(columns[g], columns[f])],
                          f"functoriality fails: action of comp[{g}][{f}]")
        found.sort(key=itemgetter(0))
        problems += [f"{kind} {i}: {text}" for i, text in found]
    return problems or _naturality_problems(cat, shape, slices,
                                            vertex_columns, edge_columns)


def validate_cset_codecomp(d: CSetCoDecomposition) -> list[str]:
    """The category, every slice not recorded valid (by validate), the fit
    of every C-set's action tables to its sizes, then, once every table
    fits, _law_problems; returns a list of violations, empty when ok.  A
    recorded diagram returns [] at once, and a diagram found valid is
    recorded.  The C-sets are walked one at a time only to name a table
    that does not fit."""
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
    columns = []
    for kind, actions, sizes in (
            ("vertex", d.vertex_actions,
             [list(s.vertex_size) for s in d.slices]),
            ("edge", d.edge_actions, [list(s.edge_size) for s in d.slices])):
        columns.append(_action_columns(cat, actions, sizes))
        if columns[-1] is None:
            for i, tables in enumerate(actions):
                problems += [f"{kind} {i}: {p}" for p in _action_problems(
                    cat, tables, [col[i] for col in sizes])]
    if problems:  # the laws are read once every table fits
        return problems
    problems = _law_problems(cat, d.shape, d.slices, *columns)
    d._valid = not problems
    return problems


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
