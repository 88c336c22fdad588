"""Seeded random shapes, diagrams, C-set diagrams, and bag decompositions.

Everything is driven by an explicit random.Random so that a seed pins the
instance byte for byte.
"""

from __future__ import annotations

import random

from .cset import CSetCoDecomposition, FinCat
from .diagram import CoDecomposition
from .graphs import MAX_SET_SIZE, SimpleGraph
from .hom import BagDecomposition


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen_graph() -> SimpleGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph(10, outer + spokes + inner)


def random_tree(rng: random.Random, n: int) -> SimpleGraph:
    return SimpleGraph(n, [(rng.randrange(i), i) for i in range(1, n)])


def random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    pairs = n * (n - 1) // 2
    if pairs > MAX_SET_SIZE:  # one draw per pair; K_n is the p = 1 case
        raise ValueError(f"random graph on {n} vertices has {pairs} vertex "
                         f"pairs, above the limit of {MAX_SET_SIZE}")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return SimpleGraph(n, edges)


def random_diagram(
    rng: random.Random,
    shape: SimpleGraph,
    w: int,
    fixed_size: bool = False,
) -> CoDecomposition:
    """Random diagram over the shape: set sizes uniform in 1..w (or exactly
    w when fixed_size), leg tables uniform over their targets."""
    if w < 1:
        raise ValueError("w must be >= 1")
    size = (lambda: w) if fixed_size else (lambda: rng.randint(1, w))
    vertex_size = [size() for _ in range(shape.n)]
    edge_size = [size() for _ in range(shape.m)]
    tables = [(tuple(rng.randrange(te) for _ in range(vertex_size[u])),
               tuple(rng.randrange(te) for _ in range(vertex_size[v])))
              for (u, v), te in zip(shape.edges, edge_size)]
    return CoDecomposition(shape, vertex_size, edge_size, tables)


def generate_instance(kind: str, n: int, w: int, seed: int,
                      p: float = 0.3, fixed_size: bool = False) -> CoDecomposition:
    rng = random.Random(seed)
    if kind == "path":
        shape = path_graph(n)
    elif kind == "cycle":
        shape = cycle_graph(n)
    elif kind == "tree":
        shape = random_tree(rng, n)
    elif kind == "random":
        shape = random_graph(rng, n, p)
    else:
        raise ValueError(f"unknown instance kind '{kind}'")
    return random_diagram(rng, shape, w, fixed_size=fixed_size)


def random_walking_arrow_diagram(
    rng: random.Random, shape: SimpleGraph, w: int
) -> CSetCoDecomposition:
    """Random diagram of C-sets over the walking arrow (objects 0 -> 1).

    The vertex C-sets get injective arrow actions so that natural legs can
    always be completed: the leg component at object 1 is forced on the
    action's image and free elsewhere.
    """
    vertex_size = ([], [])
    vertex_actions = []
    for _ in range(shape.n):
        s0 = rng.randint(1, w)
        s1 = rng.randint(s0, w)
        arrow = tuple(rng.sample(range(s1), s0))
        vertex_actions.append((tuple(range(s0)), tuple(range(s1)), arrow))
        vertex_size[0].append(s0)
        vertex_size[1].append(s1)
    edge_size = ([], [])
    edge_actions = []
    for _ in range(shape.m):
        s0 = rng.randint(1, w)
        s1 = rng.randint(1, w)
        arrow = tuple(rng.randrange(s1) for _ in range(s0))
        edge_actions.append((tuple(range(s0)), tuple(range(s1)), arrow))
        edge_size[0].append(s0)
        edge_size[1].append(s1)

    def random_leg(x: int, e: int) -> tuple[tuple, tuple]:
        leg0 = tuple(rng.randrange(edge_size[0][e])
                     for _ in range(vertex_size[0][x]))
        # naturality forces the object-1 component on the arrow's image;
        # every element still takes a draw, forced or not
        forced = {b: edge_actions[e][2][t]
                  for b, t in zip(vertex_actions[x][2], leg0)}
        draws = [rng.randrange(edge_size[1][e])
                 for _ in range(vertex_size[1][x])]
        return leg0, tuple(forced.get(b, t) for b, t in enumerate(draws))

    tables = ([], [])
    for e, (u, v) in enumerate(shape.edges):
        (u0, u1), (v0, v1) = random_leg(u, e), random_leg(v, e)
        tables[0].append((u0, v0))
        tables[1].append((u1, v1))
    slices = [CoDecomposition(shape, vertex_size[c], edge_size[c], tables[c])
              for c in (0, 1)]
    return CSetCoDecomposition(FinCat.walking_arrow(), shape, slices,
                               vertex_actions, edge_actions)


def lift_to_terminal_cset(d: CoDecomposition) -> CSetCoDecomposition:
    """Wrap a plain diagram as a diagram of C-sets over the one-object,
    one-morphism category: d is the only slice, and the one morphism acts
    as the identity."""
    return CSetCoDecomposition(
        FinCat.terminal(), d.shape, [d],
        [(tuple(range(s)),) for s in d.vertex_size],
        [(tuple(range(s)),) for s in d.edge_size])


def elimination_decomposition(rng: random.Random, x: SimpleGraph) -> BagDecomposition:
    """Tree (forest) decomposition of x from a min-degree elimination order
    with seeded tie-breaking; bags are {v} union its not-yet-eliminated
    neighbors in the fill graph."""
    adj = [set() for _ in range(x.n)]
    for u, v in x.edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(x.n))
    # live degree: neighbours in the fill graph not yet eliminated
    deg = [len(a) for a in adj]
    order: list[int] = []
    elim_index: dict[int, int] = {}
    bags: list[tuple[int, ...]] = []
    while alive:
        dmin = min(deg[v] for v in alive)
        candidates = sorted(v for v in alive if deg[v] == dmin)
        v = candidates[rng.randrange(len(candidates))]
        rest = sorted(adj[v] & alive)
        bags.append(tuple([v] + rest))
        for a in rest:
            deg[a] -= 1
            for b in rest:
                if a < b and b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    deg[a] += 1
                    deg[b] += 1
        elim_index[v] = len(order)
        order.append(v)
        alive.remove(v)
    edges = []
    for i, bag in enumerate(bags):
        rest = [u for u in bag if u != order[i]]
        if rest:
            parent = min(elim_index[u] for u in rest)
            edges.append((i, parent))
    shape = SimpleGraph(len(bags), edges)
    return BagDecomposition(x, shape, tuple(bags))
