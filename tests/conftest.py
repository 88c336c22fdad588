"""Shared builders: the worked examples and random-instance helpers."""

from __future__ import annotations

import random

from limsolve import CoDecomposition, SimpleGraph, SubMask, VertexSet
from limsolve.generate import random_diagram, random_graph, random_tree


def path_example() -> CoDecomposition:
    """Path-shaped diagram {a,b,c} -> {x,y} <- {α,β} -> {u,v} <- {r,s}.

    Exactly two matching families, (c, β, r) and (c, β, s); the image
    subdiagram is {c}, {y}, {β}, {v}, {r,s}.
    """
    return CoDecomposition(
        SimpleGraph(3, [(0, 1), (1, 2)]), [3, 2, 2], [2, 2],
        [((0, 0, 1), (0, 1)), ((0, 1), (1, 1))],
        vertex_labels={0: ("a", "b", "c"), 1: ("α", "β"), 2: ("r", "s")},
        edge_labels={0: ("x", "y"), 1: ("u", "v")},
    )


def c4_example() -> CoDecomposition:
    """Four-cycle diagram with an empty limit: both vertical edges are
    equalities, the top edge pairs a-c and b-d, the bottom pairs a-d and
    b-c, so no global choice exists.

    Vertices 0..3 are the cycle 0-1-2-3-0; sets are {a,b} at 0 and 3,
    {c,d} at 1 and 2.  Edge 0 is the twisted one.
    """
    return _c4((1, 0))


def c4_untwisted_example() -> CoDecomposition:
    """The same shape with the bottom leg at vertex 1 straightened
    (c -> 3, d -> 4): matching families exist."""
    return _c4((0, 1))


def _c4(leg_at_1) -> CoDecomposition:
    ab, cd = ("a", "b"), ("c", "d")
    return CoDecomposition(
        SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), [2] * 4, [2] * 4,
        [((0, 1), leg_at_1)] + [((0, 1), (0, 1))] * 3,
        vertex_labels={0: ab, 1: cd, 2: cd, 3: ab},
        edge_labels={0: ("3", "4"), 1: cd, 2: ("1", "2"), 3: ab},
    )


def cospan_example() -> CoDecomposition:
    """1 -> {a,b} <- 1 hitting distinct elements: empty limit."""
    return CoDecomposition(SimpleGraph(2, [(0, 1)]), [1, 1], [2],
                           [((0,), (1,))], edge_labels={0: ("a", "b")})


def edgeless_diagram(sizes) -> CoDecomposition:
    return CoDecomposition(SimpleGraph(len(sizes), []), list(sizes), [], [])


def shifted_spider(k: int, n: int, w: int = 3) -> tuple[CoDecomposition, VertexSet]:
    """An EMPTY diagram on a spider: root 0 with k equal branches, and hub
    n - k + i closing a cycle through the tip and the base of branch i.
    Every leg is the identity on w elements except one per hub cycle, which
    shifts by one, so no cycle carries a matching family.  Returns the
    diagram and its feedback vertex set, the k hubs."""
    b = (n - 1 - k) // k
    if 1 + k * b + k != n or b < 2:
        raise ValueError(f"n={n} does not split into {k} branches")
    ident = tuple(range(w))
    shift = tuple((a + 1) % w for a in range(w))
    edges = []
    tables = []
    for i in range(k):
        branch = range(1 + i * b, 1 + (i + 1) * b)
        hub = n - k + i
        edges += [(0, branch[0]), (hub, branch[-1])]
        edges += [(branch[j], branch[j + 1]) for j in range(b - 1)]
        edges.append((branch[0], hub))
        tables += [(ident, ident)] * (b + 1) + [(ident, shift)]
    d = CoDecomposition(SimpleGraph(n, edges), [w] * n, [w] * len(edges),
                        tables)
    return d, VertexSet.of(n, range(n - k, n))


def random_tree_diagram(seed: int, n_max: int = 10, w: int = 4) -> CoDecomposition:
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    return random_diagram(rng, random_tree(rng, n), w)


def random_graph_diagram(seed: int, n_max: int = 8, w: int = 3,
                         p: float = 0.3) -> CoDecomposition:
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    return random_diagram(rng, random_graph(rng, n, p), w)


def random_closed_mask(rng: random.Random, d: CoDecomposition) -> SubMask:
    """Random leg-closed submask: vertex masks narrowed at random, edge
    masks left full."""
    m = d.full_mask()
    for x, size in enumerate(d.vertex_size):
        m.vertex[x] = rng.getrandbits(size) if size else 0
    return m


def diagrams_equal(d1: CoDecomposition, d2: CoDecomposition) -> bool:
    """Structural equality: same shape, set sizes, and leg tables."""
    if d1.shape != d2.shape:
        return False
    return (list(d1.vertex_size) == list(d2.vertex_size)
            and list(d1.edge_size) == list(d2.edge_size)
            and [tuple(map(tuple, p)) for p in d1.tables]
            == [tuple(map(tuple, p)) for p in d2.tables])
