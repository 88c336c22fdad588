"""Shared builders: the worked examples and random-instance helpers."""

from __future__ import annotations

import json
import math
import random
import time

from limsolve import CoDecomposition, SimpleGraph, SubMask, VertexSet, jsonio
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


def _spider(k: int, n: int) -> tuple[list[tuple[int, int]], VertexSet]:
    """Root 0 with k equal branches, and hub n - k + i closing a cycle
    through the tip and the base of branch i.  Returns the edges, branch
    by branch: base, hub to tip, the branch's path, then base to hub; and
    the feedback vertex set, the k hubs."""
    b = (n - 1 - k) // k
    if 1 + k * b + k != n or b < 2:
        raise ValueError(f"n={n} does not split into {k} branches")
    edges = []
    for i in range(k):
        branch = range(1 + i * b, 1 + (i + 1) * b)
        hub = n - k + i
        edges += [(0, branch[0]), (hub, branch[-1])]
        edges += [(branch[j], branch[j + 1]) for j in range(b - 1)]
        edges.append((branch[0], hub))
    return edges, VertexSet.of(n, range(n - k, n))


def shifted_spider(k: int, n: int, w: int = 3) -> tuple[CoDecomposition, VertexSet]:
    """An EMPTY diagram on _spider(k, n).  Every leg is the identity on w
    elements except one per hub cycle, which shifts by one, so no cycle
    carries a matching family.  Returns the diagram and its feedback
    vertex set, the k hubs."""
    edges, hubs = _spider(k, n)
    ident = tuple(range(w))
    shift = tuple((a + 1) % w for a in range(w))
    branch = [(ident, ident)] * (len(edges) // k - 1) + [(ident, shift)]
    tables = branch * k
    return CoDecomposition(SimpleGraph(n, edges), [w] * n, [w] * len(edges),
                           tables), hubs


def narrowing_spider(k: int, n: int, w: int = 3) -> tuple[CoDecomposition, VertexSet]:
    """A NONEMPTY diagram on _spider(k, n) whose root set has one element,
    which every base edge maps to element w - 1; every other set has w
    elements and every other leg is the identity.  Branch i's cycle then
    forces hub i to w - 1, so each branch only narrows which combinations
    survive at the root, and the only survivor is the last one.  Returns
    the diagram and its feedback vertex set, the k hubs."""
    edges, hubs = _spider(k, n)
    ident = tuple(range(w))
    branch = [((w - 1,), ident)] + [(ident, ident)] * (len(edges) // k - 1)
    tables = branch * k
    return CoDecomposition(SimpleGraph(n, edges), [1] + [w] * (n - 1),
                           [w] * len(edges), tables), hubs


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


def corrupt_table(rng: random.Random, table, target: int) -> list:
    """A copy of a map's table with at most one seeded fault: an entry
    replaced by a value in [-1, target], a bool entry, one entry too many
    or one too few.  The copy may still be a valid table."""
    out = list(table)
    fault = rng.randrange(4)
    if fault == 0 and out:
        out[rng.randrange(len(out))] = rng.randrange(-1, target + 1)
    elif fault == 1 and out:
        out[rng.randrange(len(out))] = rng.random() < 0.5
    elif fault == 2:
        out.append(rng.randrange(target + 1))
    elif out:
        out.pop()
    return out


def best_of_interleaved(run, small, large, repeats: int = 5) -> list[float]:
    """The best time of run(small) and of run(large), timed in turns
    (small, large, small, ...): a run can only be slowed by other work on
    the machine, so the fastest one is the closest to the cost, and a slow
    phase of the machine hits both rungs alike."""
    best = [math.inf, math.inf]
    for _ in range(repeats):
        for i, arg in enumerate((small, large)):
            t0 = time.perf_counter()
            run(arg)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def size_form_doc() -> dict:
    """A size-form diagram on the path 0 - 1 - 2, its second edge written
    as (2, 1), in the key and leg order diagram_to_json writes."""
    return {"shape": {"n": 3, "edges": [[0, 1], [2, 1]]},
            "vertex_sets": [{"size": 2}, {"size": 3}, {"size": 1}],
            "edge_sets": [{"size": 2}, {"size": 3}],
            "legs": [{"edge": 0, "endpoint": 0, "map": [0, 1]},
                     {"edge": 0, "endpoint": 1, "map": [0, 1, 1]},
                     {"edge": 1, "endpoint": 2, "map": [2]},
                     {"edge": 1, "endpoint": 1, "map": [0, 1, 2]}]}


DISCRETE_2 = {"objects": 2, "morphisms": [{"id": 0, "src": 0, "tgt": 0},
                                          {"id": 1, "src": 1, "tgt": 1}],
              "identities": [0, 1], "comp": [[0, -1], [-1, 1]]}


def corpus_bases() -> list[tuple[str, dict, dict | None]]:
    """The valid documents the loader corpus mutates, as (name, diagram
    document, category document or None for a plain diagram): a size-form
    and a label-form plain diagram, and C-set diagrams over the terminal
    category (label form), the walking arrow and the discrete category on
    two objects (one labelled and one size-form slice)."""
    from limsolve import CSetCoDecomposition
    from limsolve.cset import FinCat
    from limsolve.generate import (lift_to_terminal_cset,
                                   random_walking_arrow_diagram)

    path = path_example()
    other = CoDecomposition(path.shape, [2, 1, 2], [2, 2],
                            [((0, 1), (1,)), ((0,), (1, 0))])
    discrete = CSetCoDecomposition(
        jsonio.parse_fincat(DISCRETE_2), path.shape, [path, other],
        [(tuple(range(a)), tuple(range(b)))
         for a, b in zip(path.vertex_size, other.vertex_size)],
        [(tuple(range(a)), tuple(range(b)))
         for a, b in zip(path.edge_size, other.edge_size)])
    arrow = random_walking_arrow_diagram(
        random.Random(3), SimpleGraph(3, [(0, 1), (1, 2)]), 3)
    return [
        ("size-form", size_form_doc(), None),
        ("label-form", jsonio.diagram_to_json(path), None),
        ("terminal", jsonio.cset_diagram_to_json(lift_to_terminal_cset(path)),
         jsonio.fincat_to_json(FinCat.terminal())),
        ("walking-arrow", jsonio.cset_diagram_to_json(arrow),
         jsonio.fincat_to_json(FinCat.walking_arrow())),
        ("discrete-2", jsonio.cset_diagram_to_json(discrete), DISCRETE_2),
    ]


def _nodes(node, path=()):
    """Every (path, value) below node, node itself excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate_once(rng: random.Random, doc: dict) -> str:
    """Apply one seeded fault to doc in place and name it: drop a key or
    entry, swap a value's type, put true, 1.0, -1 or an out-of-range
    number where an integer stands, duplicate or drop a leg, shorten or
    lengthen a table, or write an unknown label."""
    nodes = list(_nodes(doc))
    ints = [p for p, v in nodes if type(v) is int]
    strs = [p for p, v in nodes if type(v) is str]
    tables = [p for p, v in nodes if p[-1] == "map"]
    kind = rng.choice(["drop", "type", "int", "int", "leg", "table", "table",
                       "label"])
    if kind == "int" and ints:
        path = rng.choice(ints)
        value = rng.choice([True, 1.0, -1, _at(doc, path) + rng.randint(1, 3)])
        _at(doc, path[:-1])[path[-1]] = value
        return f"int {path} = {value!r}"
    if kind == "leg" and doc["legs"]:
        i = rng.randrange(len(doc["legs"]))
        if rng.random() < 0.5:
            doc["legs"].append(json.loads(json.dumps(doc["legs"][i])))
            return f"duplicate leg {i}"
        doc["legs"].pop(i)
        return f"drop leg {i}"
    if kind == "table" and tables:
        path = rng.choice(tables)
        table = _at(doc, path)
        if isinstance(table, list):
            if table and rng.random() < 0.5:
                table.pop()
                return f"shorten {path}"
            table.append(rng.randrange(3))
            return f"lengthen {path}"
        if isinstance(table, dict) and table and rng.random() < 0.5:
            table.pop(rng.choice(sorted(table)))
            return f"shorten {path}"
        if isinstance(table, dict):
            table["zz"] = rng.choice(sorted(table.values()) or ["zz"])
            return f"lengthen {path}"
    if kind == "label" and strs:
        path = rng.choice(strs)
        _at(doc, path[:-1])[path[-1]] = "zz"
        return f"label {path}"
    path, value = rng.choice(nodes)
    if kind == "type":
        _at(doc, path[:-1])[path[-1]] = (
            {"0": value} if isinstance(value, list)
            else [value] if isinstance(value, dict)
            else str(value) if type(value) is int else 5)
        return f"type {path}"
    del _at(doc, path[:-1])[path[-1]]
    return f"drop {path}"


def loader_corpus(count: int = 80, seed: int = 1):
    """count seeded single mutations of each corpus base, as (base name,
    mutation name, diagram document, category document or None)."""
    rng = random.Random(seed)
    out = []
    for name, doc, cat in corpus_bases():
        text = json.dumps(doc)
        for _ in range(count):
            mutated = json.loads(text)
            out.append((name, mutate_once(rng, mutated), mutated, cat))
    return out
