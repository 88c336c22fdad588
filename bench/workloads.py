"""Seeded instance generators whose answers are known by construction.

Every generator writes the program's JSON input formats directly, with no
call into limsolve, so set-up time and the inputs themselves do not depend
on the program under test.  Each instance carries what the checkers need to
confirm its answer independently: the planted family, the bijective-leg
structure of an EMPTY diagram, the feedback vertex set, the planted
colouring or the planted K4.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Shape-vertex counts per ladder rung and instances per rung.  Rungs hold
# the same families in the same proportions, so every order statistic over
# the instance set lands in the same family on every seed.
FOREST_W = 5
FOREST_LADDER = ((400, 16), (1000, 12), (2000, 6), (4000, 4), (8000, 2))
PINNED_W = 3
PINNED_KS = (1, 2, 3)
PINNED_LADDER = ((151, 15), (301, 12), (601, 9), (1201, 6))
CSET_W = 3
CSET_LADDER = {2: ((40, 8), (60, 6), (90, 4), (120, 2)),
               3: ((8, 8), (12, 6), (16, 4), (22, 2))}
HOM_BAND = 3            # X-edges join vertices at most this far apart
HOM_EDGE_P = 0.5        # chance that an allowed X-edge is present
HOM_LADDER = ((50, 16), (100, 12), (200, 8), (400, 4))
HOM_NOHOM_EVERY = 4     # every fourth instance of a rung gets a K4


@dataclass
class Instance:
    """One generated input and its known answer.

    n is the number of shape vertices (bags, for hom-3col); family groups
    instances of one structure for the scaling fit; text is the JSON the
    program loads.  nonempty is the known verdict (HOM for hom-3col).
    """

    name: str
    family: str
    n: int
    text: str
    nonempty: bool
    k: int = 0
    fvs: tuple[int, ...] = ()
    planted: list[int] | None = None
    extra: dict = field(default_factory=dict)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds hash with sha512, so they are stable across processes
    return random.Random(f"{workload}:{seed}:{index}")


def _diagram(n: int, edges, vertex_sizes, edge_sizes, leg_maps) -> dict:
    legs = []
    for e, (u, v) in enumerate(edges):
        mu, mv = leg_maps[e]
        legs.append({"edge": e, "endpoint": u, "map": mu})
        legs.append({"edge": e, "endpoint": v, "map": mv})
    return {
        "shape": {"n": n, "edges": [list(p) for p in edges]},
        "vertex_sets": [{"size": s} for s in vertex_sizes],
        "edge_sets": [{"size": s} for s in edge_sizes],
        "legs": legs,
    }


def _planted_legs(rng: random.Random, edges, fam, w: int) -> list:
    """Uniform leg tables of width w, except that both endpoints' planted
    elements land on one shared edge element."""
    elems = range(w)
    shared = rng.choices(elems, k=len(edges))
    flat = rng.choices(elems, k=2 * w * len(edges))
    maps = []
    for e, (u, v) in enumerate(edges):
        at = 2 * w * e
        mu = flat[at:at + w]
        mv = flat[at + w:at + 2 * w]
        mu[fam[u]] = mv[fam[v]] = shared[e]
        maps.append((mu, mv))
    return maps


def _invert(p: list[int]) -> list[int]:
    inv = [0] * len(p)
    for i, t in enumerate(p):
        inv[t] = i
    return inv


def _derangement(rng: random.Random, w: int) -> list[int]:
    while True:
        p = list(range(w))
        rng.shuffle(p)
        if all(p[i] != i for i in range(w)):
            return p


def _bijective_cycle_legs(rng: random.Random, edges, cycles, w: int) -> list:
    """Random permutation legs; on each listed cycle the last leg is
    rewritten so that the holonomy is a derangement, which leaves the
    cycle, and hence the whole diagram, without a matching family.

    A cycle is (vertex list v0..vm-1, edge ids e0..em-1) with edge ej
    joining vj and vj+1 (indices mod m); the rewritten leg is the one of
    e_{m-1} at v0.
    """
    maps = []
    for _ in edges:
        mu = list(range(w))
        mv = list(range(w))
        rng.shuffle(mu)
        rng.shuffle(mv)
        maps.append([mu, mv])

    def leg(e: int, x: int) -> list[int]:
        return maps[e][0] if edges[e][0] == x else maps[e][1]

    for verts, eids in cycles:
        m = len(verts)
        # transport P from v0 around to v_{m-1}
        p = list(range(w))
        for j in range(m - 1):
            fa = leg(eids[j], verts[j])
            fb_inv = _invert(leg(eids[j], verts[j + 1]))
            p = [fb_inv[fa[x]] for x in p]
        delta_inv = _invert(_derangement(rng, w))
        last = eids[m - 1]
        f_far = leg(last, verts[m - 1])
        # holonomy f0^-1 . f_far . P == delta  <=>  f0 = f_far . P . delta^-1
        f0 = [f_far[p[delta_inv[y]]] for y in range(w)]
        side = 0 if edges[last][0] == verts[0] else 1
        maps[last][side] = f0
    return [tuple(m) for m in maps]


def _ladder_order(ladder) -> list[tuple[int, int]]:
    """(n, index within its rung) per instance, rungs interleaved
    round-robin so that drift in machine speed during a round touches
    every rung alike."""
    queues = [[(n, j) for j in range(count)] for n, count in ladder]
    order = []
    while any(queues):
        for q in queues:
            if q:
                order.append(q.pop(0))
    return order


def forest_planted(seed: int) -> list[Instance]:
    """Planted-NONEMPTY diagrams on paths and random recursive trees."""
    out = []
    w = FOREST_W
    for i, (n, j) in enumerate(_ladder_order(FOREST_LADDER)):
        rng = _rng("forest-planted", seed, i)
        family = "path" if j % 2 == 0 else "tree"
        if family == "path":
            edges = [(x, x + 1) for x in range(n - 1)]
        else:
            edges = [(rng.randrange(x), x) for x in range(1, n)]
        fam = rng.choices(range(w), k=n)
        legs = _planted_legs(rng, edges, fam, w)
        text = _dumps(_diagram(n, edges, [w] * n, [w] * len(edges), legs))
        out.append(Instance(f"{family}-{n}-{i}", family, n, text, True,
                            planted=fam))
    return out


def spider(k: int, n: int) -> tuple[list[tuple[int, int]], list, tuple[int, ...]]:
    """Root 0 with k equal branches; hub n-k+i closes a cycle through the
    tip and the base of branch i.  Returns edges, cycles, feedback set."""
    b = (n - 1 - k) // k
    if 1 + k * b + k != n or b < 2:
        raise ValueError(f"n={n} does not split into {k} branches")
    edges = []
    cycles = []
    for i in range(k):
        first = 1 + i * b
        branch = list(range(first, first + b))
        hub = n - k + i
        edges.append((0, branch[0]))
        eids = [len(edges)]
        edges.append((hub, branch[-1]))
        for j in range(b - 1, 0, -1):
            eids.append(len(edges))
            edges.append((branch[j - 1], branch[j]))
        eids.append(len(edges))
        edges.append((branch[0], hub))
        cycles.append(([hub] + branch[::-1], eids))
    return edges, cycles, tuple(range(n - k, n))


def probe_inputs() -> tuple[dict, str]:
    """Fixed inputs, the same on every seed, for the benchmark's speed
    probe: an EMPTY spider diagram for the spanning-tree check, and the JSON
    text of a planted path for json.loads."""
    rng = random.Random("probe")
    edges, cycles, _ = spider(1, 151)
    legs = _bijective_cycle_legs(rng, edges, cycles, 3)
    empty = _diagram(151, edges, [3] * 151, [3] * len(edges), legs)
    n = 400
    path = [(x, x + 1) for x in range(n - 1)]
    fam = rng.choices(range(5), k=n)
    legs = _planted_legs(rng, path, fam, 5)
    return empty, _dumps(_diagram(n, path, [5] * n, [5] * (n - 1), legs))


def pinned_empty(seed: int) -> list[Instance]:
    """EMPTY diagrams on spider shapes with k hubs, bijective legs and
    fixed-point-free holonomy on every hub cycle."""
    out = []
    w = PINNED_W
    for i, (n, j) in enumerate(_ladder_order(PINNED_LADDER)):
        k = PINNED_KS[j % len(PINNED_KS)]
        rng = _rng("pinned-empty", seed, i)
        edges, cycles, fvs = spider(k, n)
        legs = _bijective_cycle_legs(rng, edges, cycles, w)
        text = _dumps(_diagram(n, edges, [w] * n, [w] * len(edges), legs))
        out.append(Instance(f"spider-k{k}-{n}-{i}", f"k{k}", n, text, False,
                            k=k, fvs=fvs))
    return out


DISCRETE_2 = {"objects": 2,
              "morphisms": [{"id": 0, "src": 0, "tgt": 0},
                            {"id": 1, "src": 1, "tgt": 1}],
              "identities": [0, 1], "comp": [[0, -1], [-1, 1]]}


def _discrete_cset(size: int) -> dict:
    ident = {"map": list(range(size))}
    return {"objects": [{"size": size}, {"size": size}],
            "actions": [ident, ident]}


def disjoint_cycles(k: int, length: int):
    edges = []
    cycles = []
    for c in range(k):
        verts = list(range(c * length, (c + 1) * length))
        eids = []
        for j in range(length):
            eids.append(len(edges))
            edges.append((verts[j], verts[(j + 1) % length]))
        cycles.append((verts, eids))
    return edges, cycles


def cset_fvs(seed: int) -> list[Instance]:
    """C-set diagrams over the discrete category on two objects, shaped as
    k disjoint cycles.  Slice 0 is EMPTY (bijective legs, derangement
    holonomy), slice 1 is planted NONEMPTY, so both slices are solved."""
    out = []
    w = CSET_W
    orders = {k: _ladder_order(ladder) for k, ladder in CSET_LADDER.items()}
    ks = sorted(orders)
    i = 0
    while any(orders.values()):
        for k in ks:
            if not orders[k]:
                continue
            length, _ = orders[k].pop(0)
            rng = _rng("cset-fvs", seed, i)
            n = k * length
            edges, cycles = disjoint_cycles(k, length)
            empty_legs = _bijective_cycle_legs(rng, edges, cycles, w)
            fam = rng.choices(range(w), k=n)
            planted_legs = _planted_legs(rng, edges, fam, w)
            legs = []
            for e, (u, v) in enumerate(edges):
                for side, x in enumerate((u, v)):
                    legs.append({"edge": e, "endpoint": x,
                                 "maps": [{"map": empty_legs[e][side]},
                                          {"map": planted_legs[e][side]}]})
            obj = {"shape": {"n": n, "edges": [list(p) for p in edges]},
                   "vertex_csets": [_discrete_cset(w)] * n,
                   "edge_csets": [_discrete_cset(w)] * len(edges),
                   "legs": legs}
            text = _dumps({"category": DISCRETE_2, "diagram": obj})
            out.append(Instance(f"cycles-k{k}-{n}-{i}", f"k{k}", n, text,
                                True, k=k, planted=fam))
            i += 1
    return out


def hom_3col(seed: int) -> list[Instance]:
    """Graphs X of bandwidth 3 with a planted 3-colouring, some with a K4
    planted in one window, each with its path-of-windows decomposition:
    bag i holds X-vertices i..i+3."""
    out = []
    span = HOM_BAND + 1
    for i, (n, j) in enumerate(_ladder_order(HOM_LADDER)):
        rng = _rng("hom-3col", seed, i)
        size = n + HOM_BAND          # X-vertices for n bags
        col = rng.choices(range(3), k=size)
        edges = set()
        for u in range(size):
            for v in range(u + 1, min(u + span, size)):
                if col[u] != col[v] and rng.random() < HOM_EDGE_P:
                    edges.add((u, v))
        k4 = None
        if j % HOM_NOHOM_EVERY == HOM_NOHOM_EVERY - 1:
            base = n // 4
            k4 = tuple(range(base, base + span))
            edges.update((a, b) for a in k4 for b in k4 if a < b)
        edges = sorted(edges)
        bags = [list(range(b, b + span)) for b in range(n)]
        adhesions = [list(range(b + 1, b + span)) for b in range(n - 1)]
        obj = {"X": {"n": size, "edges": [list(p) for p in edges]},
               "shape": {"n": n, "edges": [[b, b + 1] for b in range(n - 1)]},
               "bags": bags, "adhesions": adhesions}
        family = "nohom" if k4 else "hom"
        out.append(Instance(f"{family}-{n}-{i}", family, n, _dumps(obj),
                            k4 is None, planted=None if k4 else col,
                            extra={"k4": k4}))
    return out


GENERATORS = {
    "forest-planted": forest_planted,
    "pinned-empty": pinned_empty,
    "cset-fvs": cset_fvs,
    "hom-3col": hom_3col,
}
