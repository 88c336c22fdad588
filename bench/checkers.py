"""Independent checkers for the benchmark's answers.

Everything here reads the JSON inputs the benchmark generated and plain
Python values the program returned; nothing imports limsolve.  Each checker
returns a list of problems, empty when the claim holds.  Running this file
performs the self-test: every checker must accept a true claim and reject a
flipped verdict, a corrupted witness element or a non-forest feedback set.
"""

from __future__ import annotations

import math


def _legs(diagram: dict) -> list[dict]:
    """Per edge, endpoint vertex -> leg table."""
    legs = [{} for _ in diagram["shape"]["edges"]]
    for leg in diagram["legs"]:
        legs[leg["edge"]][leg["endpoint"]] = leg["map"]
    return legs


def cset_slice(obj: dict, c: int) -> dict:
    """The plain diagram a C-set diagram takes at C-object c."""
    return {
        "shape": obj["shape"],
        "vertex_sets": [x["objects"][c] for x in obj["vertex_csets"]],
        "edge_sets": [x["objects"][c] for x in obj["edge_csets"]],
        "legs": [{"edge": leg["edge"], "endpoint": leg["endpoint"],
                  "map": leg["maps"][c]["map"]} for leg in obj["legs"]],
    }


def check_family(diagram: dict, family, edge_elements=None) -> list[str]:
    """A matching family: one element per vertex, in range, whose two leg
    values agree on every edge (and equal the given edge elements)."""
    n = diagram["shape"]["n"]
    if len(family) != n:
        return [f"family has {len(family)} entries for {n} vertices"]
    sizes = [s["size"] for s in diagram["vertex_sets"]]
    for x, a in enumerate(family):
        if not isinstance(a, int) or not 0 <= a < sizes[x]:
            return [f"vertex {x}: element {a!r} out of range"]
    edges = diagram["shape"]["edges"]
    if edge_elements is not None and len(edge_elements) != len(edges):
        return ["edge element count differs from edge count"]
    problems = []
    for e, ((u, v), leg) in enumerate(zip(edges, _legs(diagram))):
        tu = leg[u][family[u]]
        tv = leg[v][family[v]]
        if tu != tv:
            problems.append(f"edge {e}: endpoints map to {tu} and {tv}")
        elif edge_elements is not None and edge_elements[e] != tu:
            problems.append(f"edge {e}: edge element {edge_elements[e]} != {tu}")
        if len(problems) > 3:
            break
    return problems


def check_empty_bijective(diagram: dict) -> list[str]:
    """Confirm EMPTY by spanning-tree propagation.

    With every leg a bijection, a matching family of a connected shape is
    forced by its element at one root: propagate that element along a BFS
    spanning tree and test the remaining edges.  The limit is empty iff in
    some component every root element breaks a non-tree edge.
    """
    n = diagram["shape"]["n"]
    edges = diagram["shape"]["edges"]
    vsize = [s["size"] for s in diagram["vertex_sets"]]
    esize = [s["size"] for s in diagram["edge_sets"]]
    legs = _legs(diagram)
    inv = []
    for e, (u, v) in enumerate(edges):
        pair = {}
        for x in (u, v):
            table = legs[e][x]
            if vsize[x] != esize[e] or sorted(table) != list(range(esize[e])):
                return [f"edge {e}: leg at vertex {x} is not a bijection"]
            inverse = [0] * esize[e]
            for a, t in enumerate(table):
                inverse[t] = a
            pair[x] = inverse
        inv.append(pair)
    inc = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        inc[u].append((e, v))
        inc[v].append((e, u))
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        tree = set()
        head = 0
        while head < len(order):
            x = order[head]
            head += 1
            for e, y in inc[x]:
                if not seen[y]:
                    seen[y] = True
                    tree.add(e)
                    order.append(y)
        off_tree = {e for x in order for e, _ in inc[x] if e not in tree}

        def extends(a: int) -> bool:
            # propagate root element a down the BFS tree, then test the rest
            val = {root: a}
            for x in order:
                for e, y in inc[x]:
                    if e in tree and y not in val:
                        val[y] = inv[e][y][legs[e][x][val[x]]]
            return all(legs[e][u][val[u]] == legs[e][v][val[v]]
                       for e in off_tree for u, v in [edges[e]])

        if not any(extends(a) for a in range(vsize[root])):
            return []
    return ["every component has a matching family: the limit is not empty"]


def check_fvs(shape: dict, fvs, k: int) -> list[str]:
    """S has exactly k distinct vertices and G - S is acyclic."""
    n = shape["n"]
    s = set(fvs)
    if len(s) != len(fvs) or len(s) != k:
        return [f"feedback set {sorted(fvs)} does not have {k} distinct vertices"]
    if any(not 0 <= x < n for x in s):
        return ["feedback set vertex out of range"]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in shape["edges"]:
        if u in s or v in s:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return [f"G - S has a cycle through edge ({u},{v})"]
        parent[ru] = rv
    return []


def check_coloring(x: dict, coloring, colors: int = 3) -> list[str]:
    """A proper colouring of X with the given number of colours."""
    if coloring is None or len(coloring) != x["n"]:
        return ["colouring arity differs from X"]
    if any(not isinstance(c, int) or not 0 <= c < colors for c in coloring):
        return ["colour out of range"]
    bad = [(u, v) for u, v in x["edges"] if coloring[u] == coloring[v]]
    return [f"edge {bad[0]} joins equal colours"] if bad else []


def check_k4(x: dict, vertices) -> list[str]:
    """Four distinct vertices of X, pairwise adjacent: X has no 3-colouring."""
    if vertices is None or len(set(vertices)) != 4:
        return ["K4 needs four distinct vertices"]
    present = {(min(u, v), max(u, v)) for u, v in x["edges"]}
    missing = [(a, b) for a in vertices for b in vertices
               if a < b and (a, b) not in present]
    return [f"K4 edge {missing[0]} is absent from X"] if missing else []


def check_verdict(expected: bool, got: bool, what: str = "NONEMPTY") -> list[str]:
    if expected == got:
        return []
    return [f"verdict {what if got else 'not ' + what}, known answer "
            f"{what if expected else 'not ' + what}"]


def check_image_contains(image_vertex_masks, family) -> list[str]:
    """Method property: the image subdiagram keeps the planted family."""
    for x, a in enumerate(family):
        if not image_vertex_masks[x] >> a & 1:
            return [f"image mask at vertex {x} lacks planted element {a}"]
    return []


def check_section_count(pinned_sizes, count: int) -> list[str]:
    """Method property on an EMPTY diagram with a given feedback set: every
    pinned combination is tested, so the count is the product of the pinned
    set sizes."""
    want = math.prod(pinned_sizes)
    if count != want:
        return [f"section_test_count {count} != product of pinned sizes {want}"]
    return []


def self_test() -> list[str]:
    """Run every checker on a true claim and on corrupted ones."""
    failures = []

    def expect(ok: bool, what: str):
        if not ok:
            failures.append(what)

    # a 4-cycle of bijective legs on 2 elements: identity transport on three
    # edges, a swap on the fourth closes it with a fixed-point-free holonomy
    ident, swap = [0, 1], [1, 0]
    cyc = {"shape": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
           "vertex_sets": [{"size": 2}] * 4, "edge_sets": [{"size": 2}] * 4,
           "legs": [{"edge": e, "endpoint": x, "map": ident}
                    for e, (u, v) in enumerate([(0, 1), (1, 2), (2, 3)])
                    for x in (u, v)]
           + [{"edge": 3, "endpoint": 3, "map": ident},
              {"edge": 3, "endpoint": 0, "map": swap}]}
    expect(check_empty_bijective(cyc) == [], "EMPTY cycle rejected")
    flipped = dict(cyc, legs=cyc["legs"][:-1]
                   + [{"edge": 3, "endpoint": 0, "map": ident}])
    expect(check_empty_bijective(flipped) != [],
           "EMPTY checker accepted a NONEMPTY cycle (flipped verdict)")
    expect(check_family(flipped, [1, 1, 1, 1], [1, 1, 1, 1]) == [],
           "true family rejected")
    expect(check_family(flipped, [1, 0, 1, 1]) != [],
           "corrupted witness element accepted")
    expect(check_family(flipped, [1, 1, 1, 1], [1, 1, 0, 1]) != [],
           "corrupted witness edge element accepted")
    expect(check_family(flipped, [1, 1, 1, 2]) != [],
           "out-of-range witness element accepted")
    expect(check_verdict(True, True) == [], "true verdict rejected")
    expect(check_verdict(True, False) != [], "flipped verdict accepted")
    expect(check_verdict(False, True) != [], "flipped verdict accepted")
    expect(check_fvs(cyc["shape"], [2], 1) == [], "true FVS rejected")
    expect(check_fvs(cyc["shape"], [], 0) != [], "non-forest FVS accepted")
    expect(check_fvs(cyc["shape"], [2, 2], 1) != [], "repeated FVS accepted")
    expect(check_fvs({"n": 5, "edges": [[0, 1], [1, 2], [2, 0], [2, 3],
                                        [3, 4], [4, 2]]}, [0], 1) != [],
           "non-forest FVS accepted")
    x = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 2], [1, 3], [0, 3]]}
    expect(check_k4(x, (0, 1, 2, 3)) == [], "true K4 rejected")
    expect(check_k4(dict(x, edges=x["edges"][:-1]), (0, 1, 2, 3)) != [],
           "K4 missing an edge accepted")
    path = {"n": 3, "edges": [[0, 1], [1, 2]]}
    expect(check_coloring(path, (0, 1, 0)) == [], "true colouring rejected")
    expect(check_coloring(path, (0, 0, 1)) != [], "corrupted colouring accepted")
    expect(check_coloring(path, (0, 1, 3)) != [], "colour 3 accepted")
    expect(check_image_contains([0b10, 0b11], [1, 0]) == [],
           "true image rejected")
    expect(check_image_contains([0b10, 0b10], [1, 0]) != [],
           "image without the planted element accepted")
    expect(check_section_count([2, 2], 4) == [], "true count rejected")
    expect(check_section_count([2, 2], 3) != [], "wrong count accepted")
    cs = {"shape": path, "vertex_csets": [{"objects": [{"size": 1},
                                                       {"size": 2}]}] * 3,
          "edge_csets": [{"objects": [{"size": 1}, {"size": 2}]}] * 2,
          "legs": [{"edge": e, "endpoint": x,
                    "maps": [{"map": [0]}, {"map": [1, 0] if x else [0, 1]}]}
                   for e, (u, v) in enumerate([(0, 1), (1, 2)])
                   for x in (u, v)]}
    sl = cset_slice(cs, 1)
    expect(check_family(sl, [0, 1, 1]) == [], "true slice family rejected")
    expect(check_family(sl, [0, 0, 1]) != [], "corrupted slice family accepted")
    return failures


if __name__ == "__main__":
    import sys

    problems = self_test()
    for p in problems:
        print("FAIL:", p)
    print("checkers self-test:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)
