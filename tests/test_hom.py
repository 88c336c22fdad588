import hashlib
import random

import pytest

from limsolve import (
    BagDecomposition,
    HomSet,
    SimpleGraph,
    build_hom_codecomp,
    find_homomorphism,
    hom_exists,
    hom_set,
    inlim,
    validate_decomposition,
)
from limsolve import hom
from limsolve.generate import (
    complete_graph,
    cycle_graph,
    elimination_decomposition,
    path_graph,
    petersen_graph,
    random_graph,
)

K3 = complete_graph(3)


def path4_decomposition():
    # 0-1-2-3 covered by bags {0,1}, {1,2}, {2,3} on a path shape
    return BagDecomposition(
        path_graph(4), path_graph(3), ((0, 1), (1, 2), (2, 3)))


def petersen_decomposition():
    # consecutive windows of six vertices: every edge has spread <= 5
    x = petersen_graph()
    bags = tuple(tuple(range(i, i + 6)) for i in range(5))
    return BagDecomposition(x, path_graph(5), bags)


def test_validate_path_decomposition_ok():
    assert validate_decomposition(path4_decomposition()) == []


def test_validate_catches_uncovered_edge():
    b = BagDecomposition(path_graph(4), path_graph(2), ((0, 1), (2, 3)))
    problems = validate_decomposition(b)
    assert any("fits in no bag" in p for p in problems)


def test_validate_catches_uncovered_vertex():
    b = BagDecomposition(SimpleGraph(3, []), SimpleGraph(1, []), ((0, 1),))
    assert any("in no bag" in p for p in validate_decomposition(b))


def test_validate_catches_disconnected_holders():
    # vertex 0 sits in two bags that do not touch in the shape
    b = BagDecomposition(
        SimpleGraph(2, [(0, 1)]),
        path_graph(3),
        ((0, 1), (1,), (0, 1)),
    )
    problems = validate_decomposition(b)
    assert any("connected" in p for p in problems)


def test_validate_catches_missing_adhesion():
    b = BagDecomposition(
        path_graph(3),
        path_graph(2),
        ((0, 1), (1, 2)),
        adhesions=((),),
    )
    problems = validate_decomposition(b)
    assert any("not in its adhesion" in p for p in problems)


def test_generated_decompositions_validate():
    for seed in range(40):
        rng = random.Random(seed)
        x = random_graph(rng, rng.randint(1, 10), 0.35)
        b = elimination_decomposition(rng, x)
        assert validate_decomposition(b) == []


def test_elimination_decomposition_golden_digest():
    # pins the bags and shape, which depend on the seeded min-degree ties
    found = []
    for seed in range(100):
        rng = random.Random(seed)
        x = random_graph(rng, rng.randint(1, 30), rng.choice((0.1, 0.2, 0.4)))
        b = elimination_decomposition(rng, x)
        found.append((b.bags, b.shape.edges))
    digest = hashlib.sha256(repr(found).encode()).hexdigest()
    assert digest == "9fde9e13a7235f08638e1b2f61d683cbd6e29e68bbb24ee6fd5a7a5721558d75"


def test_hom_set_counts():
    single = hom_set(SimpleGraph(1, []), [0], K3)
    assert len(single.maps) == 3
    edge = hom_set(SimpleGraph(2, [(0, 1)]), [0, 1], K3)
    assert len(edge.maps) == 6
    triangle = hom_set(complete_graph(3), [0, 1, 2], K3)
    assert len(triangle.maps) == 6
    # brute check over all 27 assignments
    count = 0
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if a != b and b != c and a != c:
                    count += 1
    assert count == len(triangle.maps)


def test_hom_set_lexicographic():
    hs = hom_set(SimpleGraph(2, [(0, 1)]), [0, 1], K3)
    assert hs.maps == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def test_hom_set_empty_vertices():
    hs = hom_set(path_graph(3), [], K3)
    assert hs.maps == ((),)


def test_build_single_bag_edge():
    x = SimpleGraph(2, [(0, 1)])
    b = BagDecomposition(x, SimpleGraph(1, []), ((0, 1),))
    inst = build_hom_codecomp(b, K3)
    assert inst.diagram.shape.m == 0
    assert inst.diagram.vertex_obj[0].size == 6


def test_build_triangle_two_bags():
    x = complete_graph(3)
    b = BagDecomposition(x, SimpleGraph(2, [(0, 1)]), ((0, 1, 2), (0, 1)))
    assert validate_decomposition(b) == []
    inst = build_hom_codecomp(b, K3)
    assert [o.size for o in inst.diagram.vertex_obj] == [6, 6]
    assert inst.diagram.edge_obj[0].size == 6
    # legs restrict bag homs to the shared edge's homs
    fn = inst.diagram.legs[0][0]
    for i, m in enumerate(inst.bag_homs[0].maps):
        assert inst.adhesion_homs[0].maps[fn(i)] == m[:2]


def test_k4_is_not_three_colorable():
    x = complete_graph(4)
    b = BagDecomposition(x, SimpleGraph(1, []), (tuple(range(4)),))
    inst = build_hom_codecomp(b, K3)
    assert inlim(inst.diagram).verdict.empty_limit
    exists, coloring = hom_exists(b, K3)
    assert not exists and coloring is None
    assert find_homomorphism(x, K3) is None


def test_c5_is_three_colorable():
    x = cycle_graph(5)
    rng = random.Random(1)
    b = elimination_decomposition(rng, x)
    exists, coloring = hom_exists(b, K3, want_coloring=True)
    assert exists
    for u, v in x.edges:
        assert coloring[u] != coloring[v]


def test_petersen_three_colorable_with_supplied_decomposition():
    b = petersen_decomposition()
    assert validate_decomposition(b) == []
    assert max(len(bag) for bag in b.bags) == 6
    exists, coloring = hom_exists(b, K3, want_coloring=True)
    assert exists
    x = petersen_graph()
    for u, v in x.edges:
        assert coloring[u] != coloring[v]


def test_hom_set_sizes_within_alpha_bound():
    b = petersen_decomposition()
    inst = build_hom_codecomp(b, K3)
    for bag, obj in zip(b.bags, inst.diagram.vertex_obj):
        assert obj.size <= 3 ** len(bag)


def test_hom_exists_matches_backtracking():
    for seed in range(60):
        rng = random.Random(seed)
        x = random_graph(rng, rng.randint(1, 9), 0.45)
        b = elimination_decomposition(rng, x)
        h = K3 if seed % 3 else complete_graph(2 + seed % 4)
        exists, coloring = hom_exists(b, h, want_coloring=True)
        assert exists == (find_homomorphism(x, h) is not None), seed
        if exists:
            hadj = {frozenset(e) for e in h.edges}
            for u, v in x.edges:
                assert frozenset((coloring[u], coloring[v])) in hadj


def test_hom_exists_rejects_invalid_decomposition():
    b = BagDecomposition(path_graph(4), path_graph(2), ((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        hom_exists(b, K3)


def _reference_hom_set(x, vertices, h):
    """Plain backtracking over the sorted vertex list, lexicographic."""
    verts = tuple(sorted(set(vertices)))
    pos = {v: i for i, v in enumerate(verts)}
    adj = [[False] * h.n for _ in range(h.n)]
    for u, v in h.edges:
        adj[u][v] = adj[v][u] = True
    constraints = [[pos[w] for _, w in x.incidence[v] if w in pos and pos[w] < j]
                   for j, v in enumerate(verts)]
    if not verts:
        return HomSet((), ((),))
    maps = []
    assign = [-1] * len(verts)
    level = 0
    while level >= 0:
        assign[level] += 1
        if assign[level] >= h.n:
            assign[level] = -1
            level -= 1
            continue
        c = assign[level]
        if any(not adj[c][assign[j]] for j in constraints[level]):
            continue
        if level == len(verts) - 1:
            maps.append(tuple(assign))
        else:
            level += 1
    return HomSet(verts, tuple(maps))


def _reference_instance(b, h):
    """Bag and adhesion hom-sets, sizes and leg tables by per-map tuple
    lookup of each restriction."""
    bag_homs = tuple(_reference_hom_set(b.x, bag, h) for bag in b.bags)
    adhesion_homs = tuple(_reference_hom_set(b.x, a, h) for a in b.adhesions)
    tables = []
    for e, (p, q) in enumerate(b.shape.edges):
        target = adhesion_homs[e]
        lookup = target.index()
        pair = []
        for end in (p, q):
            source = bag_homs[end]
            sel = [source.vertices.index(v) for v in target.vertices]
            pair.append(tuple(
                lookup[tuple(m[i] for i in sel)] for m in source.maps))
        tables.append(tuple(pair))
    return bag_homs, adhesion_homs, tables


def _window_decomposition(rng, n_bags, band=3, p=0.5):
    """A random graph of bandwidth band with its path of windows: bag i
    holds vertices i..i+band."""
    size = n_bags + band
    edges = [(u, v) for u in range(size)
             for v in range(u + 1, min(u + band + 1, size))
             if rng.random() < p]
    return BagDecomposition(
        SimpleGraph(size, edges), path_graph(n_bags),
        tuple(tuple(range(i, i + band + 1)) for i in range(n_bags)))


def _assert_matches_reference(b, h):
    inst = build_hom_codecomp(b, h)
    bag_homs, adhesion_homs, tables = _reference_instance(b, h)
    assert inst.bag_homs == bag_homs
    assert inst.adhesion_homs == adhesion_homs
    assert inst.diagram.vertex_size == [len(hs.maps) for hs in bag_homs]
    assert inst.diagram.edge_size == [len(hs.maps) for hs in adhesion_homs]
    assert list(inst.diagram.tables) == tables


def test_build_matches_reference_on_elimination_decompositions():
    for seed in range(40):
        rng = random.Random(seed)
        x = random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.45)))
        b = elimination_decomposition(rng, x)
        _assert_matches_reference(b, complete_graph(2 + seed % 4))


def test_build_matches_reference_on_window_decompositions():
    for seed in range(12):
        rng = random.Random(seed)
        b = _window_decomposition(rng, rng.randint(1, 40))
        _assert_matches_reference(b, complete_graph(2 + seed % 4))


def test_hom_set_matches_reference():
    rng = random.Random(4)
    for _ in range(30):
        x = random_graph(rng, 8, 0.4)
        verts = rng.sample(range(8), rng.randint(0, 8))
        h = complete_graph(rng.randint(1, 4))
        assert hom_set(x, verts, h) == _reference_hom_set(x, verts, h)


def test_build_extends_each_prefix_pattern_once(monkeypatch):
    # bandwidth-3 windows have at most 1 + 1 + 2 + 8 + 64 prefix patterns
    # (per position, any subset of the earlier positions), whatever the
    # number of bags
    b = _window_decomposition(random.Random(7), 400)
    patterns = set()
    for verts in b.bags + b.adhesions:
        pos = {v: i for i, v in enumerate(verts)}
        pattern = tuple(tuple(sorted(pos[w] for w in b.x.neighbors(v)
                                     if w in pos and w < v))
                        for v in verts)
        patterns.update(pattern[:j] for j in range(len(pattern) + 1))
    assert len(patterns) <= 1 + 1 + 2 + 8 + 64
    calls = []
    extend = hom._HomSets._extend

    def counted(self, maps, earlier, where):
        calls.append(earlier)
        return extend(self, maps, earlier, where)

    monkeypatch.setattr(hom._HomSets, "_extend", counted)
    inst = build_hom_codecomp(b, K3)
    # the empty prefix needs no extension
    assert 0 < len(calls) <= len(patterns) - 1
    # bags of one pattern share one maps tuple
    assert len({id(hs.maps) for hs in inst.bag_homs}) <= 64


def test_hom_set_over_cap_is_refused():
    # 1025 maps of the first vertex times 1025 colours exceed 2**20, so the
    # second level is refused before it is built
    edgeless = SimpleGraph(1025, [])
    b = BagDecomposition(SimpleGraph(2, []), SimpleGraph(1, []), ((0, 1),))
    with pytest.raises(ValueError, match="^bag 0: hom-set may exceed"):
        hom_exists(b, edgeless)
    with pytest.raises(ValueError, match="limit of 1048576 maps"):
        hom_set(SimpleGraph(2, []), [0, 1], edgeless)
    assert len(hom_set(SimpleGraph(1, []), [0], edgeless).maps) == 1025


def test_adhesion_over_cap_names_the_adhesion(monkeypatch):
    # each bag has 2 maps into K2 (its hub, listed first, fixes the
    # leaves), but the four leaves of the adhesion alone have 16
    monkeypatch.setattr(hom, "MAX_SET_SIZE", 8)
    stars = SimpleGraph(6, [(hub, v) for hub in (0, 1) for v in range(2, 6)])
    b = BagDecomposition(stars, path_graph(2),
                         ((0, 2, 3, 4, 5), (1, 2, 3, 4, 5)))
    assert validate_decomposition(b) == []
    with pytest.raises(ValueError, match="^adhesion of shape edge 0: "):
        build_hom_codecomp(b, complete_graph(2))


def test_explicit_empty_adhesions_are_kept():
    # adhesions=() on a shape with an edge is a wrong count, not "omitted"
    b = BagDecomposition(path_graph(3), path_graph(2), ((0, 1), (1, 2)),
                         adhesions=())
    assert b.adhesions == ()
    assert validate_decomposition(b) == ["one adhesion per shape edge required"]
    defaulted = BagDecomposition(path_graph(3), path_graph(2), ((0, 1), (1, 2)))
    assert defaulted.adhesions == ((1,),)
    edgeless = BagDecomposition(SimpleGraph(2, []), SimpleGraph(2, []),
                                ((0,), (1,)), adhesions=())
    assert validate_decomposition(edgeless) == []
