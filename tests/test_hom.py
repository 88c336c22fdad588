import hashlib
import random
import tracemalloc

import pytest

from conftest import best_of_interleaved
from limsolve import (
    BagDecomposition,
    CoDecomposition,
    HomSet,
    SimpleGraph,
    build_hom_codecomp,
    find_homomorphism,
    hom_exists,
    hom_set,
    inlim,
    validate,
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
    random_tree,
)
from limsolve.graphs import is_forest

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
    # vertex 2 of edge {1,2} has fewer bags than vertex 1, so its bags are
    # the ones scanned
    b = BagDecomposition(path_graph(4), path_graph(3), ((0, 1), (1,), (2, 3)))
    assert "1 edge of the target graph fits in no bag: {1,2}" in \
        validate_decomposition(b)


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


def test_unsortable_ids_are_refused_by_name():
    # sorted() raised a bare TypeError naming neither the bag nor the ids
    x, shape = path_graph(3), path_graph(2)
    for bags, adhesions, name in ((((0, "a"), (1, 2)), None, "bag 0"),
                                  (((0, 1), (1, None)), None, "bag 1"),
                                  (((0, 1), (1, 2)), (([1],),), "adhesion 0")):
        with pytest.raises(ValueError, match=f"^{name}: ids cannot be "
                                             f"sorted"):
            BagDecomposition(x, shape, bags, adhesions)
    # ids that sort reach validate_decomposition unchanged
    b = BagDecomposition(x, shape, ((True, 0, 1.0), (1, 2, 7)))
    assert b.bags == ((0, True), (1, 2, 7))
    assert validate_decomposition(b) == [
        "bag vertex True outside the target graph"]


def _star_decomposition(n):
    """A star X with centre 0 and leaves 1..n, one bag (0, v) per leaf on a
    star shape: the centre sits in all n bags."""
    x = SimpleGraph(n + 1, [(0, v) for v in range(1, n + 1)])
    shape = SimpleGraph(n, [(0, i) for i in range(1, n)])
    return BagDecomposition(x, shape, tuple((0, v) for v in range(1, n + 1)))


def test_validate_is_linear_when_one_vertex_sits_in_many_bags():
    # each edge is looked up in the bags of its end with fewer holders;
    # scanning the centre's n bags per edge made eight times the leaves
    # cost about 64 times
    bags = {n: _star_decomposition(n) for n in (2000, 16_000)}

    def check(n):
        assert validate_decomposition(bags[n]) == []

    small, large = best_of_interleaved(check, 2000, 16_000, repeats=3)
    # eight times the bags: linear time gives about 8x, and 20 leaves room
    # for timing noise
    assert large / small <= 20, (small, large)


def test_generated_decompositions_validate():
    for seed in range(40):
        rng = random.Random(seed)
        x = random_graph(rng, rng.randint(1, 10), 0.35)
        b = elimination_decomposition(rng, x)
        assert validate_decomposition(b) == []


def _random_decomposition(rng):
    """A valid decomposition over a random tree, or a tree with one to
    three extra edges: each X-vertex held by a connected set of bags grown
    from one, X-edges drawn between vertices that share a bag and written
    either way round, adhesions given or derived.  Returns the X-vertex
    count, the shape and the bags as lists."""
    size = rng.randint(1, 7)
    tree = random_tree(rng, size)
    extra = [] if rng.random() < 0.5 else [
        (u, v) for u in range(size) for v in range(u + 1, size)
        if (u, v) not in tree.edges and (v, u) not in tree.edges]
    shape = SimpleGraph(size, list(tree.edges)
                        + rng.sample(extra, min(len(extra), rng.randint(1, 3))))
    n = rng.randint(1, 8)
    bags = [[] for _ in range(size)]
    for v in range(n):
        held = {rng.randrange(size)}
        for _ in range(rng.randint(0, size)):
            near = [y for x in held for _, y in shape.incidence[x]
                    if y not in held]
            if near:
                held.add(rng.choice(near))
        for x in held:
            bags[x].append(v)
    pairs = {(u, v) for bag in bags for u in bag for v in bag if u < v}
    edges = [(u, v) if rng.random() < 0.5 else (v, u)
             for u, v in sorted(pairs) if rng.random() < 0.6]
    return n, shape, bags, edges


def _mutated_decomposition(seed):
    """One decomposition from _random_decomposition, valid or with one
    mutation: a vertex dropped from a bag or from a given adhesion, or a
    stray id (out of range, a bool, or a vertex of X) added to a bag."""
    rng = random.Random(seed)
    n, shape, bags, edges = _random_decomposition(rng)
    given = rng.random() < 0.5
    adhesions = [sorted(set(bags[p]) & set(bags[q])) for p, q in shape.edges]
    kind = rng.choice(("valid", "bag", "adhesion", "stray"))
    full = [x for x, bag in enumerate(bags) if bag]
    if kind == "bag" and full:
        bag = bags[rng.choice(full)]
        bag.remove(rng.choice(bag))
    elif kind == "adhesion" and any(adhesions):
        given = True
        adh = rng.choice([a for a in adhesions if a])
        adh.remove(rng.choice(adh))
    elif kind == "stray":
        bags[rng.randrange(shape.n)].append(
            rng.choice((-1, n, n + 3, True, rng.randrange(n))))
    return BagDecomposition(SimpleGraph(n, edges), shape, bags,
                            adhesions if given else None)


def test_whole_list_check_agrees_with_the_walk():
    # on a forest shape the check accepts exactly what the walk finds no
    # problem in; on a cyclic shape it accepts nothing and the walk decides
    forest_valid = 0
    for seed in range(3000):
        b = _mutated_decomposition(seed)
        walked = hom._walk(b)
        assert validate_decomposition(b) == walked, seed
        accept = is_forest(b.shape) and walked == []
        assert hom._holds(b) == accept, seed
        forest_valid += accept
    # both verdicts are met often on both kinds of shape
    assert 300 < forest_valid < 2700
    # two problems the entry count alone misses together: vertex 0 in two
    # bags apart, vertex 2 in none
    b = BagDecomposition(SimpleGraph(3), path_graph(3), ((0,), (1,), (0,)))
    assert hom._holds(b) is False
    assert validate_decomposition(b) == hom._walk(b) == [
        "1 vertex of the target graph is in no bag: 2",
        "1 vertex of the target graph has bags that do not induce a "
        "connected shape subgraph: 0"]


def test_valid_forest_decompositions_skip_the_walk(monkeypatch):
    walks = []
    walk = hom._walk
    monkeypatch.setattr(hom, "_walk", lambda b: walks.append(b) or walk(b))
    for seed in range(40):
        rng = random.Random(seed)
        x = random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.45)))
        assert validate_decomposition(elimination_decomposition(rng, x)) == []
        b = _window_decomposition(rng, rng.randint(1, 40))
        assert validate_decomposition(b) == []
    assert walks == []
    # a problem, or a cycle in the shape, still takes the walk
    assert validate_decomposition(BagDecomposition(
        path_graph(4), path_graph(2), ((0, 1), (2, 3)))) != []
    assert validate_decomposition(_ring_decomposition(5)) == []
    assert len(walks) == 2


def test_whole_list_check_is_linear_in_memory_on_one_bag():
    # the bag's position pairs stream through the edge set's intersection;
    # a set of all of them would grow 16 times from 250 to 1000 positions
    peaks = {}
    for n in (250, 1000):
        b = _one_bag(n)
        tracemalloc.start()
        try:
            assert validate_decomposition(b) == []
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1000] <= 8 * peaks[250], peaks


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
    assert inst.diagram.vertex_size == [6]


def test_build_triangle_two_bags():
    x = complete_graph(3)
    b = BagDecomposition(x, SimpleGraph(2, [(0, 1)]), ((0, 1, 2), (0, 1)))
    assert validate_decomposition(b) == []
    inst = build_hom_codecomp(b, K3)
    assert inst.diagram.vertex_size == [6, 6]
    assert inst.diagram.edge_size == [6]
    # legs restrict bag homs to the shared edge's homs
    bag_homs, adhesion_homs, tables = _reference_instance(b, K3)
    assert inst.bag_maps == tuple(hs.maps for hs in bag_homs)
    assert list(inst.diagram.tables) == tables
    table = inst.diagram.tables[0][0]
    for i, m in enumerate(inst.bag_maps[0]):
        assert adhesion_homs[0].maps[table[i]] == m[:2]


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
    for bag, size in zip(b.bags, inst.diagram.vertex_size):
        assert size <= 3 ** len(bag)


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


def test_template_adjacency_is_linear_in_the_template():
    # per template vertex a neighbour set, not a |V(H)|-bit mask, and
    # ordered pairs in find_homomorphism, not a |V(H)|^2 matrix: on a
    # 2^16-vertex path template the masks alone took about 280 MB
    h = path_graph(2 ** 16)
    one = SimpleGraph(1)
    tracemalloc.start()
    try:
        assert hom_exists(BagDecomposition(one, one, [(0,)]), h) == (True,
                                                                     None)
        # 2^16 maps of one vertex, times 2^16 colours for the second
        with pytest.raises(ValueError, match="hom-set may exceed"):
            hom_exists(BagDecomposition(path_graph(2), one, [(0, 1)]), h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20, peak
    tracemalloc.start()
    try:
        assert find_homomorphism(path_graph(3), h) == (0, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20, peak


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
        lookup = {m: i for i, m in enumerate(target.maps)}
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
    assert inst.bag_maps == tuple(hs.maps for hs in bag_homs)
    assert inst.diagram.vertex_size == [len(hs.maps) for hs in bag_homs]
    assert inst.diagram.edge_size == [len(hs.maps) for hs in adhesion_homs]
    assert list(inst.diagram.tables) == tables
    # the diagram is recorded valid as built; a fresh copy bears that out
    d = inst.diagram
    assert validate(CoDecomposition(d.shape, d.vertex_size, d.edge_size,
                                    d.tables)) == []


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


def test_hom_exists_plans_once_and_checks_no_size(monkeypatch):
    # hom_exists is validate_decomposition, build_hom_codecomp and inlim,
    # called once each by their public names: the check of a forest-shaped
    # decomposition plans nothing, and inlim plans the shape once per shape
    # object: a repeat on the same decomposition, or inlim on a diagram
    # built over its shape, plans nothing.  build_hom_codecomp records its
    # diagram as valid, so inlim does not check it.  hom_exists's verdicts
    # and colourings are those that inlim reads off the same diagram
    import limsolve.diagram
    import limsolve.solver

    cases = []
    for seed in range(20):
        rng = random.Random(seed)
        x = random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.45)))
        cases.append((elimination_decomposition(rng, x),
                       complete_graph(2 + seed % 3)))
    for seed in range(8):
        rng = random.Random(seed)
        cases.append((_window_decomposition(rng, rng.randint(1, 40)), K3))
    want = []
    for b, h in cases:
        # over a copy of the shape, so that hom_exists below plans first
        inst = build_hom_codecomp(BagDecomposition(
            b.x, SimpleGraph(b.shape.n, b.shape.edges), b.bags,
            b.adhesions), h)
        result = inlim(inst.diagram, want_witness=True)
        if result.verdict.empty_limit:
            want.append((False, None))
            continue
        coloring = [None] * b.x.n
        for bag, maps, i in zip(b.bags, inst.bag_maps,
                                result.witness.vertex_elements):
            for v, c in zip(bag, maps[i]):
                coloring[v] = c
        want.append((True, tuple(coloring)))
    assert {exists for exists, _ in want} == {False, True}

    calls = {"_resolve_plan": 0, "_forest_plan": 0, "size_problems": 0,
             "validate_decomposition": 0, "inlim": 0}

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return run

    # validate_decomposition and inlim are counted as hom looks them up
    for module, names in ((hom, ("validate_decomposition", "inlim")),
                          (limsolve.solver, ("_resolve_plan", "_forest_plan")),
                          (limsolve.diagram, ("size_problems",))):
        for name in names:
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
    once = {"_resolve_plan": 1, "_forest_plan": 1, "size_problems": 0,
            "validate_decomposition": 1, "inlim": 1}
    repeat = dict(once, _forest_plan=0)
    direct = dict(repeat, validate_decomposition=0, inlim=0)
    for (b, h), expected in zip(cases, want):
        assert is_forest(b.shape)
        for plans in (once, repeat):
            for name in calls:
                calls[name] = 0
            assert hom_exists(b, h, want_coloring=True) == expected
            assert calls == plans
        d = build_hom_codecomp(b, h).diagram
        for name in calls:
            calls[name] = 0
        assert inlim(d).verdict.empty_limit == (not expected[0])
        assert calls == direct


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
        pattern = tuple(tuple(sorted(pos[w] for _, w in b.x.incidence[v]
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
    assert len(set(map(id, inst.bag_maps))) <= 64


def _pattern(x, verts):
    """Per position of a sorted vertex list, its earlier neighbours."""
    pos = {v: i for i, v in enumerate(verts)}
    return tuple(tuple(sorted(pos[w] for _, w in x.incidence[v]
                              if w in pos and w < v))
                 for v in verts)


def _positions_decomposition(x):
    """A star of bags around the centre bag 0..4, whose adhesions sit at
    every kind of position: each leaf is (adhesion, leaf bag).  Shape edges
    alternate their orientation, so both leg orders are built."""
    centre = (0, 1, 2, 3, 4)
    leaves = [
        ((0, 1, 2, 3), (0, 1, 2, 3, 5)),    # centre prefix, leaf prefix
        ((1, 2, 3, 4), (1, 2, 3, 4, 6)),    # centre suffix, leaf prefix
        ((2, 3, 4), (2, 3, 4)),             # centre suffix, whole leaf
        ((1, 2, 3), (1, 2, 3, 7)),          # centre middle
        ((0, 2, 4), (0, 2, 4, 5)),          # gaps in the centre
        ((3, 4), (3, 4, 5, 6)),             # leaf prefix two short
        ((4,), (0, 4)),                     # one-vertex suffixes
        (centre, centre + (7,)),            # whole centre, leaf prefix
        ((), (5, 6, 7)),                    # empty
        ((), (6,)),                         # empty: a one-vertex prefix
        ((), ()),                           # empty bag
        ((2,), (2,)),                       # whole one-vertex bag
    ]
    edges = [(0, i) if i % 2 else (i, 0) for i in range(1, len(leaves) + 1)]
    return BagDecomposition(
        x, SimpleGraph(len(leaves) + 1, edges),
        (centre,) + tuple(bag for _, bag in leaves),
        adhesions=tuple(adh for adh, _ in leaves))


def test_build_matches_reference_at_every_adhesion_position():
    # prefix adhesions take their table from the extension's parent
    # indices, the others through one lookup per adhesion pattern; both
    # must equal the reference's per-map tuple lookup
    for seed in range(6):
        rng = random.Random(seed)
        x = random_graph(rng, 8, (0.3, 0.5, 0.7)[seed % 3])
        b = _positions_decomposition(x)
        for colours in range(2, 6):
            _assert_matches_reference(b, complete_graph(colours))


@pytest.mark.parametrize("n_bags", [400, 2000])
def test_build_makes_each_table_once(monkeypatch, n_bags):
    # bandwidth-3 windows have at most 64 bag patterns and two adhesion
    # positions per bag (its prefix and its suffix), whatever the number
    # of bags, and each pair's table is built once per call
    b = _window_decomposition(random.Random(7), n_bags)
    legs = [(_pattern(b.x, b.bags[end]),
             tuple(b.bags[end].index(v) for v in adh))
            for (p, q), adh in zip(b.shape.edges, b.adhesions)
            for end in (p, q)]
    assert len(set(legs)) <= 2 * 64
    memos = []
    table = hom._HomSets.table

    def counted(self, *args):
        memos.append(self)
        return table(self, *args)

    monkeypatch.setattr(hom._HomSets, "table", counted)
    inst = build_hom_codecomp(b, K3)
    # every leg asks, and the call's one memo holds a table per pair
    assert len(memos) == len(legs)
    homs, = set(memos)
    assert 0 < len(homs.tables) <= len(set(legs))
    # equal (bag pattern, adhesion positions) share one table object
    ids = {}
    for leg, t in zip(legs, (t for pair in inst.diagram.tables for t in pair)):
        ids.setdefault(leg, set()).add(id(t))
    assert all(len(found) == 1 for found in ids.values())


def test_hom_set_refuses_bad_vertex_ids():
    x = SimpleGraph(3, [(1, 2)])
    k2 = complete_graph(2)
    # the edge {1, 2} leaves 2 of the 4 maps
    assert len(hom_set(x, [2, 1], k2).maps) == 2
    # -1 was read as vertex 2, [5] raised IndexError, True was read as 1
    for bad, named in (([-1, 1], "-1"), ([5], "5"), ([True, 2], "True"),
                       ([1.0], "1.0"), (["1"], "'1'")):
        with pytest.raises(ValueError) as err:
            hom_set(x, bad, k2)
        assert str(err.value) == (f"vertex {named} is not a vertex of the "
                                  f"graph (an int in [0, 3))")


def _one_bag(n):
    """X on n vertices in a single bag: a K4 on 0..3, then a path."""
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(v, v + 1) for v in range(3, n - 1)]
    return BagDecomposition(SimpleGraph(n, edges), SimpleGraph(1),
                            (tuple(range(n)),))


def test_one_large_bag_costs_one_step_per_pair():
    # the hom-set into K3 is empty from the fourth position on, and each
    # position adds one small int to the pattern, so four times the bag
    # costs about 16 times (one set lookup per pair of positions); one int
    # key for the whole bag, shifted a bit at a time, cost about 256 times
    bags = {n: _one_bag(n) for n in (250, 1000)}

    def decide(n):
        assert hom_exists(bags[n], K3) == (False, None)

    small, large = best_of_interleaved(decide, 250, 1000, repeats=3)
    assert large / small <= 40, (small, large)
    # a path keeps two maps into K2 at every position
    assert hom_set(path_graph(1000), range(1000), complete_graph(2)).maps \
        == ((0, 1) * 500, (1, 0) * 500)


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


def test_build_hom_codecomp_refuses_an_adhesion_outside_its_bag():
    # validate_decomposition refuses this first; build_hom_codecomp must
    # still name it when called on its own
    b = BagDecomposition(path_graph(3), path_graph(2), [[0, 1], [1, 2]],
                         [[0, 1]])
    with pytest.raises(ValueError) as err:
        build_hom_codecomp(b, K3)
    assert str(err.value) == \
        "adhesion of shape edge 0 is not contained in bag 1"


def test_hom_exists_with_an_empty_adhesion():
    # a triangle and a disjoint edge in two bags that share nothing: the
    # adhesion's hom-set holds one empty map, so every restriction table
    # is all zeros and the bags are solved independently
    x = SimpleGraph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    b = BagDecomposition(x, path_graph(2), [[0, 1, 2], [3, 4]], [[]])
    assert validate_decomposition(b) == []
    inst = build_hom_codecomp(b, K3)
    assert inst.diagram.edge_size == [1]
    assert all(set(t) == {0} for t in inst.diagram.tables[0])
    for h in (complete_graph(2), K3, complete_graph(4)):
        want = find_homomorphism(x, h) is not None
        assert hom_exists(b, h) == (want, None)
        found, coloring = hom_exists(b, h, want_coloring=True)
        assert found == want
        if want:
            hedges = set(h.edges) | {(v, u) for u, v in h.edges}
            assert all((coloring[u], coloring[v]) in hedges
                       for u, v in x.edges)
        else:
            assert coloring is None


def _ring_decomposition(n):
    """C_n in a ring of bags {i, i+1 mod n} over a cycle shape: shape edge
    i joins bags i and i+1, which share X-vertex i+1."""
    return BagDecomposition(cycle_graph(n), cycle_graph(n),
                            tuple((i, (i + 1) % n) for i in range(n)))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_hom_exists_on_a_ring_of_bags(n):
    # a cyclic shape: the walk validates, and the solve pins a feedback
    # vertex set of the ring
    b = _ring_decomposition(n)
    for h in (complete_graph(2), K3):
        found, coloring = hom_exists(b, h, want_coloring=True)
        assert found == (find_homomorphism(b.x, h) is not None)
        assert found == (h.n == 3 or n % 2 == 0)
        if found:
            assert all(coloring[u] != coloring[v] for u, v in b.x.edges)
            assert set(coloring) <= set(range(h.n))
        else:
            assert coloring is None
        assert hom_exists(b, h) == (found, None)
