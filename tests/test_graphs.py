import hashlib
import random
import tracemalloc
from itertools import combinations

import pytest
from conftest import best_of_interleaved

from limsolve import (
    SimpleGraph,
    VertexSet,
    components,
    fvs_exact,
    is_forest,
    remove_vertices,
)
from limsolve.generate import (complete_graph, cycle_graph, generate_instance,
                               path_graph, random_diagram, random_graph)
from limsolve.graphs import MAX_SET_SIZE, _core, _cycle, _fvs_search, _induced


def reachability(g):
    # Floyd-Warshall closure of the adjacency relation
    reach = [[i == j for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges:
        reach[u][v] = reach[v][u] = True
    for k in range(g.n):
        for i in range(g.n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(g.n):
                    if row_k[j]:
                        row_i[j] = True
    return reach


def test_simple_graph_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 5)])
    with pytest.raises(ValueError, match="vertex count -3"):
        SimpleGraph(-3, [])


def test_simple_graph_vertex_cap():
    # a hand-built graph is capped like a loaded one, before any edge (here
    # a loop) is read and before anything of size n is built
    tracemalloc.start()
    try:
        for edges in ((), [(0, 0)]):
            with pytest.raises(ValueError, match=(
                    "^vertex count 1048577 exceeds the limit of 1048576 "
                    "vertices$")):
                SimpleGraph(MAX_SET_SIZE + 1, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert SimpleGraph(MAX_SET_SIZE).n == MAX_SET_SIZE
    with pytest.raises(ValueError, match="is not an integer"):
        SimpleGraph(float(MAX_SET_SIZE + 1))


def test_components_disjoint_edges():
    g = SimpleGraph(4, [(0, 1), (2, 3)])
    assert components(g) == [[0, 1], [2, 3]]


def test_components_cycle():
    assert components(cycle_graph(4)) == [[0, 1, 2, 3]]


def test_components_match_reachability():
    for seed in range(30):
        rng = random.Random(seed)
        g = random_graph(rng, 8, 0.25)
        reach = reachability(g)
        block = {}
        for i, comp in enumerate(components(g)):
            for v in comp:
                block[v] = i
        for i in range(g.n):
            for j in range(g.n):
                assert (block[i] == block[j]) == reach[i][j]


def test_is_forest_examples():
    assert is_forest(path_graph(3))
    assert not is_forest(cycle_graph(4))
    assert is_forest(SimpleGraph(5, []))


def find_cycle(g):
    """The cycle FVS search branches on: the walk of _cycle over the 2-core
    of g, or None on a forest."""
    return _cycle(g, _core(g)[0])


def test_find_cycle_on_tree_is_none():
    assert find_cycle(path_graph(5)) is None
    assert find_cycle(SimpleGraph(3, [])) is None


def test_find_cycle_c4():
    cyc = find_cycle(cycle_graph(4))
    assert cyc is not None
    assert sorted(cyc) == [0, 1, 2, 3]


def _assert_valid_cycle(g, cyc):
    assert len(cyc) >= 3
    assert len(set(cyc)) == len(cyc)
    pairs = {frozenset(e) for e in g.edges}
    for a, b in zip(cyc, cyc[1:]):
        assert frozenset((a, b)) in pairs
    assert frozenset((cyc[0], cyc[-1])) in pairs


def test_find_cycle_k4_is_a_cycle():
    g = complete_graph(4)
    _assert_valid_cycle(g, find_cycle(g))


def test_find_cycle_none_iff_forest():
    for seed in range(60):
        g = random_graph(random.Random(seed), 7, 0.3)
        cyc = find_cycle(g)
        assert (cyc is None) == is_forest(g)
        if cyc is not None:
            _assert_valid_cycle(g, cyc)


def brute_fvs(g, k_max):
    for size in range(k_max + 1):
        for subset in combinations(range(g.n), size):
            s = VertexSet.of(g.n, subset)
            if is_forest(remove_vertices(g, s)[0]):
                return subset
    return None


def test_fvs_forest_needs_nothing():
    assert sorted(fvs_exact(path_graph(4), 0)) == []


def test_fvs_c4_single_vertex():
    s = fvs_exact(cycle_graph(4), 1)
    assert len(s) == 1
    assert is_forest(remove_vertices(cycle_graph(4), s)[0])


def test_fvs_k4():
    g = complete_graph(4)
    assert fvs_exact(g, 1) is None
    s = fvs_exact(g, 2)
    assert len(s) == 2
    assert is_forest(remove_vertices(g, s)[0])


def test_fvs_k_zero_only_for_forests():
    assert fvs_exact(cycle_graph(3), 0) is None
    assert len(fvs_exact(SimpleGraph(6, [(0, 3)]), 0)) == 0


def test_fvs_budget_must_be_an_int():
    # three disjoint 5-cycles need three vertices; a budget that is not an
    # int never equals the count of cycles taken, so 1.5 would admit all
    # three
    g = SimpleGraph(15, [(c + i, c + (i + 1) % 5)
                         for c in (0, 5, 10) for i in range(5)])
    assert list(fvs_exact(g, 3)) == [0, 5, 10]
    assert fvs_exact(g, 2) is None
    for k in (1.5, True, "2", None):
        with pytest.raises(ValueError) as err:
            fvs_exact(g, k)
        assert str(err.value) == f"k_max {k!r} is not an int"
    with pytest.raises(ValueError, match="^k_max must be >= 0$"):
        fvs_exact(g, -1)


def test_fvs_matches_exhaustive_search():
    for seed in range(40):
        g = random_graph(random.Random(seed), 8, 0.3)
        for k in range(4):
            got = fvs_exact(g, k)
            expected = brute_fvs(g, k)
            assert (got is None) == (expected is None)
            if got is not None:
                assert len(got) <= k
                assert is_forest(remove_vertices(g, got)[0])
                # minimal size matches the brute search
                assert len(got) == len(expected)


def test_fvs_deterministic():
    g = random_graph(random.Random(5), 9, 0.35)
    first = fvs_exact(g, 9)
    for _ in range(3):
        assert fvs_exact(g, 9).mask == first.mask


def test_fvs_golden_digest():
    # pins which minimum set is chosen, which witnesses depend on
    found = []
    for seed in range(200):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randint(1, 12), 0.35)
        found.append(tuple(fvs_exact(g, g.n)))
    digest = hashlib.sha256(repr(found).encode()).hexdigest()
    assert digest == "9e001281bb64a9b5d862d12072aaea0be652ccd2da2b0863b45c5914f3a68551"


def test_fvs_linear_on_long_cycle():
    def search(g):
        assert len(fvs_exact(g, 1)) == 1

    small, large = best_of_interleaved(search, cycle_graph(10_000),
                                       cycle_graph(100_000))
    # ten times the vertices: linear time gives about 10x, and 20 leaves
    # room for timing noise
    assert large / small <= 20


def disjoint_union(rng, parts):
    """The parts side by side, every vertex relabelled at random."""
    n = sum(p.n for p in parts)
    labels = list(range(n))
    rng.shuffle(labels)
    edges, off = [], 0
    for p in parts:
        edges += [(labels[off + u], labels[off + v]) for u, v in p.edges]
        off += p.n
    return SimpleGraph(n, edges)


def test_fvs_golden_digest_components():
    # the 2-core components are searched one by one; this pins that the
    # chosen set is still the one a search over the whole graph finds first
    found = []
    for seed in range(200):
        rng = random.Random(seed)
        g = disjoint_union(rng, [random_graph(rng, rng.randint(1, 8), 0.35)
                                 for _ in range(rng.randint(2, 4))])
        for b in (g.n, 3):
            s = fvs_exact(g, b)
            found.append(None if s is None else tuple(s))
    digest = hashlib.sha256(repr(found).encode()).hexdigest()
    assert digest == "7c3a06d945e63116bc53807319095fe83c38a8f0f5591fe54161079878277602"


def test_fvs_budget_shared_across_components():
    triangles = SimpleGraph(9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (6, 7), (7, 8), (6, 8)])
    assert fvs_exact(triangles, 2) is None
    assert sorted(fvs_exact(triangles, 3)) == [0, 3, 6]


def test_fvs_decides_forests_by_the_core(monkeypatch):
    # the 2-core alone says whether a graph is a forest: the sets found
    # stay the same when the union-find check refuses to run
    import limsolve.graphs

    graphs = [path_graph(6), SimpleGraph(5, [(0, 3), (1, 2)]), SimpleGraph(0),
              cycle_graph(5), complete_graph(4)]
    graphs += [random_graph(random.Random(seed), 9, 0.3) for seed in range(20)]
    expected = [fvs_exact(g, g.n) for g in graphs]
    assert any(s is not None and len(s) == 0 for s in expected)
    assert any(s is not None and len(s) > 0 for s in expected)

    def refuse(g):
        raise AssertionError("fvs_exact ran the union-find forest check")

    monkeypatch.setattr(limsolve.graphs, "is_forest", refuse)
    assert [fvs_exact(g, g.n) for g in graphs] == expected


def test_fvs_linear_in_disjoint_cycles():
    def two_cycles(length):
        c = cycle_graph(length).edges
        return SimpleGraph(2 * length, c + tuple((length + u, length + v) for u, v in c))

    def search(g):
        assert len(fvs_exact(g, 2)) == 2

    # at L = 100 a search takes under a millisecond, so one slowed run
    # would skew a median
    small, large = best_of_interleaved(search, two_cycles(100),
                                       two_cycles(1000))
    # ten times the length: one linear pass per cycle gives about 10x, where
    # branching over one cycle per vertex of the other gives about 100x
    assert large / small <= 20


def fvs_by_search(g, k_max):
    """Every component of g searched as the subgraph it induces, by
    iterative deepening from its 2-core, cycles too: the reference that
    fvs_exact's settling of cycle components must agree with."""
    comps = components(g)
    found = []
    for verts, h in zip(comps, _induced(g, comps)[0]):
        alive, deg = _core(h)
        for k in range(k_max - len(found) + 1):
            sub = _fvs_search(h, alive, deg, k)
            if sub is not None:
                found += [verts[v] for v in sub]
                break
        else:
            return None
    return VertexSet.of(g.n, found)


def test_fvs_cycle_components_match_the_search():
    seen = set()
    for seed in range(150):
        rng = random.Random(seed)
        parts = [cycle_graph(rng.randint(3, 9)) if rng.random() < 0.5
                 else random_graph(rng, rng.randint(1, 8), 0.35)
                 for _ in range(rng.randint(2, 5))]
        g = disjoint_union(rng, parts)
        expected = fvs_by_search(g, g.n)
        size = len(expected)
        for b in sorted({g.n, size, max(size - 1, 0), 2}):
            s = fvs_exact(g, b)
            assert s == (expected if b >= size else None), (seed, b)
        seen.add(size)
    assert len(seen) > 3


def test_fvs_settles_disjoint_cycles_without_a_search(monkeypatch):
    import limsolve.graphs

    rng = random.Random(7)
    g = disjoint_union(rng, [cycle_graph(rng.randint(3, 7))
                             for _ in range(1000)])
    lowest = sorted(c[0] for c in components(g))

    def refuse(g, parts):
        raise AssertionError("fvs_exact built a subgraph to search")

    monkeypatch.setattr(limsolve.graphs, "_induced", refuse)
    assert list(fvs_exact(g, 1000)) == lowest
    # one cycle over the budget
    assert fvs_exact(g, 999) is None


def test_remove_vertices_c4_minus_one():
    g, vmap = remove_vertices(cycle_graph(4), VertexSet.of(4, [0]))
    assert g.n == 3 and g.m == 2 and is_forest(g)
    assert vmap == [None, 0, 1, 2]


def test_remove_all_vertices():
    g, vmap = remove_vertices(cycle_graph(4), VertexSet.of(4, range(4)))
    assert g.n == 0 and g.m == 0
    assert vmap == [None] * 4


def test_remove_vertices_matches_refilter():
    for seed in range(25):
        rng = random.Random(seed)
        g = random_graph(rng, 8, 0.4)
        drop = [v for v in range(8) if rng.random() < 0.4]
        s = VertexSet.of(8, drop)
        h, vmap = remove_vertices(g, s)
        assert h.n == 8 - len(drop)
        expected = {
            frozenset((vmap[u], vmap[v]))
            for u, v in g.edges
            if u not in s and v not in s
        }
        assert {frozenset(e) for e in h.edges} == expected


def test_vertex_set_iteration_and_len():
    s = VertexSet.of(10, [9, 2, 5])
    assert list(s) == [2, 5, 9]
    assert len(s) == 3
    assert 5 in s and 3 not in s
    assert sorted(s.complement()) == [0, 1, 3, 4, 6, 7, 8]


def test_vertex_set_refuses_out_of_range():
    for mask in (-1, 8):
        with pytest.raises(ValueError) as err:
            VertexSet(3, mask)
        assert str(err.value) == "vertex mask out of range"
    with pytest.raises(ValueError) as err:
        VertexSet.of(3, [0, 3])
    assert str(err.value) == "vertex 3 out of range for n=3"
    # a negative count is named, not left to the shift it breaks
    for make in (lambda: VertexSet(-1), lambda: VertexSet(-1, 0),
                 lambda: VertexSet.of(-1, [])):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == "vertex count -1 is negative"


def test_vertex_set_refuses_ids_that_are_not_ints():
    # True was once read as vertex 1, and 1.0 escaped as a bare TypeError
    for ids, text in (([True], "vertex id True is not an integer"),
                      ([0, 1.0], "vertex id 1.0 is not an integer"),
                      (["2"], "vertex id '2' is not an integer")):
        with pytest.raises(ValueError) as err:
            VertexSet.of(5, ids)
        assert str(err.value) == text
    for mask in (True, 1.0, "1"):
        with pytest.raises(ValueError) as err:
            VertexSet(5, mask)
        assert str(err.value) == f"vertex mask {mask!r} is not an integer"
    for n in (True, 5.0):
        with pytest.raises(ValueError) as err:
            VertexSet(n, 1)
        assert str(err.value) == f"vertex count {n!r} is not an integer"
    assert VertexSet.of(5, [1]) == VertexSet(5, 2)


def test_generators_refuse_bad_parameters():
    with pytest.raises(ValueError) as err:
        cycle_graph(2)
    assert str(err.value) == "a cycle needs at least 3 vertices"
    with pytest.raises(ValueError) as err:
        random_diagram(random.Random(0), path_graph(3), 0)
    assert str(err.value) == "w must be >= 1"
    with pytest.raises(ValueError) as err:
        generate_instance("star", 5, 2, seed=0)
    assert str(err.value) == "unknown instance kind 'star'"
