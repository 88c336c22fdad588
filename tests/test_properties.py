"""Generated-input batches for the solver's structural invariants."""

import random

from conftest import random_closed_mask, random_graph_diagram, random_tree_diagram
from limsolve import (
    FinCat,
    check_leg_closure,
    filter_edge,
    image_tree,
    inlim,
    section_tests,
    validate_fincat,
    witness_violations,
)


def filter_monotone_idempotent_batch(count: int) -> int:
    ran = 0
    seed = 0
    while ran < count:
        seed += 1
        rng = random.Random(seed)
        d = random_tree_diagram(seed) if seed % 2 else random_graph_diagram(seed)
        if d.shape.m == 0:
            continue
        ran += 1
        m = random_closed_mask(rng, d)
        e = rng.randrange(d.shape.m)
        before = m.copy()
        once = filter_edge(d, m.copy(), e)
        assert all(once.vertex[x] & ~before.vertex[x] == 0
                   for x in range(d.shape.n))
        assert all(once.edge[i] & ~before.edge[i] == 0
                   for i in range(d.shape.m))
        assert filter_edge(d, once.copy(), e) == once
    return ran


def leg_closure_batch(count: int) -> int:
    ran = 0
    seed = 1000
    while ran < count:
        seed += 1
        rng = random.Random(seed)
        d = random_graph_diagram(seed)
        if d.shape.m == 0:
            continue
        ran += 1
        m = random_closed_mask(rng, d)
        assert check_leg_closure(d, m) == []
        for _ in range(4):
            filter_edge(d, m, rng.randrange(d.shape.m))
            assert check_leg_closure(d, m) == []
        s = inlim(d).fvs
        from limsolve import VertexSet

        for test in section_tests(d, VertexSet.of(d.shape.n, s)):
            if not test.immediately_empty:
                assert check_leg_closure(test.tau, test.tau_mask) == []
                img = image_tree(test.tau, test.tau_mask)
                assert check_leg_closure(test.tau, img) == []
    return ran


def _filter_to_fixpoint(d, order):
    m = d.full_mask()
    while True:
        before = m.copy()
        for e in order:
            filter_edge(d, m, e)
        if m == before:
            return m


def filter_order_batch(count: int) -> int:
    """Filtering every edge until nothing changes reaches the same masks in
    ascending and in a seeded shuffled edge order."""
    for seed in range(count):
        d = random_graph_diagram(seed, n_max=7)
        asc = list(range(d.shape.m))
        shuffled = asc[:]
        random.Random(seed).shuffle(shuffled)
        assert _filter_to_fixpoint(d, asc) == _filter_to_fixpoint(d, shuffled), seed
    return count


def _cyclic_monoid(m: int) -> FinCat:
    comp = tuple(tuple((g + f) % m for f in range(m)) for g in range(m))
    return FinCat(1, (0,) * m, (0,) * m, (0,), comp)


def fincat_injection_batch(count: int) -> int:
    rng = random.Random(99)
    for case in range(count):
        m = 3 + case % 7
        cat = _cyclic_monoid(m)
        assert validate_fincat(cat) == []
        g = rng.randrange(1, m)
        f = rng.randrange(1, m)
        good = (g + f) % m
        bad_value = (good + rng.randrange(1, m)) % m
        rows = [list(row) for row in cat.comp]
        rows[g][f] = bad_value
        broken = FinCat(1, cat.src, cat.tgt, cat.identity,
                        tuple(tuple(row) for row in rows))
        problems = validate_fincat(broken)
        assert any("associativity" in p for p in problems), (m, g, f, bad_value)
    return count


def test_filter_monotone_idempotent_100():
    assert filter_monotone_idempotent_batch(100) >= 100


def test_leg_closure_preserved_100():
    assert leg_closure_batch(100) >= 100


def test_filter_order_independence_100():
    assert filter_order_batch(100) == 100


def test_fincat_validator_catches_injected_violations_100():
    assert fincat_injection_batch(100) == 100


def test_image_tree_contained_in_input_mask():
    for seed in range(100):
        rng = random.Random(seed)
        d = random_tree_diagram(seed)
        m = random_closed_mask(rng, d)
        out = image_tree(d, m)
        assert all(out.vertex[x] & ~m.vertex[x] == 0
                   for x in range(d.shape.n))
        assert all(out.edge[e] & ~m.edge[e] == 0
                   for e in range(d.shape.m))


def test_witnesses_satisfy_every_edge_constraint():
    checked = 0
    for seed in range(150):
        d = random_graph_diagram(seed)
        result = inlim(d, want_witness=True)
        if result.witness is not None:
            checked += 1
            assert witness_violations(d, result.witness) == []
    assert checked >= 30
