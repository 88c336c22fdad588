"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

from conftest import (
    best_of_interleaved,
    c4_example,
    cospan_example,
    path_example,
    random_graph_diagram,
    random_tree_diagram,
)
from limsolve import (
    BagDecomposition,
    CapExceeded,
    SimpleGraph,
    VertexSet,
    brute_image,
    cset_inlim,
    enumerate_limit,
    find_homomorphism,
    fvs_exact,
    hom_exists,
    image_tree,
    inlim,
    section_tests,
    validate_decomposition,
)
from limsolve.generate import (
    complete_graph,
    cycle_graph,
    elimination_decomposition,
    generate_instance,
    lift_to_terminal_cset,
    path_graph,
    petersen_graph,
    random_graph,
    random_tree,
    random_walking_arrow_diagram,
)
from limsolve.graphs import components
import test_properties


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    total = 0
    for seed in range(300):
        d = random_tree_diagram(seed)
        total += 1
        if inlim(d).verdict.empty_limit != (not enumerate_limit(d)):
            mismatches += 1
    for seed in range(200):
        d = random_graph_diagram(10_000 + seed)
        total += 1
        if inlim(d).verdict.empty_limit != (not enumerate_limit(d)):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict("1 oracle equivalence",
             total >= 500 and mismatches == 0 and elapsed < 60,
             f"{total} instances, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_exact_image_recovery():
    mask_mismatches = 0
    component_violations = 0
    for seed in range(200):
        d = random_tree_diagram(20_000 + seed)
        mask = image_tree(d, d.full_mask())
        if mask != brute_image(d):
            mask_mismatches += 1
        for comp in components(d.shape):
            empties = [mask.vertex[v] == 0 for v in comp]
            if any(empties) and not all(empties):
                component_violations += 1
    _verdict("2 exact image recovery",
             mask_mismatches == 0 and component_violations == 0,
             f"200 tree instances, {mask_mismatches} mask mismatches, "
             f"{component_violations} per-component emptiness violations")


def test_criterion_3_golden_worked_examples():
    errors = []
    # (a) the path diagram: image {c},{y},{β},{v},{r,s}; two families
    d = path_example()
    img = image_tree(d, d.full_mask())
    if img.vertex != [0b100, 0b010, 0b011] or img.edge != [0b10, 0b10]:
        errors.append(f"path image masks {img.vertex}/{img.edge}")
    if len(enumerate_limit(d)) != 2:
        errors.append("path family count != 2")
    # (b) the four-cycle: empty, two section tests matching the golden masks
    c4 = c4_example()
    result = inlim(c4)
    tests = list(section_tests(c4, VertexSet.of(4, [0])))
    if not result.verdict.empty_limit:
        errors.append("C4 not reported empty")
    if result.section_test_count != 2 or len(tests) != 2:
        errors.append("C4 section test count != 2")
    golden = ([0b10, 0b11, 0b01], [0b01, 0b11, 0b10])
    for t, want in zip(tests, golden):
        if t.tau.shape != SimpleGraph(3, [(0, 1), (1, 2)]):
            errors.append("C4 test diagram is not the 3-path")
        if t.tau_mask.vertex != want or t.tau_mask.edge != [0b11, 0b11]:
            errors.append(f"C4 test masks {t.tau_mask.vertex}")
    # (c) the mismatched cospan
    if not inlim(cospan_example()).verdict.empty_limit:
        errors.append("cospan not reported empty")
    _verdict("3 golden worked examples", not errors,
             "; ".join(errors) if errors
             else "path image + 2 families; C4 empty with matching section "
                  "tests; cospan empty")


def test_criterion_4_scaling():
    small = generate_instance("path", 100, 5, seed=42, fixed_size=True)
    mid = generate_instance("path", 10_000, 5, seed=42, fixed_size=True)
    big = generate_instance("path", 100_000, 5, seed=42, fixed_size=True)
    # best times in ms; the small rung runs twice per turn
    t_small = 1000.0 * min(best_of_interleaved(inlim, small, small))
    t_mid, t_big = (1000.0 * t for t in best_of_interleaved(inlim, mid, big, 3))
    ratio = t_big / t_mid
    capped = False
    try:
        enumerate_limit(generate_instance("path", 30, 5, seed=42,
                                          fixed_size=True))
    except CapExceeded:
        capped = True
    _verdict("4 scaling",
             t_small < 10 and t_big < 1000 and 5 <= ratio <= 20 and capped,
             f"n=100: {t_small:.2f} ms; n=1e5: {t_big:.0f} ms; "
             f"1e4->1e5 ratio {ratio:.1f}x; brute force at n=30 "
             f"{'SKIPPED' if capped else 'ran'}")


def test_criterion_5_section_test_budget():
    errors = []
    for n, w in ((6, 2), (9, 4), (12, 3)):
        d = generate_instance("cycle", n, w, seed=n * w, fixed_size=True)
        result = inlim(d, early_exit=False)
        if len(result.fvs) != 1:
            errors.append(f"cycle n={n}: feedback vertex number != 1")
        if result.section_test_count != w:
            errors.append(f"cycle n={n}, w={w}: counter "
                          f"{result.section_test_count}")
    bounded = 0
    for seed in range(40):
        d = random_graph_diagram(30_000 + seed)
        s = fvs_exact(d.shape, d.shape.n)
        result = inlim(d, fvs=s, early_exit=False)
        if result.section_test_count > max(d.width(), 1) ** len(s):
            errors.append(f"seed {seed}: counter above w^k")
        bounded += 1
    _verdict("5 section-test budget", not errors,
             "; ".join(errors) if errors
             else f"cycle counters equal w exactly; {bounded} random "
                  f"instances within w^k")


def test_criterion_6_homomorphism_application():
    k3 = complete_graph(3)
    errors = []
    b = elimination_decomposition(random.Random(0), complete_graph(4))
    if hom_exists(b, k3)[0]:
        errors.append("K4 reported 3-colorable")
    c5 = cycle_graph(5)
    exists, coloring = hom_exists(
        elimination_decomposition(random.Random(1), c5), k3,
        want_coloring=True)
    if not exists or any(coloring[u] == coloring[v] for u, v in c5.edges):
        errors.append("C5 coloring missing or improper")
    pet = petersen_graph()
    bp = BagDecomposition(pet, path_graph(5),
                          tuple(tuple(range(i, i + 6)) for i in range(5)))
    if validate_decomposition(bp) != [] or \
            max(len(bag) for bag in bp.bags) - 1 > 5:
        errors.append("Petersen decomposition invalid or too wide")
    exists, coloring = hom_exists(bp, k3, want_coloring=True)
    if not exists or any(coloring[u] == coloring[v] for u, v in pet.edges):
        errors.append("Petersen coloring missing or improper")
    agree = 0
    for seed in range(100):
        rng = random.Random(40_000 + seed)
        x = random_graph(rng, rng.randint(1, 9), 0.45)
        bd = elimination_decomposition(rng, x)
        got, col = hom_exists(bd, k3, want_coloring=True)
        if got != (find_homomorphism(x, k3) is not None):
            errors.append(f"seed {seed}: disagrees with backtracking")
            continue
        if got and any(col[u] == col[v] for u, v in x.edges):
            errors.append(f"seed {seed}: improper coloring")
            continue
        agree += 1
    _verdict("6 homomorphism application", not errors and agree == 100,
             "; ".join(errors) if errors
             else f"K4 NO-HOM, C5 HOM, Petersen HOM with verified colorings, "
                  f"{agree}/100 oracle agreement")


def test_criterion_7_cset_extension():
    from test_cset import brute_cset_empty

    errors = []
    shared = 0
    for seed in range(60):
        d = random_graph_diagram(50_000 + seed)
        if cset_inlim(lift_to_terminal_cset(d)).empty_limit != \
                inlim(d).verdict.empty_limit:
            errors.append(f"terminal seed {seed}")
            continue
        shared += 1
    checked = 0
    for seed in range(50):
        rng = random.Random(60_000 + seed)
        if seed % 3 == 0:
            shape = random_tree(rng, rng.randint(1, 5))
        elif seed % 2:
            shape = random_graph(rng, rng.randint(1, 5), 0.4)
        else:
            shape = SimpleGraph(rng.randint(1, 5), [])
        d = random_walking_arrow_diagram(rng, shape, 3)
        if cset_inlim(d).empty_limit != brute_cset_empty(d):
            errors.append(f"walking-arrow seed {seed}")
            continue
        checked += 1
    _verdict("7 C-set extension",
             not errors and shared >= 50 and checked >= 50,
             "; ".join(errors) if errors
             else f"{shared} terminal-category agreements, {checked} "
                  f"walking-arrow instances vs componentwise oracle")


def test_criterion_8_property_suites():
    a = test_properties.filter_monotone_idempotent_batch(100)
    b = test_properties.leg_closure_batch(100)
    c = test_properties.filter_order_batch(100)
    d = test_properties.fincat_injection_batch(100)
    _verdict("8 property suites", min(a, b, c, d) >= 100,
             f"monotone/idempotent {a}, leg-closure {b}, filter-order {c}, "
             f"category-validator {d} cases, zero failures")
