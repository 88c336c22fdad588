import random

import pytest

from limsolve import FinFn, FinSetObj, compose, image
from limsolve.finset import bits, full_mask, mask_of


def random_fn(rng, s, t):
    return FinFn(s, t, tuple(rng.randrange(t) for _ in range(s)))


def test_finsetobj_label_invariants():
    FinSetObj(2, ("a", "b"))
    with pytest.raises(ValueError):
        FinSetObj(2, ("a",))
    with pytest.raises(ValueError):
        FinSetObj(2, ("a", "a"))
    with pytest.raises(ValueError):
        FinSetObj(-1)


def test_finfn_totality():
    with pytest.raises(ValueError):
        FinFn(2, 2, (0, 2))
    with pytest.raises(ValueError):
        FinFn(2, 2, (0,))
    # into the empty set only from the empty set
    FinFn(0, 0, ())
    with pytest.raises(ValueError):
        FinFn(1, 0, (0,))


def test_compose_identity_law():
    rng = random.Random(0)
    g = random_fn(rng, 3, 4)
    assert compose(FinFn.identity(3), g) == g
    assert compose(g, FinFn.identity(4)) == g


def test_compose_constant():
    f = FinFn.constant(3, 2, 1)
    g = FinFn.constant(2, 5, 4)
    assert compose(f, g) == FinFn.constant(3, 5, 4)


def test_compose_pointwise():
    rng = random.Random(1)
    for _ in range(50):
        s, mid, t = (rng.randint(1, 6) for _ in range(3))
        f = random_fn(rng, s, mid)
        g = random_fn(rng, mid, t)
        gf = compose(f, g)
        for i in range(s):
            assert gf(i) == g.table[f.table[i]]


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(FinFn.identity(2), FinFn.identity(3))


def test_compose_associative():
    rng = random.Random(2)
    for _ in range(50):
        a, b, c, d = (rng.randint(1, 5) for _ in range(4))
        f = random_fn(rng, a, b)
        g = random_fn(rng, b, c)
        h = random_fn(rng, c, d)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_image_surjection_all_true():
    assert image(FinFn.identity(4)) == full_mask(4)


def test_image_empty_source():
    assert image(FinFn(0, 3, ())) == 0


def test_image_path_example_leg():
    # a -> x, b -> x, c -> y marks both x and y
    assert image(FinFn(3, 2, (0, 0, 1))) == 0b11


def test_image_of_composite_inside_image():
    rng = random.Random(3)
    for _ in range(60):
        a, b, c = (rng.randint(1, 6) for _ in range(3))
        f = random_fn(rng, a, b)
        g = random_fn(rng, b, c)
        assert image(compose(f, g)) & ~image(g) == 0


def test_bit_helpers():
    assert list(bits(0b1011)) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    assert full_mask(0) == 0
