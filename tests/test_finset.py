import random

import pytest

from limsolve import FinFn, FinSetObj
from limsolve.finset import bits, full_mask, mask_of, table_image


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


def test_image_surjection_all_true():
    assert table_image((0, 1, 2, 3), full_mask(4)) == full_mask(4)


def test_image_empty_source():
    assert table_image((), 0) == 0
    # a masked-out source element marks nothing
    assert table_image((0, 2), 0b10) == 0b100


def test_image_path_example_leg():
    # a -> x, b -> x, c -> y marks both x and y
    assert table_image((0, 0, 1), full_mask(3)) == 0b11


def test_image_of_composite_inside_image():
    rng = random.Random(3)
    for _ in range(60):
        a, b, c = (rng.randint(1, 6) for _ in range(3))
        f = [rng.randrange(b) for _ in range(a)]
        g = [rng.randrange(c) for _ in range(b)]
        gf = [g[t] for t in f]
        assert table_image(gf, full_mask(a)) & ~table_image(g, full_mask(b)) == 0


def test_bit_helpers():
    assert list(bits(0b1011)) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    assert full_mask(0) == 0
