import pytest

from parinv.shapes import (
    FlagShape,
    GroupKind,
    IndexPair,
    ShapeError,
    dim_g0,
    dim_group,
    dim_unipotent_radical,
    index_set,
    make_shape,
    order_key,
)
from parinv.sampling import Rng

EXAMPLE_GL_PAIRS = [
    (5, 1), (4, 1), (5, 2), (4, 2), (5, 3), (4, 3), (3, 3), (2, 3),
    (5, 4), (4, 4), (3, 4), (2, 4), (5, 5), (4, 5), (3, 5), (2, 5), (1, 5),
]


def test_make_shape_valid():
    shape = make_shape("gl", 5, [1, 2, 2])
    assert shape.ell == 3
    assert shape.segments == ((1,), (2, 3), (4, 5))
    sp = make_shape("sp", 8, [1, 2, 2, 2, 1])
    assert (sp.ell0, sp.N0, sp.n0) == (2, 3, 2)
    assert sp.central_segment == (4, 5)


def test_make_shape_errors():
    with pytest.raises(ShapeError):
        make_shape("sp", 7, [1, 2, 1, 2, 1])  # odd size for symplectic kind
    with pytest.raises(ShapeError):
        make_shape("gl", 5, [1, 2])  # wrong sum
    with pytest.raises(ShapeError):
        make_shape("o", 6, [1, 2, 3])  # not palindromic
    with pytest.raises(ShapeError):
        make_shape("gl", 3, [])
    with pytest.raises(ShapeError):
        make_shape("gl", 3, [3, 0])
    with pytest.raises(ShapeError):
        make_shape("su", 3, [3])


def test_mirror():
    shape = make_shape("gl", 5, [5])
    assert shape.mirror(1) == 5
    assert shape.mirror(3) == 3
    assert make_shape("gl", 8, [8]).mirror(6) == 3
    with pytest.raises(ShapeError):
        shape.mirror(6)


def test_block_of():
    shape = make_shape("gl", 5, [1, 2, 2])
    assert [shape.block_of(i) for i in range(1, 6)] == [1, 2, 2, 3, 3]


def test_example_gl_index_set():
    idx = index_set(make_shape("gl", 5, [1, 2, 2]))
    assert [tuple(p) for p in idx.pairs] == EXAMPLE_GL_PAIRS
    assert idx.gamma0 == ()
    # the anti-diagonal rule for the split
    assert {tuple(p) for p in idx.sigma0} == {
        (5, 1), (4, 1), (4, 2), (3, 3), (2, 3), (2, 4), (1, 5)
    }
    assert len(set(idx.pairs) - idx.sigma0) == 10  # the pairs below the anti-diagonal


def test_single_block_gl_keeps_all_coordinates():
    idx = index_set(make_shape("gl", 2, [2]))
    assert len(idx.pairs) == 4


def test_sl_drops_the_top_corner():
    gl = index_set(make_shape("gl", 5, [1, 2, 2]))
    sl = index_set(make_shape("sl", 5, [1, 2, 2]))
    assert set(gl.pairs) - set(sl.pairs) == {IndexPair(1, 5)}
    assert len(sl.pairs) == 16


def test_borel_index_set_is_upper_anti_triangle():
    n = 6
    idx = index_set(make_shape("gl", n, [1] * n))
    assert {tuple(p) for p in idx.pairs} == {
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j >= n + 1
    }
    assert len(idx.pairs) == n * (n + 1) // 2


def test_example_sp_index_set():
    idx = index_set(make_shape("sp", 8, [1, 2, 2, 2, 1]))
    assert len(idx.pairs) == 19
    by_row = {r: sorted(p.j for p in idx.pairs if p.i == r) for r in (6, 7, 8)}
    assert by_row == {6: [2, 3, 4, 5, 6], 7: [2, 3, 4, 5, 6, 7], 8: list(range(1, 9))}
    assert {tuple(p) for p in idx.gamma0} == {(i, j) for i in (4, 5) for j in (4, 5)}
    # the anti-diagonal split of the worked tables
    assert {tuple(p) for p in idx.sigma0} == {(6, 2), (6, 3), (7, 2), (8, 1)}


def test_orthogonal_strictness():
    # orthogonal condition is i > j, symplectic allows i = j
    o_idx = index_set(make_shape("o", 6, [2, 2, 2]))
    assert all(p.i > p.j for p in o_idx.pairs)
    sp_idx = index_set(make_shape("sp", 8, [1, 2, 2, 2, 1]))
    assert any(p.i == p.j for p in sp_idx.pairs)


def test_circ_set_is_contained_in_ambient_bottom_rows():
    for params in (("o", 5, (1, 3, 1)), ("o", 6, (2, 2, 2)), ("sp", 8, (1, 2, 2, 2, 1)), ("o", 4, (2, 2))):
        shape = make_shape(*params)
        idx = index_set(shape)
        ambient = set(index_set(shape.as_gl()).pairs)
        assert set(idx.pairs) <= ambient
        assert all(p.i > shape.n - shape.N0 for p in idx.pairs)
        if shape.ell % 2 == 0:
            assert idx.gamma0 == ()


def test_order_is_strict_total_with_min_at_bottom_left():
    rng = Rng(77)
    for _ in range(20):
        n = rng.randint(2, 8)
        parts = []
        rest = n
        while rest:
            p = rng.randint(1, rest)
            parts.append(p)
            rest -= p
        shape = make_shape("gl", n, parts)
        idx = index_set(shape)
        keys = [order_key(p) for p in idx.pairs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert idx.pairs[0] == IndexPair(n, 1)


def test_dims_gl_example():
    shape = make_shape("gl", 5, [1, 2, 2])
    assert dim_unipotent_radical(shape) == 8
    assert dim_group(shape) == 25
    assert 25 - 8 == len(index_set(shape).pairs)


def test_dims_sp_example():
    shape = make_shape("sp", 8, [1, 2, 2, 2, 1])
    assert dim_group(shape) == 36
    assert dim_g0(shape) == 3
    assert dim_unipotent_radical(shape) == 14
    assert len(index_set(shape).pairs) + dim_g0(shape) == 36 - 14


def test_dims_more_shapes():
    o5 = make_shape("o", 5, [1, 3, 1])
    assert (dim_group(o5), dim_g0(o5), dim_unipotent_radical(o5)) == (10, 3, 3)
    o6 = make_shape("o", 6, [2, 2, 2])
    assert (dim_group(o6), dim_g0(o6), dim_unipotent_radical(o6)) == (15, 1, 5)
    sp4 = make_shape("sp", 4, [1, 2, 1])
    assert (dim_group(sp4), dim_g0(sp4), dim_unipotent_radical(sp4)) == (10, 3, 3)
    sl5 = make_shape("sl", 5, [1, 2, 2])
    assert dim_group(sl5) == 24
    with pytest.raises(ShapeError):
        dim_g0(sl5)


def test_borel_dim_u():
    n = 7
    shape = make_shape("gl", n, [1] * n)
    assert dim_unipotent_radical(shape) == n * (n - 1) // 2


def test_count_identity_by_enumeration_random_shapes():
    rng = Rng(78)
    for _ in range(30):
        n = rng.randint(1, 8)
        parts = []
        rest = n
        while rest:
            p = rng.randint(1, rest)
            parts.append(p)
            rest -= p
        shape = make_shape("gl", n, parts)
        assert len(index_set(shape).pairs) == n * n - dim_unipotent_radical(shape)


def test_shape_json():
    shape = make_shape("sp", 8, [1, 2, 2, 2, 1])
    assert shape.to_json() == {"kind": "sp", "n": 8, "parts": [1, 2, 2, 2, 1]}
    assert shape.as_gl().kind is GroupKind.GL
