"""Generated checks of the three skew splits over ranks 1-5."""

from hypothesis import given, settings, strategies as st

from palwidth import (LatticeFn, grid_vectors, skew_split_fixed_centers,
                      skew_split_grid, skew_split_half, zero_fn)


def points(r):
    return st.tuples(*[st.integers(-4, 4)] * r)


@st.composite
def split_inputs(draw):
    r = draw(st.integers(1, 5))
    values = draw(st.dictionaries(points(r), st.integers(-6, 6), max_size=10))
    anchor, two_p, p, two_c = (draw(points(r)) for _ in range(4))
    return r, values, anchor, two_p, p, two_c


def centers(two_c, step):
    return [tuple(c + (step if j == a - 1 else 0) for j, c in enumerate(two_c))
            for a in range(len(two_c) + 1)]


def assert_split(f, pieces, two_centers):
    assert [piece.two_center for piece in pieces] == two_centers
    assert all(piece.is_valid() for piece in pieces)
    total = zero_fn(f.r)
    for piece in pieces:
        total = total.add(piece.fn)
    assert total == f


# Example budget; never lowered to hide a failure.
@settings(max_examples=300, deadline=None, database=None)
@given(split_inputs())
def test_splits_return_valid_pieces_at_their_centers(case):
    r, values, anchor, two_p, p, two_c = case
    zero_sum = dict(values)
    zero_sum[anchor] = zero_sum.get(anchor, 0) - LatticeFn(r, values).total()
    f = LatticeFn(r, zero_sum)
    assert_split(f, skew_split_half(f, two_p), centers(two_p, 1))

    grid_zero = dict(values)
    for v in grid_vectors(r):
        grid_zero[v] = grid_zero.get(v, 0) - LatticeFn(r, grid_zero).grid_sum(v)
    f = LatticeFn(r, grid_zero)
    assert_split(f, skew_split_grid(f, p), centers(tuple(2 * c for c in p), 2))
    assert_split(f, skew_split_fixed_centers(f, two_c), centers(two_c, 2))
