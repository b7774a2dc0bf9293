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


def reference_transport(f, two_c, step):
    """Route-by-route transport: each point's mass walks alone, one step at a
    time along its first axis off its class representative (x mod step), as
    two reflections through the base center and that axis's center; nothing
    merges on the way.  The class sums left are cancelled pairwise through
    the base reflection, lex-greatest first."""
    r = f.r
    two_cs = centers(two_c, step)
    pieces = [{} for _ in two_cs]

    def add(alpha, u, v):
        pieces[alpha][u] = pieces[alpha].get(u, 0) + v

    def reflect(u, alpha):
        return tuple(c - x for c, x in zip(two_cs[alpha], u))

    def walk(u, v):
        rep = tuple(x % step for x in u)
        while u != rep:
            j = next(k for k in range(r) if u[k] != rep[k])
            first, second = (j + 1, 0) if u[j] > rep[j] else (0, j + 1)
            mid = reflect(u, first)
            end = reflect(mid, second)
            add(first, u, v)
            add(first, mid, -v)
            add(second, mid, v)
            add(second, end, -v)
            u = end
        return u

    sums = {}
    for u, v in f.items():
        rep = walk(u, v)
        sums[rep] = sums.get(rep, 0) + v
    for _ in range(2 ** r):
        sums = {u: v for u, v in sums.items() if v}
        if not sums:
            break
        u = max(sums)
        v = sums.pop(u)
        dest = reflect(u, 0)
        add(0, u, v)
        add(0, dest, -v)
        rep = walk(dest, v)
        sums[rep] = sums.get(rep, 0) + v
    assert not any(sums.values())
    return [(LatticeFn(r, d), c) for d, c in zip(pieces, two_cs)]


def reference_split(family, f, center):
    """The family's split by reference_transport, translated as the library
    translates it: half and grid move f so that the center's integer part
    sits at the origin."""
    r = f.r
    if family == "fixed":
        return reference_transport(f, center, 2)
    shift = tuple(c // 2 for c in center) if family == "half" else tuple(center)
    two_c = (tuple(c - 2 * s for c, s in zip(center, shift)) if family == "half"
             else (0,) * r)
    moved = f.shift(tuple(-s for s in shift))
    return [(fn.shift(shift), tuple(c + 2 * s for c, s in zip(two_center, shift)))
            for fn, two_center in reference_transport(moved, two_c,
                                                      1 if family == "half" else 2)]


@st.composite
def family_inputs(draw):
    """(family, f, center) meeting the family's hypothesis; some inputs add
    far-apart points on one line."""
    r = draw(st.integers(1, 5))
    values = draw(st.dictionaries(points(r), st.integers(-6, 6), max_size=10))
    if draw(st.booleans()):
        axis = draw(st.integers(0, r - 1))
        base = draw(points(r))
        for x in draw(st.lists(st.integers(-80, 80), max_size=3)):
            point = base[:axis] + (base[axis] + x,) + base[axis + 1:]
            values[point] = draw(st.integers(-6, 6))
    family = draw(st.sampled_from(["half", "grid", "fixed"]))
    center = draw(points(r))
    if family == "half":
        anchor = draw(points(r))
        values[anchor] = values.get(anchor, 0) - LatticeFn(r, values).total()
    else:
        for v in grid_vectors(r):
            values[v] = values.get(v, 0) - LatticeFn(r, values).grid_sum(v)
    return family, LatticeFn(r, values), center


SPLITS = {"half": skew_split_half, "grid": skew_split_grid,
          "fixed": skew_split_fixed_centers}


# Example budget; never lowered to hide a failure.
@settings(max_examples=300, deadline=None, database=None)
@given(family_inputs())
def test_splits_match_route_by_route_reference(case):
    family, f, center = case
    pieces = SPLITS[family](f, center)
    assert [(p.fn, p.two_center) for p in pieces] == reference_split(family, f, center)
