"""Property and example tests for the GF(2) bitset linear algebra layer."""

import random

import pytest
from hypothesis import given, strategies as st

from fcx.gf2 import (
    Gf2Matrix,
    Gf2Subspace,
    apply_columns,
    bits,
    bits_descending,
    clear_pivots,
    commutator_witnesses,
    echelon,
    invert_columns,
    invert_square,
    rref_rows,
    subspace_intersection,
    subspace_sum,
)

DIM = 6
vectors = st.integers(min_value=0, max_value=(1 << DIM) - 1)
vector_lists = st.lists(vectors, max_size=8)


def space_members(s: Gf2Subspace) -> set[int]:
    out = {0}
    for b in s.basis:
        out |= {x ^ b for x in out}
    return out


def test_bits_enumerates_set_positions():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


@given(st.integers(min_value=0, max_value=(1 << 200) - 1))
def test_bits_descending_is_bits_reversed(v):
    assert bits_descending(v) == list(bits(v))[::-1]


def by_bits(cols, v):
    """Reference for ``apply_columns``: the XOR of the columns at ``bits(v)``."""
    out = 0
    for b in bits(v):
        out ^= cols[b]
    return out


@given(st.lists(vectors, min_size=DIM, max_size=DIM), vectors)
def test_apply_columns_xors_the_columns_of_the_set_bits(cols, v):
    assert apply_columns(cols, v) == by_bits(cols, v)


# ``echelon``'s keyword arguments: the default pivot, the lowest set bit, and
# the other end of the bit order.
PIVOTS = {"lowest": {}, "highest": {"pivot": lambda v: v.bit_length() - 1}}


@pytest.mark.parametrize("pivot", sorted(PIVOTS))
@given(vs=vector_lists)
def test_echelon_rows_are_keyed_by_their_pivot_and_span_the_inputs(pivot, vs):
    rows, _ = echelon(((v, 0) for v in vs), **PIVOTS[pivot])
    for piv, (v, _) in rows.items():
        earlier = v & ((1 << piv) - 1) if pivot == "lowest" else v >> (piv + 1)
        assert (v >> piv) & 1 and earlier == 0
    span = Gf2Subspace.from_vectors(DIM, vs)
    assert Gf2Subspace.from_vectors(DIM, [v for v, _ in rows.values()]) == span
    assert len(rows) == span.dim


@pytest.mark.parametrize("pivot", sorted(PIVOTS))
@given(vs=vector_lists)
def test_echelon_dependent_tags_are_relations_on_earlier_kept_inputs(pivot, vs):
    """Tags 1 << i: the tag of dependent input i is bit i plus bits of kept
    inputs before i, and it maps to 0 under the column map ``vs``."""
    _, relations = echelon(((v, 1 << i) for i, v in enumerate(vs)), **PIVOTS[pivot])
    dependent = [
        i for i, v in enumerate(vs) if Gf2Subspace.from_vectors(DIM, vs[:i]).contains(v)
    ]
    kept = sum(1 << i for i in range(len(vs)) if i not in dependent)
    assert [tag.bit_length() - 1 for tag in relations] == dependent
    for i, tag in zip(dependent, relations):
        assert (tag ^ 1 << i) & ~(kept & ((1 << i) - 1)) == 0
        assert apply_columns(vs, tag) == 0


@given(vector_lists, vectors)
def test_clear_pivots_by_an_echelon_matches_clear_pivots_by_the_rref(vs, v):
    rows, _ = echelon((w, 0) for w in vs)
    basis, pivots = rref_rows(vs)
    rref = {p: (b, 0) for p, b in zip(pivots, basis)}
    assert clear_pivots(rows, v) == clear_pivots(rref, v)
    assert (clear_pivots(rows, v)[0] == 0) == Gf2Subspace(DIM, basis).contains(v)


@given(vector_lists)
def test_rref_rows_is_a_reduced_basis_of_the_row_span(rows):
    basis, pivots = rref_rows(rows)
    assert len(basis) == len(pivots)
    assert list(pivots) == sorted(pivots)
    for i, (piv, row) in enumerate(zip(pivots, basis)):
        assert (row >> piv) & 1
        for other in range(len(basis)):
            if other != i:
                assert not (basis[other] >> piv) & 1
    span = Gf2Subspace(DIM, basis)
    for row in rows:
        assert span.contains(row)
    naive = Gf2Subspace.from_vectors(DIM, rows)
    assert set(basis) <= space_members(naive)


@given(vector_lists)
def test_rref_is_idempotent(rows):
    basis, _ = rref_rows(rows)
    again, _ = rref_rows(basis)
    assert again == basis


@pytest.mark.parametrize(
    "n_cols, rows",
    [(3, (0b001, -1)), (3, (-4, 0b010)), (3, (0b1000, 0)), (3, (0b011, 0b1101)), (0, (1,))],
)
def test_a_matrix_refuses_a_negative_row_or_a_bit_at_n_cols(n_cols, rows):
    with pytest.raises(ValueError, match="beyond n_cols"):
        Gf2Matrix(len(rows), n_cols, rows)


def test_a_matrix_takes_rows_up_to_its_last_column():
    assert Gf2Matrix(2, 3, (0b111, 0)).rows == (0b111, 0)
    assert Gf2Matrix(0, 0, ()).rows == ()
    assert Gf2Matrix(1, 0, (0,)).rows == (0,)
    with pytest.raises(ValueError, match="row count"):
        Gf2Matrix(2, 3, (0,))


def test_mat_mul_shapes_and_identity():
    m = Gf2Matrix.from_entries(2, 3, [(0, 0), (1, 2)])
    assert Gf2Matrix.identity(2).mat_mul(m) == m
    assert m.mat_mul(Gf2Matrix.identity(3)) == m
    with pytest.raises(ValueError):
        m.mat_mul(m)


@given(vector_lists, vector_lists)
def test_sum_and_intersection_dimension_formula(us, vs):
    u = Gf2Subspace.from_vectors(DIM, us)
    v = Gf2Subspace.from_vectors(DIM, vs)
    s = subspace_sum(u, v)
    i = subspace_intersection(u, v)
    assert u.dim + v.dim == s.dim + i.dim
    assert s.contains_space(u) and s.contains_space(v)
    assert u.contains_space(i) and v.contains_space(i)


@given(vector_lists, vector_lists)
def test_intersection_matches_brute_force(us, vs):
    u = Gf2Subspace.from_vectors(DIM, us)
    v = Gf2Subspace.from_vectors(DIM, vs)
    expected = space_members(u) & space_members(v)
    assert space_members(subspace_intersection(u, v)) == expected


@pytest.mark.parametrize("op", [subspace_sum, subspace_intersection])
def test_subspace_operations_refuse_mismatched_ambient_dimensions(op):
    u = Gf2Subspace.from_vectors(3, [0b001])
    v = Gf2Subspace.from_vectors(4, [0b001])
    with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
        op(u, v)


def is_unitriangular(cols, order):
    """Column i is e_i plus slots strictly earlier in ``order``."""
    earlier = 0
    for i in order:
        if not (cols[i] >> i) & 1 or (cols[i] ^ (1 << i)) & ~earlier:
            return False
        earlier |= 1 << i
    return True


@given(st.lists(st.integers(0, 15), min_size=4, max_size=4))
def test_invert_columns_roundtrip_or_singular(cols):
    """In the natural order a 4x4 map inverts iff it is upper unitriangular;
    every singular map is refused."""
    try:
        inv, _ = invert_columns(cols, range(4), [0] * 4)
    except ValueError:
        assert not is_unitriangular(cols, range(4))
        return
    assert len(rref_rows(cols)[0]) == 4
    for j in range(4):
        assert apply_columns(cols, inv[j]) == 1 << j
        assert apply_columns(inv, cols[j]) == 1 << j


@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
))
def test_invert_square_inverts_exactly_the_full_rank_maps(cols):
    n = len(cols)
    inv = invert_square(cols)
    if len(rref_rows(cols)[0]) < n:
        assert inv is None
        return
    assert inv is not None and len(inv) == n
    for j in range(n):
        assert apply_columns(cols, inv[j]) == 1 << j
        assert apply_columns(inv, cols[j]) == 1 << j


def test_invert_columns_identity():
    ident = [1 << i for i in range(5)]
    assert invert_columns(ident, [3, 1, 4, 0, 2], ident) == (ident, ident)


@st.composite
def unitriangular_maps(draw, max_n=10):
    """(cols, order): a random order, each column its slot plus random earlier slots."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    cols = [0] * n
    for pos, i in enumerate(order):
        earlier = draw(st.lists(st.sampled_from(order[:pos]), max_size=pos)) if pos else []
        cols[i] = 1 << i
        for q in earlier:
            cols[i] |= 1 << q
    return cols, order


@given(unitriangular_maps(), st.data())
def test_invert_columns_inverts_unitriangular_maps_both_ways(map_and_order, data):
    """... and its second output is ``through`` applied to each column."""
    cols, order = map_and_order
    n = len(cols)
    through = data.draw(st.lists(vectors, min_size=n, max_size=n))
    inv, image = invert_columns(cols, order, through)
    assert is_unitriangular(inv, order)
    for i in range(n):
        assert apply_columns(cols, inv[i]) == 1 << i
        assert apply_columns(inv, cols[i]) == 1 << i
        assert image[i] == apply_columns(through, cols[i])


@given(unitriangular_maps(), st.data())
def test_invert_columns_refuses_a_later_entry_or_a_missing_diagonal(map_and_order, data):
    cols, order = map_and_order
    n = len(cols)
    pos = data.draw(st.integers(0, n - 1))
    i = order[pos]
    broken = list(cols)
    if pos == n - 1 or data.draw(st.booleans()):
        broken[i] ^= 1 << i  # drop the diagonal bit
    else:
        later = data.draw(st.sampled_from(order[pos + 1:]))
        broken[i] |= 1 << later  # an entry later in the order than the slot
    with pytest.raises(ValueError):
        invert_columns(broken, order, cols)


def test_invert_columns_refuses_an_order_that_is_not_a_permutation():
    ident = [1 << i for i in range(3)]
    with pytest.raises(ValueError):
        invert_columns(ident, [0, 1, 1], ident)
    with pytest.raises(ValueError):
        invert_columns(ident, [0, 1], ident)


def _first_witness(a, d):
    """The first column where ``a`` and ``d`` do not commute, one map at a time."""
    for i in range(len(d)):
        diff = by_bits(d, a[i]) ^ by_bits(a, d[i])
        if diff:
            return i, diff
    return None


square_maps = st.integers(0, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
        st.lists(
            st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n), max_size=4
        ),
    )
)


@given(square_maps)
def test_commutator_witnesses_of_stacked_maps_match_one_map_at_a_time(d_and_maps):
    d, maps = d_and_maps
    assert commutator_witnesses(maps, d) == [_first_witness(a, d) for a in maps]


def test_commutator_witnesses_finds_each_maps_own_first_column():
    d = [0b10, 0, 0b1000, 0]  # 0 -> 1 and 2 -> 3
    ident = [1 << i for i in range(4)]
    to2 = [0b100, 0, 0, 0]  # 0 -> 2: d . a reaches 3 from column 0
    from1 = [0, 0b100, 0, 0]  # 1 -> 2: a . d reaches 2 from column 0
    swap = [0b100, 0b1000, 0b1, 0b10]  # 0 <-> 2 and 1 <-> 3: commutes
    from3 = [0, 0, 0, 0b10]  # 3 -> 1: a . d reaches 1 from column 2
    maps = [ident, to2, from1, swap, from3]
    expected = [None, (0, 0b1000), (0, 0b100), None, (2, 0b10)]
    assert [_first_witness(a, d) for a in maps] == expected
    assert commutator_witnesses(maps, d) == expected
    assert commutator_witnesses([], d) == []


# Wide vectors: CPython stores ints in 30-bit digits, so every width past 30
# is a multi-digit int, and 1500 bits is the size of a large complex.
WIDTHS = (1, 30, 31, 64, 700, 1500)


def wide_vectors(rng, n, count):
    """The zero vector, bit 0 alone, the top bit alone, all ones, then seeded
    random n-bit vectors, ``count`` in all."""
    edges = [0, 1, 1 << (n - 1), (1 << n) - 1]
    return (edges + [rng.getrandbits(n) for _ in range(count)])[:count]


@pytest.mark.parametrize("n", WIDTHS)
def test_apply_columns_and_mat_mul_on_wide_vectors(n):
    rng = random.Random(n)
    cols = wide_vectors(rng, n, n)
    vs = wide_vectors(rng, n, 12)
    assert [apply_columns(cols, v) for v in vs] == [by_bits(cols, v) for v in vs]
    left = Gf2Matrix(len(vs), n, tuple(vs))
    right = Gf2Matrix(n, n, tuple(cols))
    assert left.mat_mul(right).rows == tuple(by_bits(cols, v) for v in vs)


@pytest.mark.parametrize("n", WIDTHS[1:])
def test_commutator_witnesses_on_wide_vectors(n):
    """The identity and ``d`` itself commute with ``d``; a copy of the
    identity with one entry planted at (row, column) = (top, 0) does not:
    column 0 of d . a gains column ``top`` of d, all ones, and column 0 of
    a . d gains at most bit ``top``."""
    rng = random.Random(n)
    # sparse random columns, then the edge vectors, all ones in column n - 1
    sparse = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
    d = (sparse + wide_vectors(rng, n, 4))[-n:]
    ident = [1 << i for i in range(n)]
    planted = [ident[0] | 1 << (n - 1)] + ident[1:]
    maps = [ident, d, planted]
    expected = [_first_witness(a, d) for a in maps]
    assert expected[:2] == [None, None] and expected[2][0] == 0
    assert commutator_witnesses(maps, d) == expected


@pytest.mark.parametrize("n", WIDTHS)
def test_invert_columns_both_outputs_on_wide_vectors(n):
    """A seeded map unitriangular in a random order: the slot first in the
    order is its own bit alone, the slot last in it all ones, and every other
    slot its own bit plus random earlier slots.  ``through`` holds the zero
    vector, bit 0 alone, the top bit alone and all ones, from about its
    middle column on."""
    rng = random.Random(n)
    order = list(range(n))
    rng.shuffle(order)
    cols = [0] * n
    earlier = 0
    for i in order:
        cols[i] = 1 << i | earlier & rng.getrandbits(n) & rng.getrandbits(n)
        earlier |= 1 << i
    cols[order[-1]] = (1 << n) - 1
    through = wide_vectors(rng, n, n)
    through = through[n // 2 :] + through[: n // 2]
    inv, image = invert_columns(cols, order, through)
    assert image == [by_bits(through, col) for col in cols]
    sample = {0, n - 1, order[0], order[-1], *rng.sample(range(n), min(n, 16))}
    for i in sample:
        assert by_bits(cols, inv[i]) == 1 << i
        assert by_bits(inv, cols[i]) == 1 << i
