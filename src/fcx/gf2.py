"""Exact linear algebra over the two-element field.

Vectors are Python ints used as bitsets: bit ``i`` of a vector is its
coordinate ``i``, and addition is XOR.  Matrices store one int per row, so a
row operation is a single XOR on machine words.

There are two echelon formats.  Where a canonical basis is the output, the
reduced row-echelon form of ``rref_rows`` is used: it is unique, its pivot
columns ascend, and subspaces are kept in it, so two subspaces are equal iff
their stored bases are identical.  It serves the independent oracles of
``fcx.engine``, which compute with ``Gf2Subspace`` in ambient coordinates,
and the unique representatives of the degree-graded cohomology.  Everything
else (rank, the relations among vectors, decoding a vector against a span,
the engine's dipole reduction) uses the pivot-keyed echelon of ``echelon``,
a dict from each row's pivot (by default its lowest set bit, which
``clear_pivots`` needs) to a (vector, tag) row.

A walk that XORs one column per set bit, in any order, takes the top bit:
it builds one temporary per step and shortens the vector, where isolating
the low bit builds two as wide as the vector.  So does an enumeration of
set bits whose order is discarded (``bits_descending``; the serializer
sorts the ids it collects), and an ``echelon`` whose pivots need no
particular order keys its rows by ``int.bit_length``, the top bit plus one
(``invert_square``).  ``bits`` and ``clear_pivots`` stay ascending: witness
names follow ``bits``, and a ``clear_pivots`` row adds bits above its pivot
only.  ``apply_columns`` is the one column walk of ``mat_mul``,
``invert_square`` and ``commutator_witnesses``; ``invert_columns`` keeps
its own, which forms the inverse and the image through another map in one
pass.

All values are immutable after construction and every operation is a pure
function, so concurrent use needs no synchronization.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Gf2Matrix",
    "Gf2Subspace",
    "subspace_sum",
    "subspace_intersection",
    "bits",
    "bits_descending",
    "rref_rows",
    "echelon",
    "invert_square",
    "clear_pivots",
    "apply_columns",
    "commutator_witnesses",
    "invert_columns",
    "NotUnitriangularError",
]


def bits(v: int) -> Iterator[int]:
    """Yield the set bit positions of ``v`` in ascending order."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def bits_descending(v: int) -> list[int]:
    """The set bit positions of ``v`` in descending order, by the top-bit walk."""
    out = []
    while v:
        top = v.bit_length() - 1
        out.append(top)
        v ^= 1 << top
    return out


def rref_rows(rows: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form of a list of bitset rows.

    Returns ``(reduced_nonzero_rows, pivot_columns)``; pivots ascend and each
    pivot column is zero in every other row.  The result is the unique RREF
    of the row space, hence independent of the input order.
    """
    basis: list[int] = []  # kept sorted by pivot (ascending)
    pivots: list[int] = []
    for row in rows:
        # Reduce against the current basis.
        for piv, b in zip(pivots, basis):
            if (row >> piv) & 1:
                row ^= b
        if row == 0:
            continue
        piv = (row & -row).bit_length() - 1
        # Back-substitute into existing rows, then insert in pivot order.
        for i, b in enumerate(basis):
            if (b >> piv) & 1:
                basis[i] = b ^ row
        pos = bisect_left(pivots, piv)
        pivots.insert(pos, piv)
        basis.insert(pos, row)
    return tuple(basis), tuple(pivots)


def _lowest_bit(v: int) -> int:
    return (v & -v).bit_length() - 1


def echelon(
    pairs: Iterable[tuple[int, int]], pivot: Callable[[int], int] = _lowest_bit
) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Echelonize vectors while tracking which inputs each row sums.

    Each input is a pair (vector, tag); adding two rows adds their tags.
    ``pivot(v)`` is the set bit of ``v`` that comes last in one fixed order
    of the bit positions (by default the lowest set bit), or a one-to-one
    label of it (``int.bit_length`` labels the top bit as its position plus
    one), so adding a row at its pivot only sets earlier bits.  A vector is
    reduced at its pivot until that is no earlier row's pivot, where the row
    is kept, or the vector vanishes.  Returns ``(rows, dependents)``: the
    kept rows as pivot -> (vector, tag), and the tags of the inputs whose
    vector vanished, in input order.  With distinct one-bit tags,
    ``dependents`` is a basis of the relations among the vectors and the
    kept vectors are a basis of their span.
    """
    rows: dict[int, tuple[int, int]] = {}
    dependents: list[int] = []
    for v, tag in pairs:
        while v:
            piv = pivot(v)
            row = rows.get(piv)
            if row is None:
                rows[piv] = (v, tag)
                break
            v ^= row[0]
            tag ^= row[1]
        else:
            dependents.append(tag)
    return rows, dependents


def invert_square(cols: Sequence[int]) -> list[int] | None:
    """The columns of the inverse of the square matrix M with columns
    ``cols``, or None if M is singular.

    One ``echelon`` of the columns, column j tagged ``1 << j`` and each row
    keyed by ``int.bit_length`` (its top bit plus one), tests M: it is
    invertible iff no column vanishes.  Only then is the inverse formed.  The
    kept row with top bit p is ``(M . tag, tag)``, and ``M . tag`` is
    ``e_p`` plus lower bits, so from the bottom pivot up
    ``M^-1 e_p = tag + sum(M^-1 e_q for q below p in the row)``.
    """
    n = len(cols)
    rows, dependents = echelon(((col, 1 << j) for j, col in enumerate(cols)), int.bit_length)
    if dependents:
        return None
    inv = [0] * n
    for p in range(n):
        v, tag = rows[p + 1]
        inv[p] = tag ^ apply_columns(inv, v ^ (1 << p))
    return inv


def clear_pivots(rows: Mapping[int, tuple[int, int]], v: int) -> tuple[int, int]:
    """Reduce ``v`` by an ``echelon`` until none of its pivot bits is left.

    ``rows`` is an ``echelon`` with the default pivot: it maps each row's
    pivot, the lowest set bit of its vector, to the pair (vector, tag).
    Returns the remainder and the XOR of the tags of the rows added.  The
    remainder is the unique vector that differs from ``v`` by an element of
    the rows' span and has no pivot bit set, so it is 0 iff ``v`` lies in
    that span, and any echelon of the same span (its RREF too) leaves the
    same remainder.
    """
    tags = 0
    pending = v  # the bits of v not yet examined
    while pending:
        low = pending & -pending
        row = rows.get(low.bit_length() - 1)
        if row is None:
            pending ^= low
        else:
            v ^= row[0]
            tags ^= row[1]
            pending = v & -(low << 1)  # a row adds bits above its pivot only
    return v, tags


@dataclass(frozen=True)
class Gf2Matrix:
    """A rows x cols matrix over GF(2); ``rows[i]`` has bit ``j`` set iff entry (i, j) is 1.

    Every matrix built, ``mat_mul`` products included, is checked: ``n_rows``
    rows, none negative, none with a bit at ``n_cols`` or beyond.  The check
    reads only the smallest and the largest row.
    """

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.n_rows:
            raise ValueError("row count mismatch")
        rows = self.rows
        # a row with a bit at n_cols or beyond is at least 1 << n_cols
        if rows and (min(rows) < 0 or max(rows) >> self.n_cols):
            raise ValueError("row has bits beyond n_cols")

    @staticmethod
    def from_entries(n_rows: int, n_cols: int, entries: Iterable[tuple[int, int]]) -> "Gf2Matrix":
        rows = [0] * n_rows
        for i, j in entries:
            rows[i] ^= 1 << j
        return Gf2Matrix(n_rows, n_cols, tuple(rows))

    @staticmethod
    def identity(n: int) -> "Gf2Matrix":
        return Gf2Matrix(n, n, tuple(1 << i for i in range(n)))

    @staticmethod
    def zero(n_rows: int, n_cols: int) -> "Gf2Matrix":
        return Gf2Matrix(n_rows, n_cols, (0,) * n_rows)

    def mat_mul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.n_cols != other.n_rows:
            raise ValueError("dimension mismatch in matrix product")
        out = tuple(apply_columns(other.rows, r) for r in self.rows)
        return Gf2Matrix(self.n_rows, other.n_cols, out)

    def rank(self) -> int:
        return len(echelon((r, 0) for r in self.rows)[0])

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)


@dataclass(frozen=True)
class Gf2Subspace:
    """A subspace of GF(2)^ambient_dim with its unique reduced-echelon basis."""

    ambient_dim: int
    basis: tuple[int, ...]  # reduced echelon, ascending pivots; () for the zero space

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[int]) -> "Gf2Subspace":
        basis, _ = rref_rows(vectors)
        return Gf2Subspace(ambient_dim, basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: int) -> int:
        """Remainder of ``v`` after reduction against the basis (0 iff member)."""
        for b in self.basis:
            piv = (b & -b).bit_length() - 1
            if (v >> piv) & 1:
                v ^= b
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def contains_space(self, other: "Gf2Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)


def subspace_sum(u: Gf2Subspace, v: Gf2Subspace) -> Gf2Subspace:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Gf2Subspace.from_vectors(u.ambient_dim, u.basis + v.basis)


def subspace_intersection(u: Gf2Subspace, v: Gf2Subspace) -> Gf2Subspace:
    """Zassenhaus intersection.

    Stack rows ``(u, u)`` for the first space and ``(v, 0)`` for the second,
    eliminate on the first block; rows whose first block vanished carry the
    intersection in their second block.  Bits 0..n-1 hold the block being
    eliminated (rref pivots ascend, so it is cleared first), bits n..2n-1 the
    carried copy.
    """
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = u.ambient_dim
    mask = (1 << n) - 1
    stacked = [b | (b << n) for b in u.basis] + list(v.basis)
    reduced, _ = rref_rows(stacked)
    inter = [r >> n for r in reduced if (r & mask) == 0]
    return Gf2Subspace.from_vectors(n, inter)


def apply_columns(cols: Sequence[int], v: int) -> int:
    """Image of bitset vector ``v`` under the map with column bitsets ``cols``."""
    out = 0
    while v:
        top = v.bit_length() - 1
        out ^= cols[top]
        v ^= 1 << top
    return out


def commutator_witnesses(
    maps: Sequence[Sequence[int]], d: Sequence[int]
) -> list[tuple[int, int] | None]:
    """For each map in ``maps`` (column bitsets, like ``d``), the first column
    where it does not commute with ``d``, as ``(i, (d . a)[i] ^ (a . d)[i])``;
    None where they commute.

    The maps are stacked side by side, map ``c`` in bits ``c*n .. c*n+n-1``
    of ``K[t] = sum of a_c[t] << c*n``, so one walk of the bits of each
    column of ``d`` forms column ``i`` of every ``a . d`` at once.  Each
    ``d . a`` column is formed from the map's own bits and shifted into
    place, so ``d`` is never copied.
    """
    n = len(d)
    out: list[tuple[int, int] | None] = [None] * len(maps)
    if not maps:
        return out
    stacked = list(maps[-1])
    for a in reversed(maps[:-1]):
        stacked = [(s << n) | col for s, col in zip(stacked, a)]
    pending = len(maps)
    for i, (di, acols) in enumerate(zip(d, zip(*maps))):
        rhs = apply_columns(stacked, di)  # a . d, column i, every map
        lhs = 0  # d . a, column i, every map
        for ai in reversed(acols):
            lhs = (lhs << n) | apply_columns(d, ai)
        if lhs != rhs:
            diff = lhs ^ rhs
            mask = (1 << n) - 1
            for c in range(len(maps)):
                block = (diff >> (c * n)) & mask
                if block and out[c] is None:
                    out[c] = (i, block)
                    pending -= 1
            if not pending:
                break
    return out


class NotUnitriangularError(ValueError):
    """``invert_columns`` met a column that is not unitriangular in the order."""

    def __init__(self, column: int) -> None:
        super().__init__(f"column {column} is not unitriangular in the given order")
        self.column = column


def invert_columns(
    cols: Sequence[int], order: Sequence[int], through: Sequence[int]
) -> tuple[list[int], list[int]]:
    """``(inv, image)``: the columns of the inverse of a map that is
    unitriangular in ``order``, and of ``through`` composed with the map.

    ``order`` is a permutation of the slots, and column ``i`` must be
    ``1 << i`` plus slots that come strictly earlier in ``order``.  Then
    ``inv[i] = e_i + sum(inv[q] for q in column i minus e_i)`` is a
    substitution in that order, one XOR per off-diagonal entry, and the same
    walk forms ``image[i] = apply_columns(through, cols[i])``.  Raises
    ``ValueError`` if ``order`` is not a permutation, and its subclass
    ``NotUnitriangularError``, naming the column, if a column's latest entry
    in ``order`` is not its own slot.
    """
    n = len(cols)
    if sorted(order) != list(range(n)):
        raise ValueError("order is not a permutation of the slots")
    inv = [0] * n
    image = [0] * n
    done = 0  # bitset of slots already inverted
    for i in order:
        rest = cols[i] ^ (1 << i)
        if not (cols[i] >> i) & 1 or rest & ~done:
            raise NotUnitriangularError(i)
        v, w = 1 << i, through[i]
        while rest:
            top = rest.bit_length() - 1
            v ^= inv[top]
            w ^= through[top]
            rest ^= 1 << top
        inv[i], image[i] = v, w
        done |= 1 << i
    return inv, image
