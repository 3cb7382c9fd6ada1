"""Tensor products of monotone complexes and product formula checks.

The product of two complexes with the same period and monotonicity constant
has one generator per ordered pair (degrees add, ids join with ``*``), the
GF(2) Leibniz differential, and no actions (summed actions would inhabit a
window of twice the width, and re-pinning them would silently relabel the
integer lifts -- the product grading is the sum of the factors' lifts,
verbatim).  The product is built in one pass, in its canonical generator
order by (degree, id), so ``FloerComplexData`` finds it sorted and moves no
column; its provenance stays in factor order, pair (i, j) at i*|B| + j.
The factors are validated; the product is not walked for delta^2 = 0, which
its factors imply and its reduction (``engine.pages``) proves.
Page dimensions of the product are then the degree-wise convolutions of the
factors' page dimensions, and the page polynomials of an s-fold power are
s-th powers; both statements are checked cell-exactly here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .engine import pages
from .gf2 import bits
from .invariants import LaurentPoly, poincare_laurent
from .model import (
    FcxError,
    FloerComplexData,
    LiftedGenerator,
    SizeGuardError,
    require_valid,
)

__all__ = [
    "TensorComplex",
    "KunnethReport",
    "PowerReport",
    "tensor_product",
    "kunneth_check",
    "power_poincare_check",
]

_MAX_POWER = 4
_MAX_POWER_BASE = 32


@dataclass(frozen=True)
class TensorComplex:
    """A product complex with provenance: (product id, left id, right id)."""

    complex: FloerComplexData
    factor_ids: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class KunnethReport:
    """Cell-by-cell comparison of product pages against the convolution.

    ``cells`` lists every compared nonzero spot as
    (page, level, residue, product dim, convolved dim); ``failures`` the
    subset that disagreed, as human-readable lines.
    """

    max_page_checked: int
    cells: tuple[tuple[int, int, int, int, int], ...]
    failures: tuple[str, ...]
    product: TensorComplex

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class PowerReport:
    """Polynomial identity check for an s-fold tensor power at one page."""

    s: int
    k: int
    product_poly: LaurentPoly
    factor_poly_power: LaurentPoly

    @property
    def passed(self) -> bool:
        return self.product_poly == self.factor_poly_power


def _require_matching(a: FloerComplexData, b: FloerComplexData) -> None:
    pa, pb = a.params, b.params
    if pa.maslov_period != pb.maslov_period:
        raise FcxError(
            f"tensor factors must share the period: {pa.maslov_period} != "
            f"{pb.maslov_period}"
        )
    # Equal up to float rounding: the tolerance of every action comparison.
    tol = max(pa.action_tolerance, pb.action_tolerance)
    if abs(pa.monotonicity - pb.monotonicity) > tol:
        raise FcxError(
            f"tensor factors must share the monotonicity constant: "
            f"{pa.monotonicity} != {pb.monotonicity}"
        )


def tensor_product(a: FloerComplexData, b: FloerComplexData) -> TensorComplex:
    """Ordered tensor product over GF(2) with the Leibniz differential.

    The generators and columns are built in the canonical order by (degree,
    id), ties in factor order, each column straight from the factors'
    target lists; ``factor_ids`` lists the pairs in factor order, (i, j)
    for i over ``a`` and j over ``b``.  Both factors are validated, and the
    product is not: the Leibniz differential squares to zero whenever the
    factors' do, and the reduction that reads the product's pages runs its
    structural checks and proves delta^2 = 0 again.  A caller that needs the
    product valid without reducing it calls ``require_valid``.
    """
    require_valid(a)
    require_valid(b)
    _require_matching(a, b)
    return _tensor(a, b)


def _tensor(a: FloerComplexData, b: FloerComplexData) -> TensorComplex:
    """The product of ``tensor_product``, for factors already validated and
    matched."""
    pa, pb = a.params, b.params
    half_dim = (
        pa.half_dim + pb.half_dim
        if pa.half_dim is not None and pb.half_dim is not None
        else None
    )
    params = dataclasses.replace(
        pa,
        window_base=pa.window_base + pb.window_base,
        half_dim=half_dim,
        allow_small_period=pa.allow_small_period or pb.allow_small_period,
    )

    # Pair (i, j) is ``f = i*nb + j`` in factor order, the order of the
    # provenance.  ``order`` is the canonical order, as the stable sort of
    # ``FloerComplexData`` would leave it, and ``pos[f]`` the canonical index
    # of pair f.
    nb = b.count
    provenance = [(f"{x}*{y}", x, y) for x in a.uids for y in b.uids]
    uids = [uid for uid, _, _ in provenance]
    degrees = [ga.degree + gb.degree for ga in a.generators for gb in b.generators]
    # Ids may hold ``*``: ``p`` with ``q*r`` and ``p*q`` with ``r`` both give
    # ``p*q*r``.  Two ids can collide so only if each factor has an id with a ``*``.
    if any("*" in g.uid for g in a.generators) and any("*" in g.uid for g in b.generators):
        pairs: dict[str, tuple[str, str]] = {}
        for uid, x, y in provenance:
            first = pairs.setdefault(uid, (x, y))
            if first != (x, y):
                raise FcxError(
                    f"tensor product id '{uid}' joins two factor pairs: "
                    f"'{first[0]}' * '{first[1]}' and '{x}' * '{y}'"
                )
    order = sorted(range(len(uids)), key=list(zip(degrees, uids)).__getitem__)
    gens = [LiftedGenerator(uids[f], degrees[f]) for f in order]
    pos = [0] * len(order)
    for k, f in enumerate(order):
        pos[f] = k

    # d(a_i * b_j) = da_i * b_j + a_i * db_j: the targets of pair (i, j) are
    # the pairs (t, j) for t in da_i and (i, u) for u in db_j.  ``row[i]``
    # holds the canonical indices of the pairs (i, *), ``column[j]`` those
    # of the pairs (*, j).
    targets_a = [list(bits(col)) for col in a.delta_columns()]
    targets_b = [list(bits(col)) for col in b.delta_columns()]
    row = [pos[i * nb : (i + 1) * nb] for i in range(a.count)]
    column = [pos[j::nb] for j in range(nb)]
    cols = [0] * len(pos)
    for i, ta in enumerate(targets_a):
        here = row[i]
        for j, tb in enumerate(targets_b):
            there = column[j]
            v = 0
            for t in ta:
                v |= 1 << there[t]
            for u in tb:
                v |= 1 << here[u]
            cols[here[j]] = v
    product = FloerComplexData.from_columns(params, gens, cols)
    return TensorComplex(product, tuple(provenance))


def kunneth_check(
    a: FloerComplexData, b: FloerComplexData, upto: int | None = None
) -> KunnethReport:
    """Verify the product formula cell-exactly on every page through stabilization.

    For each page k (up to the largest collapse page of the three complexes
    involved, capped by ``upto``), the product's cell dimension at (n, j)
    must equal the convolution sum over split levels n1 + n2 = n of the
    factors' cell dimensions.
    """
    tensor = tensor_product(a, b)
    period = a.params.maslov_period
    ta, tb = pages(a), pages(b)
    tp = pages(tensor.complex)

    k_top = max(ta.collapse_page, tb.collapse_page, tp.collapse_page)
    if upto is not None:
        k_top = max(1, min(k_top, upto))

    cells: list[tuple[int, int, int, int, int]] = []
    failures: list[str] = []
    for k in range(1, k_top + 1):
        da, db, dp = ta.page(k), tb.page(k), tp.page(k)
        expected: dict[tuple[int, int], int] = {}
        for (n1, j1), d1 in da.items():
            for (n2, j2), d2 in db.items():
                key = (n1 + n2, (j1 + j2) % period)
                expected[key] = expected.get(key, 0) + d1 * d2
        for key in sorted(set(expected) | set(dp)):
            got = dp.get(key, 0)
            want = expected.get(key, 0)
            cells.append((k, key[0], key[1], got, want))
            if got != want:
                failures.append(
                    f"page {k} cell (n={key[0]}, j={key[1]}): product dim "
                    f"{got} != convolved dim {want}"
                )
    return KunnethReport(k_top, tuple(cells), tuple(failures), tensor)


def power_poincare_check(a: FloerComplexData, s: int, k: int) -> PowerReport:
    """Check that the page-k polynomial of the s-fold power is the s-th power.

    Guarded: s between 2 and 4, factor at most 32 generators.  Only the
    factor is validated: each power is a product of valid complexes, and the
    reduction of the last proves its delta^2 = 0.
    """
    require_valid(a)
    if s < 2:
        raise FcxError(f"power exponent must be at least 2, got {s}")
    if s > _MAX_POWER or a.count > _MAX_POWER_BASE:
        raise SizeGuardError(
            f"tensor power guard: need s <= {_MAX_POWER} and at most "
            f"{_MAX_POWER_BASE} generators, got s={s} with {a.count} generators"
        )
    if k < 1:
        raise FcxError(f"pages are indexed from 1, got {k}")

    power = a
    for _ in range(s - 1):
        power = _tensor(power, a).complex

    lhs = poincare_laurent(pages(power), k)
    base = poincare_laurent(pages(a), k)
    rhs = LaurentPoly.monomial(0)
    for _ in range(s):
        rhs = rhs.mul(base)
    return PowerReport(s, k, lhs, rhs)
