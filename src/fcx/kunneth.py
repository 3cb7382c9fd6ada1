"""Tensor products of monotone complexes and product formula checks.

The product of two complexes with the same period and monotonicity constant
has one generator per ordered pair (degrees add, ids join with ``*``), the
GF(2) Leibniz differential, and no actions (summed actions would inhabit a
window of twice the width, and re-pinning them would silently relabel the
integer lifts -- the product grading is the sum of the factors' lifts,
verbatim).  Page dimensions of the product are then the degree-wise
convolutions of the factors' page dimensions, and the page polynomials of an
s-fold power are s-th powers; both statements are checked cell-exactly here.
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
    validate,
    EngineConsistencyError,
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
    """Ordered tensor product over GF(2) with the Leibniz differential."""
    require_valid(a)
    require_valid(b)
    _require_matching(a, b)
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

    gens: list[LiftedGenerator] = []
    provenance: list[tuple[str, str, str]] = []
    for ga in a.generators:
        for gb in b.generators:
            uid = f"{ga.uid}*{gb.uid}"
            gens.append(LiftedGenerator(uid, ga.degree + gb.degree, None))
            provenance.append((uid, ga.uid, gb.uid))
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

    # Generator (i, j) has index i*nb + j here, so d(a_i * b_j) = da_i * b_j
    # + a_i * db_j is the column ``spread[i] << j | cols_b[j] << i*nb``:
    # ``spread[i]`` moves each target t of a_i to bit t*nb.
    nb = b.count
    cols_b = b.delta_columns()
    spread = [sum(1 << (t * nb) for t in bits(col)) for col in a.delta_columns()]
    cols = [
        (spread[i] << j) | (cols_b[j] << (i * nb))
        for i in range(a.count)
        for j in range(nb)
    ]
    product = FloerComplexData.from_columns(params, gens, cols)
    report = validate(product)
    if not report.ok:
        raise EngineConsistencyError(
            "tensor product failed validation: " + "; ".join(report.errors)
        )
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

    Guarded: s between 2 and 4, factor at most 32 generators.
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
        power = tensor_product(power, a).complex

    lhs = poincare_laurent(pages(power), k)
    base = poincare_laurent(pages(a), k)
    rhs = LaurentPoly.monomial(0)
    for _ in range(s):
        rhs = rhs.mul(base)
    return PowerReport(s, k, lhs, rhs)
