"""Polynomial and numerical invariants of the spectral pages.

Covers the Poincare-Laurent polynomial of any page, the Euler number, the
decomposition of page polynomials into per-page rank contributions, window
rebasing (how the preferred integer lifts depend on the action window base),
collapse-page bounds from the jump spectrum or from an energy budget, and
comparison against a closed-manifold Betti vector.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass

from .engine import PageTable, canonical_form, pages
from .gf2 import bits
from .model import (
    EngineConsistencyError,
    FcxError,
    FloerComplexData,
    LiftedGenerator,
    require_valid,
)

__all__ = [
    "LaurentPoly",
    "EulerReport",
    "DecompositionReport",
    "EnergyBoundReport",
    "BettiReport",
    "poincare_laurent",
    "euler_number",
    "q_decomposition",
    "rebase",
    "collapse_bound_from_jumps",
    "collapse_bound_from_energy",
    "betti_compare",
]


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial with nonnegative integer coefficients.

    Stored as sorted (exponent, coefficient) pairs with zero coefficients
    absent, so equality is coefficient-map equality.
    """

    coeffs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        cleaned = tuple(sorted((e, c) for e, c in self.coeffs if c != 0))
        for _, c in cleaned:
            if c < 0:
                raise ValueError("coefficients must be nonnegative integers")
        object.__setattr__(self, "coeffs", cleaned)

    @staticmethod
    def from_dict(d: dict[int, int]) -> "LaurentPoly":
        return LaurentPoly(tuple(d.items()))

    @staticmethod
    def monomial(exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return LaurentPoly(((exponent, coefficient),))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def add(self, other: "LaurentPoly") -> "LaurentPoly":
        d = self.as_dict()
        for e, c in other.coeffs:
            d[e] = d.get(e, 0) + c
        return LaurentPoly.from_dict(d)

    def mul(self, other: "LaurentPoly") -> "LaurentPoly":
        d: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly.from_dict(d)

    def shift(self, exponent: int) -> "LaurentPoly":
        """Multiply by t**exponent."""
        return LaurentPoly(tuple((e + exponent, c) for e, c in self.coeffs))

    def serialize(self) -> str:
        """Space-separated ``exponent:coefficient`` pairs, ascending; '' if zero."""
        return " ".join(f"{e}:{c}" for e, c in self.coeffs)

    __str__ = serialize  # the TSV form

    def display(self) -> str:
        """Human form: '0' when zero, else e.g. 't^-2 + 2*t^0 + t^5'."""
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.coeffs:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}t^{e}")
        return " + ".join(parts)


@dataclass(frozen=True)
class EulerReport:
    """Euler number of one page, with any applicability warnings."""

    chi: int
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class DecompositionReport:
    """Rank decomposition of the page polynomials.

    ``k_max`` is the collapse page minus one; ``qbars[i-1]`` counts, by target
    degree, the rank of the page-i differential; ``hf_poly`` grades the
    surviving limit classes by their filtration level.  The defining identity
    P(page l) = sum_{i >= l} (1 + t^(-i*period-1)) * qbar_i + hf_poly
    holds exactly for every l between 1 and k_max and is
    verified at construction time.
    """

    k_max: int
    qbars: tuple[LaurentPoly, ...]
    hf_poly: LaurentPoly


@dataclass(frozen=True)
class EnergyBoundReport:
    """Collapse bound from an energy budget, with feasibility diagnostics."""

    bound: int
    infeasible_entries: tuple[str, ...] = ()


@dataclass(frozen=True)
class BettiReport:
    """Comparison of the degree-graded cohomology against a Betti vector.

    Both outcomes are reported facts, not validation errors: ``matches`` is
    the sharp prediction dim I_n = betti[n + m] for every n, and
    ``floer_bound_holds`` the weaker generator-count lower bound.
    """

    matches: bool
    mismatches: tuple[str, ...]
    floer_bound_holds: bool
    generator_count: int
    betti_sum: int


def poincare_laurent(table: PageTable, k: int) -> LaurentPoly:
    """Poincare-Laurent polynomial of page k: sum over levels of dim * t^level.

    One polynomial per run of equal pages is built once per table, from its
    page dimensions, and page k reads that of its run.
    """
    if k < 1:
        raise FcxError(f"pages are indexed from 1, got {k}")
    return table.cached("poincare_laurent", _run_polynomials)[table.run(k)]


def _run_polynomials(table: PageTable) -> tuple[LaurentPoly, ...]:
    return tuple(
        LaurentPoly.from_dict({n: d for (n, _j), d in table.page(k).items()})
        for k in table.starts
    )


def euler_number(table: PageTable, k: int) -> EulerReport:
    """Euler number chi(page k) = P(page k, -1): the dimensions of page k,
    summed with the sign (-1)^level.

    For odd periods the page-independence of chi is not guaranteed (the
    endpoint degrees of a dipole can share parity), so a warning is attached.
    """
    chi = sum(-c if e % 2 else c for e, c in poincare_laurent(table, k).coeffs)
    warnings: tuple[str, ...] = ()
    if table.params.maslov_period % 2 == 1:
        warnings = (
            "period is odd: the Euler number may depend on the page and is "
            "not guaranteed to equal the alternating sum of limit dimensions",
        )
    return EulerReport(chi, warnings)


def q_decomposition(c: FloerComplexData) -> DecompositionReport:
    """Split the page polynomials into per-page rank contributions.

    qbar_i collects one t^(target level) per dipole of jump index i; the
    source contributes the matching t^(target level - i*period - 1) term,
    which is exactly the (1 + t^(-i*period-1)) factor of the identity.  Both
    sides are read from the barcode, the page polynomials through the page
    table's runs; the identity is re-verified on integer level counts for
    each page 1..k_max (one qbar per page), raising an internal error if not.
    """
    barcode = canonical_form(c).barcode
    table = pages(c)
    period = c.params.maslov_period
    k_max = table.collapse_page - 1

    qcounts = [Counter() for _ in range(k_max)]
    for _n_src, n_dst, i in barcode.dipoles:
        if i >= 1:
            qcounts[i - 1][n_dst] += 1
    free = Counter(barcode.free)

    # tails[m]: the right-hand side's level counts for page l = k_max + 1 - m,
    # summed from the top jump down, so each term is added once
    tails = [free]
    for i in range(k_max, 0, -1):
        level = tails[-1].copy()
        level.update(qcounts[i - 1])
        level.update({n - i * period - 1: m for n, m in qcounts[i - 1].items()})
        tails.append(level)
    for l in range(1, max(1, k_max) + 1):
        got = poincare_laurent(table, l)
        expect = tails[k_max + 1 - l]
        if got.as_dict() != expect:
            raise EngineConsistencyError(
                f"rank decomposition identity failed at page {l}: "
                f"page polynomial {got.serialize() or '0'} != "
                f"decomposition {LaurentPoly.from_dict(expect).serialize() or '0'}"
            )
    qbars = tuple(LaurentPoly.from_dict(q) for q in qcounts)
    return DecompositionReport(k_max, qbars, LaurentPoly.from_dict(free))


def rebase(c: FloerComplexData, r_new: float) -> FloerComplexData:
    """Recompute every generator's preferred lift for a new window base.

    Each action is translated into (r_new, r_new + action_period) by a whole
    number of periods; the lifted degree moves oppositely by the degree
    period per step, so rebasing by exactly +action_period lowers every
    degree by one degree period.  Jump indices are re-derived downstream from
    the moved degrees; the result is re-validated (a jump-0 entry whose
    endpoints straddle a new window seam leaves the admissible jump range,
    which surfaces as a validation error on the rebased complex).
    """
    require_valid(c)
    if not math.isfinite(r_new):
        raise FcxError(f"window base must be a finite number, got {r_new}")
    p = c.params
    if p.monotonicity <= 0:
        raise FcxError("rebase requires a positive monotonicity constant")
    missing = [g.uid for g in c.generators if g.action is None]
    if missing:
        raise FcxError(
            "rebase requires an action for every generator; missing: "
            + ", ".join(sorted(missing))
        )
    sigma = p.action_period
    tol = p.action_tolerance
    for g in c.generators:
        d = (g.action - r_new) % sigma
        if min(d, sigma - d) <= tol:
            raise FcxError(
                f"window base {r_new} is not regular: the action of "
                f"'{g.uid}' lies on a window seam"
            )

    new_gens = []
    for g in c.generators:
        q = math.floor((g.action - r_new) / sigma)
        new_gens.append(
            LiftedGenerator(
                g.uid,
                g.degree + q * p.maslov_period,
                g.action - q * sigma,
            )
        )
    out = FloerComplexData.from_columns(
        dataclasses.replace(p, window_base=r_new),
        new_gens,
        c.delta_columns(),
        c.cup_classes,
        c.ring,
    )
    require_valid(out)
    return out


def collapse_bound_from_jumps(c: FloerComplexData) -> int:
    """Upper-bound estimate for the collapse page from raw entry jumps.

    Returns 1 + the maximal jump index over the differential entries as
    given (1 for an empty differential).  Generators are sorted by degree,
    so the top bit of a delta column is its farthest target.  The entries
    are in the input basis; the canonical form can pair generators farther
    apart than any single entry, so the estimate can undershoot the true
    collapse page on some complexes (see collapse_page for the exact value).
    """
    require_valid(c)
    deg = [g.degree for g in c.generators]
    cols = enumerate(c.delta_columns())
    span = max((deg[col.bit_length() - 1] - deg[s] for s, col in cols if col), default=1)
    return (span - 1) // c.params.maslov_period + 1


def collapse_bound_from_energy(c: FloerComplexData, energy: float) -> EnergyBoundReport:
    """Collapse bound from an energy budget: least bound with energy < bound * period width.

    When every generator carries an action, each entry of jump index k
    implies a trajectory action drop of k*action_period - monotonicity;
    entries whose implied drop reaches the budget are reported, by (src,
    dst), as evidence the supplied budget is infeasible for this complex.
    No inference in the reverse direction (from the collapse page back to an
    energy) is made.
    """
    require_valid(c)
    p = c.params
    if p.monotonicity <= 0:
        raise FcxError("the energy bound requires a positive monotonicity constant")
    if not 0 < energy < math.inf:
        raise FcxError(f"energy must be a positive finite number, got {energy}")
    sigma = p.action_period
    bound = math.floor(energy / sigma) + 1

    infeasible: list[tuple[str, str, int]] = []
    gens = c.generators
    if all(g.action is not None for g in gens):
        for s, col in enumerate(c.delta_columns()):
            for t in bits(col):
                k = (gens[t].degree - gens[s].degree - 1) // p.maslov_period
                if k * sigma - p.monotonicity >= energy - p.action_tolerance:
                    infeasible.append((gens[s].uid, gens[t].uid, k))
    messages = tuple(
        f"entry ({src} -> {dst}) of jump index {k} implies an action drop "
        f"{k * sigma - p.monotonicity}, at or above the budget {energy}"
        for src, dst, k in sorted(infeasible)
    )
    return EnergyBoundReport(bound, messages)


def betti_compare(
    c: FloerComplexData, betti: tuple[int, ...], m: int
) -> BettiReport:
    """Compare degree-graded cohomology with a Betti vector b_0..b_m.

    The cohomology dimensions are page 1 of the page table.

    The sharp regime predicts dim I_n = b_(n+m) for every n (zero outside
    -m..0); independently, the generator count is tested against the sum of
    the Betti numbers.
    """
    if m < 0:
        raise FcxError(f"the half-dimension m must be at least 0, got {m}")
    negative = next((i for i, b in enumerate(betti) if b < 0), None)
    if negative is not None:
        raise FcxError(
            f"Betti numbers must be at least 0, got b_{negative} = {betti[negative]}"
        )
    table = pages(c)
    if len(betti) != m + 1:
        raise FcxError(
            f"expected {m + 1} Betti numbers b_0..b_{m}, got {len(betti)}"
        )
    if c.params.half_dim is not None and c.params.half_dim != m:
        raise FcxError(
            f"half-dimension mismatch: complex declares {c.params.half_dim}, "
            f"comparison uses {m}"
        )
    dims = {n: d for (n, _j), d in table.page(1).items()}
    mismatches: list[str] = []
    candidates = sorted(set(range(-m, 1)) | dims.keys())
    for n in candidates:
        got = dims.get(n, 0)
        want = betti[n + m] if -m <= n <= 0 else 0
        if got != want:
            mismatches.append(
                f"degree {n}: cohomology dim {got}, Betti prediction {want}"
            )
    betti_sum = sum(betti)
    return BettiReport(
        matches=not mismatches,
        mismatches=tuple(mismatches),
        floer_bound_holds=c.count >= betti_sum,
        generator_count=c.count,
        betti_sum=betti_sum,
    )
