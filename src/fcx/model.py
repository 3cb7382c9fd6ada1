"""Data model of a monotone Floer-type filtered cochain complex over GF(2).

A complex is a finite set of generators carrying an integer lifted degree
``n`` (whose residue mod the Maslov period gives the coarse periodic
grading), optionally a real action confined to the window
``(window_base, window_base + action_period)``, and a GF(2) differential
whose entries raise the lifted degree by ``k * period + 1`` for some
``k >= 0`` (the entry's *jump index*).  The decreasing filtration by lifted
degree is what every downstream computation (spectral pages, polynomial
invariants, products, cup actions) is built on.

Validation is exhaustive and returns a report rather than failing fast, so a
single pass lists every violated invariant with the offending ids.  That
pass is also the one place where differential entry ids are resolved to
generator indices: it yields the delta columns and the jump-0 columns
alongside the report, and everything downstream (cohomology, pages, the jump
and energy bounds) reads those columns.  Cup-class entries are resolved
likewise, once, by the cup-class validation.

The degree-graded cohomology eliminates each degree once with
``gf2.echelon``.  The rows it keeps are the next degree's image; the image
rows and the representatives stay on the ``CohomologyTable`` as one
pivot-keyed echelon, against which the cup actions decode any cocycle.  The
dimensions of both cohomologies, degree-graded and periodic (HF), are counted
from the barcode (``engine.Barcode.cohomology_dims``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Mapping,
    NamedTuple,
    Sequence,
    TypeVar,
)

from .gf2 import Gf2Matrix, apply_columns, bits, clear_pivots, echelon, rref_rows

if TYPE_CHECKING:  # imported only for type checkers; avoids a runtime cycle
    from .cup import CupClass, RingTable

_T = TypeVar("_T")

__all__ = [
    "FcxError",
    "InvalidComplexError",
    "EngineConsistencyError",
    "SizeGuardError",
    "MonotoneParams",
    "LiftedGenerator",
    "DifferentialEntry",
    "FloerComplexData",
    "ValidationReport",
    "CohomologyTable",
    "validate",
    "require_valid",
    "z_graded_cohomology",
    "expand_local",
    "jump0_columns",
]


class FcxError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidComplexError(FcxError):
    """Raised when an operation requires a valid complex but validation failed."""

    def __init__(self, report: "ValidationReport") -> None:
        super().__init__("invalid complex: " + "; ".join(report.errors))
        self.report = report


class EngineConsistencyError(FcxError):
    """An internal cross-check failed; indicates a bug in the engine, not in the input."""


class SizeGuardError(FcxError):
    """A size guard on a combinatorially explosive operation was exceeded."""


@dataclass(frozen=True)
class MonotoneParams:
    """Numeric frame of a monotone complex.

    ``maslov_period``  -- the positive integer period of the coarse grading
                          and the step of the filtration (minimal Maslov
                          number).  Values 1-2 are admitted only behind
                          ``allow_small_period`` and draw a warning.
    ``monotonicity``   -- the nonnegative proportionality constant tying
                          action drops to degree jumps; 0 means purely
                          algebraic mode (no actions allowed).
    ``window_base``    -- base of the preferred action window.
    ``half_dim``       -- optional ambient half-dimension, used only for
                          Betti comparison and report-text index shifts.
    """

    maslov_period: int
    monotonicity: float
    window_base: float = 0.0
    half_dim: int | None = None
    allow_small_period: bool = False

    @property
    def action_period(self) -> float:
        """Width of the action window; by monotonicity it is exactly monotonicity * period."""
        return self.monotonicity * self.maslov_period

    @property
    def action_tolerance(self) -> float:
        """Absolute tolerance for every action comparison."""
        return 1e-9 * max(1.0, self.action_period)

    def residue(self, n: int) -> int:
        return n % self.maslov_period


@dataclass(frozen=True)
class LiftedGenerator:
    """A generator with its integer lifted degree and optional window action."""

    uid: str
    degree: int
    action: float | None = None


class DifferentialEntry(NamedTuple):
    """One GF(2) entry of the differential: coefficient 1 from src to dst.

    A named ``(src, dst)`` pair: it is immutable and hashable, and it
    compares and sorts as the plain tuple, so by ``(src, dst)``.
    """

    src: str
    dst: str


@dataclass(frozen=True)
class CohomologyTable:
    """Dimensions and representative bases of the degree-graded cohomology.

    ``dims`` maps lifted degree to dimension and stores only the nonzero
    entries.  Representatives are bitset vectors over the canonical generator
    order.

    Per degree, the table also keeps the echelon its elimination built (the
    image rows and the representatives, keyed by pivot) outside ``repr`` and
    equality; ``coordinates`` decodes a cocycle against it.
    """

    dims: tuple[tuple[int, int], ...]
    representatives: tuple[tuple[int, tuple[int, ...]], ...] = ()
    _echelon: Mapping[int, Mapping[int, tuple[int, int]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def coordinates(self, key: int, v: int) -> int | None:
        """The class of the ambient vector ``v`` in piece ``key``: bit i is its
        coefficient on representative i.  None if ``v`` is not a cocycle there."""
        rest, tags = clear_pivots(self._echelon.get(key, {}), v)
        return None if rest else tags

    def as_dict(self) -> dict[int, int]:
        return dict(self.dims)


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def _sorted_generators(gens: Iterable[LiftedGenerator]) -> tuple[LiftedGenerator, ...]:
    return tuple(sorted(gens, key=attrgetter("degree", "uid")))


@dataclass(frozen=True)
class FloerComplexData:
    """A complete monotone complex; immutable, with canonical internal ordering.

    Generators are stored sorted by (degree, uid) and differential entries by
    (src, dst), their native tuple order, so structural equality is
    canonical-form equality.  Optional cup-class data parsed from the same
    document rides along untouched; the cup operations interpret it.

    Derived data (index map, validation report with the delta and jump-0
    columns its one pass over the entries builds, degree-graded
    cohomology, canonical form, default page table) is memoized per
    instance by ``cached``; it takes no part in equality or hashing and is
    freed together with the complex.  Only the two validators, of the
    differential and of a cup class, read the index map; all other code
    reads the columns they build.
    """

    params: MonotoneParams
    generators: tuple[LiftedGenerator, ...]
    delta: tuple[DifferentialEntry, ...]
    cup_classes: tuple["CupClass", ...] = ()
    ring: "RingTable | None" = None
    _memo: dict[str, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", _sorted_generators(self.generators))
        object.__setattr__(self, "delta", tuple(sorted(self.delta)))
        object.__setattr__(self, "cup_classes", tuple(self.cup_classes))

    def cached(self, key: str, compute: Callable[["FloerComplexData"], _T]) -> _T:
        """``compute(self)``, evaluated at most once per instance under ``key``.

        The fields are frozen, so anything computed from them alone stays
        valid for the life of the instance.
        """
        memo = self._memo
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = compute(self)
            return value

    @property
    def count(self) -> int:
        return len(self.generators)

    def index_map(self) -> Mapping[str, int]:
        """Map uid -> generator index (the last one for a repeated uid)."""
        return self.cached("index_map", _index_map)

    def delta_columns(self) -> list[int]:
        """delta as columns: column i is the bitset of targets of generator i.

        Built by the validation pass from every entry whose two ids resolve,
        valid or not, so a repeated entry cancels.  Returns a fresh list.
        """
        return list(self.cached("validate", _validate)[1])

    def degree_groups(self) -> dict[int, list[int]]:
        """Map degree -> ascending generator indices at that degree."""
        groups: dict[int, list[int]] = {}
        for i, g in enumerate(self.generators):
            groups.setdefault(g.degree, []).append(i)
        return groups


def _index_map(c: FloerComplexData) -> Mapping[str, int]:
    return {g.uid: i for i, g in enumerate(c.generators)}


def validate(c: FloerComplexData) -> ValidationReport:
    """Check every structural invariant; returns a complete report.

    Errors make the complex unusable downstream; warnings do not.  The
    report is computed once per instance, by the same pass over the entries
    that builds the delta and jump-0 columns.
    """
    return c.cached("validate", _validate)[0]


def _validate(
    c: FloerComplexData,
) -> tuple[ValidationReport, tuple[int, ...], tuple[int, ...]]:
    errors: list[str] = []
    warnings: list[str] = []
    p = c.params
    period = p.maslov_period
    tol = p.action_tolerance

    if period < 1:
        errors.append(f"maslov period must be a positive integer, got {period}")
    elif period < 3:
        if p.allow_small_period:
            warnings.append(
                f"maslov period {period} is below 3; degree-graded theory is "
                "admitted only under the explicit override and carries no "
                "correctness claim"
            )
        else:
            errors.append(
                f"maslov period {period} is below 3 and the small-period "
                "override flag is not set"
            )
    if p.monotonicity < 0:
        errors.append(f"monotonicity constant must be nonnegative, got {p.monotonicity}")

    seen: dict[str, int] = {}
    for i, g in enumerate(c.generators):
        if g.uid in seen:
            errors.append(f"duplicate generator id '{g.uid}'")
        else:
            seen[g.uid] = i

    any_action = any(g.action is not None for g in c.generators)
    if any_action and p.monotonicity <= 0:
        errors.append("actions are present but monotonicity is 0 (algebraic mode only)")
    elif p.monotonicity > 0:
        lo = p.window_base
        hi = p.window_base + p.action_period
        for g in c.generators:
            if g.action is None:
                continue
            if not (g.action - lo > tol and hi - g.action > tol):
                errors.append(
                    f"generator '{g.uid}' action {g.action} outside the open "
                    f"window ({lo}, {hi})"
                )

    # Entries are sorted by (src, dst), so a repeated entry follows its first.
    # Every entry whose ids resolve enters the delta columns, so a repeated
    # one cancels; only an entry that passes the degree check with k == 0
    # enters the jump-0 columns.
    idx = c.index_map()
    gens = c.generators
    cols = [0] * c.count
    cols0 = [0] * c.count
    previous: DifferentialEntry | None = None
    for e in c.delta:
        src, dst = e
        s = idx.get(src)
        if s is None:
            errors.append(f"differential entry references unknown source '{src}'")
            continue
        t = idx.get(dst)
        if t is None:
            errors.append(f"differential entry references unknown target '{dst}'")
            continue
        cols[s] ^= 1 << t
        if e == previous:
            errors.append(f"duplicate differential entry ({src} -> {dst})")
            continue
        previous = e
        if period < 1:
            continue
        diff = gens[t].degree - gens[s].degree
        if diff < 1 or (diff - 1) % period != 0:
            errors.append(
                f"entry ({src} -> {dst}) has degree jump {diff}, not of the "
                f"form k*{period}+1 with k >= 0"
            )
            continue
        k = (diff - 1) // period
        if k == 0:
            cols0[s] ^= 1 << t
        a_src = gens[s].action
        a_dst = gens[t].action
        if a_src is not None and a_dst is not None and p.monotonicity > 0:
            # Window-confined lifts determine the action difference only up
            # to deck translates: it must be -monotonicity for even k and
            # action_period - monotonicity for odd k (the unique in-window
            # representatives of k*sigma - lambda modulo 2*sigma).
            expected = (
                -p.monotonicity if k % 2 == 0 else p.action_period - p.monotonicity
            )
            got = a_dst - a_src
            if abs(got - expected) > tol:
                errors.append(
                    f"entry ({src} -> {dst}) action difference {got} "
                    f"inconsistent with jump index {k} (expected {expected})"
                )

    # Differential squares to zero over GF(2) on the full complex.
    if not errors:
        for i, col in enumerate(cols):
            acc = apply_columns(cols, col)
            if acc:
                witness = next(bits(acc))
                errors.append(
                    f"differential does not square to zero: starting at "
                    f"'{gens[i].uid}' it reaches '{gens[witness].uid}' twice"
                )
    return ValidationReport(tuple(errors), tuple(warnings)), tuple(cols), tuple(cols0)


def require_valid(c: FloerComplexData) -> None:
    report = validate(c)
    if not report.ok:
        raise InvalidComplexError(report)


def _local_matrix(
    cols: list[int], src_indices: list[int], dst_indices: list[int]
) -> Gf2Matrix:
    """Submatrix of the column map restricted to given source/target indices."""
    dst_pos = {g: r for r, g in enumerate(dst_indices)}
    entries = []
    for j, s in enumerate(src_indices):
        for t in bits(cols[s]):
            r = dst_pos.get(t)
            if r is not None:
                entries.append((r, j))
    return Gf2Matrix.from_entries(len(dst_indices), len(src_indices), entries)


def expand_local(vec: int, indices: list[int]) -> int:
    """Lift a local bitset vector to ambient generator coordinates."""
    out = 0
    for b in bits(vec):
        out |= 1 << indices[b]
    return out


def jump0_columns(c: FloerComplexData) -> Sequence[int]:
    """delta restricted to its jump-0 entries, as columns (see ``delta_columns``).

    Requires a valid complex.  The columns come from the validation pass,
    once per instance, and are shared: do not modify them.
    """
    require_valid(c)
    return c.cached("validate", _validate)[2]


def z_graded_cohomology(c: FloerComplexData) -> CohomologyTable:
    """Cohomology of the degree-graded complex under the jump-0 part alone.

    The jump-0 component is the only part of the differential that preserves
    the integer grading shift by exactly 1; higher-jump entries are invisible
    here and only act on later spectral pages.  Each degree's jump-0 columns
    are eliminated once (see ``_graded_cohomology``).  The table is computed
    once per instance, for its representatives and ``coordinates``; its
    dimensions are page 1, which ``Barcode.cohomology_dims`` counts.
    """
    return c.cached("z_graded_cohomology", _graded_cohomology)


def _graded_cohomology(c: FloerComplexData) -> CohomologyTable:
    """Cohomology of the jump-0 columns, one degree at a time, ascending.

    A jump-0 column of a generator of degree n lies in degree n + 1, so the
    columns need no restriction to a target degree, and one ``echelon`` of a
    degree's columns, in ambient coordinates and each tagged with its
    generator, gives both the degree's kernel (the tags of the columns that
    vanish) and the image that degree n + 1 divides by (the kept rows, their
    tags set to 0).  The kernel is put in reduced echelon form, which is
    unique, so the representatives do not depend on the elimination order;
    the image needs no such form, because every echelon of a span leaves the
    same remainders (see ``clear_pivots``).  A kernel vector's remainder by
    the image rows and the representatives so far, if nonzero, is the next
    representative; it joins the rows tagged with its index, and the rows are
    kept on the table.
    """
    cols = jump0_columns(c)
    images: dict[int, dict[int, tuple[int, int]]] = {}
    dims: list[tuple[int, int]] = []
    reps_out: list[tuple[int, tuple[int, ...]]] = []
    for degree, members in c.degree_groups().items():
        kept, dependents = echelon((cols[s], 1 << s) for s in members)
        images[degree + 1] = {p: (v, 0) for p, (v, _) in kept.items()}
        rows = images.setdefault(degree, {})
        reps: list[int] = []
        for v in rref_rows(dependents)[0]:
            w, _ = clear_pivots(rows, v)
            if w:
                rows[(w & -w).bit_length() - 1] = (w, 1 << len(reps))
                reps.append(w)
        if reps:
            dims.append((degree, len(reps)))
            reps_out.append((degree, tuple(reps)))
    return CohomologyTable(tuple(dims), tuple(reps_out), images)
