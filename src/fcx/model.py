"""Data model of a monotone Floer-type filtered cochain complex over GF(2).

A complex is a finite set of generators carrying an integer lifted degree
``n`` (whose residue mod the Maslov period gives the coarse periodic
grading), optionally a real action confined to the window
``(window_base, window_base + action_period)``, and a GF(2) differential
whose entries raise the lifted degree by ``k * period + 1`` for some
``k >= 0`` (the entry's *jump index*).  The decreasing filtration by lifted
degree is what every downstream computation (spectral pages, polynomial
invariants, products, cup actions) is built on.

The differential and each cup class are stored in one form, index columns:
column i is the bitset of the targets of id i.  The differential's columns
are over the canonical generator order; a class's are over the ids it was
built with, a parsed class's over the document's generators.  The parser
fills them as it reads (``fcx.io``), and the synthesizer and the tensor
product hand theirs over (``from_columns``).  Built from ``(src, dst)``
entries, a complex or a class resolves them to columns once, at
construction, and keeps the sorted entries too only when they do not
resolve cleanly; ``_resolved`` walks those to word the errors.  ``delta``
and a class's ``entries`` are derived from the columns when something reads
them.  Equality and hashing read the columns: a class compares its columns
over the sorted ids it names, so a parsed class equals its entry-built twin.
``_class_columns`` moves a class onto the generator order of a complex.

Validation is exhaustive and returns a report rather than failing fast, so a
single pass lists every violated invariant with the offending ids.  It checks
the degree jumps column by column, against one mask per degree of the
admissible targets.  A complex with kept entries, a bad degree jump, or
actions under a positive monotonicity constant is walked entry by entry, in
``(src, dst)`` order, off its stored form (``_targets``): that walk words
the errors and is the one check of the action differences.  These
structural checks and the walk that checks delta^2 = 0 are kept apart: the
canonical reduction (``fcx.engine``) needs the first alone and proves
delta^2 = 0 itself, which spares the walk (``record_square_zero``).  So a
tensor product (``fcx.kunneth`` validates only its factors) has its
delta^2 = 0 proved by the reduction that reads its pages; it is walked only
if validated before it is reduced.

The degree-graded cohomology cuts each degree's columns to their jump-0
part, the block of the next degree, and eliminates them once with
``gf2.echelon``.  The rows it keeps are the next degree's image; the image
rows and the representatives stay on the ``CohomologyTable`` as one
pivot-keyed echelon, against which the cup actions decode any cocycle.  The
dimensions of both cohomologies, degree-graded and periodic (HF), are read
from the page table (``engine.PageTable``): page 1 and the stable page.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby
from operator import attrgetter, itemgetter
from typing import (
    Any,
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
    TypeVar,
)

from .gf2 import (
    apply_columns,
    bits,
    bits_descending,
    clear_pivots,
    echelon,
    rref_rows,
)

_T = TypeVar("_T")

__all__ = [
    "FcxError",
    "InvalidComplexError",
    "EngineConsistencyError",
    "SizeGuardError",
    "PageIndexError",
    "GEN_MAX_GENERATORS",
    "MonotoneParams",
    "LiftedGenerator",
    "DifferentialEntry",
    "CupClass",
    "RingTable",
    "FloerComplexData",
    "ValidationReport",
    "CohomologyTable",
    "validate",
    "require_valid",
    "require_structure",
    "record_square_zero",
    "z_graded_cohomology",
]


class FcxError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidComplexError(FcxError):
    """Raised when an operation requires a valid complex but validation failed."""

    def __init__(self, report: ValidationReport) -> None:
        super().__init__("invalid complex: " + "; ".join(report.errors))
        self.report = report


class EngineConsistencyError(FcxError):
    """An internal cross-check failed; indicates a bug in the engine, not in the input."""


class SizeGuardError(FcxError):
    """A size guard on a combinatorially explosive operation was exceeded."""


class PageIndexError(FcxError, ValueError):
    """A page index below 1, refused by ``engine.PageTable.run`` alone."""


# The most generators ``fcx gen`` may be asked for.  Scrambling n generators
# draws about n**2 / (2 * period) numbers and conjugates n dense columns;
# 5000 takes a few seconds.
GEN_MAX_GENERATORS = 5000


@dataclass(frozen=True)
class MonotoneParams:
    """Numeric frame of a monotone complex.

    ``maslov_period``  -- the positive integer period of the coarse grading
                          and the step of the filtration (minimal Maslov
                          number).  Values 1-2 are admitted only behind
                          ``allow_small_period`` and draw a warning.
    ``monotonicity``   -- the finite nonnegative proportionality constant
                          tying action drops to degree jumps; 0 means purely
                          algebraic mode (no actions allowed).
    ``window_base``    -- finite base of the preferred action window.
    ``half_dim``       -- optional nonnegative ambient half-dimension: read
                          by the Betti comparison (its default m, and
                          checked against any other), summed by
                          ``tensor_product`` and written as the ``m`` header.
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


class LiftedGenerator(NamedTuple):
    """A generator with its integer lifted degree and optional window action.

    A named ``(uid, degree, action)`` triple, like ``DifferentialEntry``: it
    is immutable and hashable, and it compares as the plain tuple.
    """

    uid: str
    degree: int
    action: float | None = None


class DifferentialEntry(NamedTuple):
    """One GF(2) entry of the differential (or of a cup class): coefficient 1
    from src to dst.

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


def _positions(uids: Sequence[str], ids: Iterable[str]) -> list[int | None]:
    """The index in ``uids`` of each id (the last one for a repeated uid), or
    None for an id that is not among them: outside the parser, the one place
    ids become indices."""
    index = {uid: i for i, uid in enumerate(uids)}
    return [index.get(x) for x in ids]


def _resolved(
    uids: Sequence[str], entries: Sequence[tuple[str, str]]
) -> Iterator[tuple[tuple[str, str], int | None, int | None, bool]]:
    """Each of the sorted ``entries`` with the indices in ``uids`` of its
    source and target (see ``_positions``) and whether it repeats an entry
    before it."""
    previous = None
    pos = iter(_positions(uids, chain.from_iterable(entries)))
    for e, s, t in zip(entries, pos, pos):  # sorted, so a repeat follows its first
        yield e, s, t, e == previous
        previous = e


def _entry_columns(
    uids: Sequence[str], entries: Iterable[tuple[str, str]]
) -> tuple[tuple[int, ...], tuple[tuple[str, str], ...] | None]:
    """The columns over ``uids`` of the entries whose two ids resolve (a
    repeated entry cancels), and the sorted entries themselves when they do
    not resolve cleanly: an unknown id, a repeated entry or a repeated uid."""
    entries = tuple(sorted(entries))
    cols = [0] * len(uids)
    clean = len(set(uids)) == len(uids)
    for _, s, t, repeat in _resolved(uids, entries):
        if s is None or t is None:
            clean = False
        else:
            cols[s] ^= 1 << t
            clean = clean and not repeat
    return tuple(cols), None if clean else entries


def _check_columns(columns: Sequence[int], n: int, ids: str) -> None:
    """Refuse anything but ``n`` columns over ``n`` indices, naming the first
    column that is negative or has a bit at ``n`` or beyond.  A good set of
    columns costs a read of its smallest and largest column."""
    if len(columns) != n:
        raise ValueError(f"{len(columns)} columns for {n} {ids}")
    if columns and (min(columns) < 0 or max(columns) >> n):
        bad = next(i for i, col in enumerate(columns) if col < 0 or col >> n)
        raise ValueError(f"column {bad} is negative or has a bit at {n} or beyond")


def _moved(cols: Sequence[int], pos: Sequence[int], n: int) -> tuple[int, ...]:
    """The columns over n indices with each index i moved to ``pos[i]``."""
    out = [0] * n
    for s, col in enumerate(cols):
        if col:
            v = 0
            for t in bits(col):
                v |= 1 << pos[t]
            out[pos[s]] = v
    return tuple(out)


def _sorted_targets(
    uids: Sequence[str], cols: Sequence[int], raw: Iterable[tuple[str, str]] | None
) -> Iterator[tuple[str, list[str]]]:
    """Each source id of stored data, ascending, with its sorted target ids:
    read off its kept entries, else off its index columns over ``uids``,
    built without sorting the pairs themselves.

    The target ids are collected per source id, and the sources and each
    target list sorted as strings, so a repeated id merges its generators'
    targets exactly as the sorted entries interleave them.
    """
    if raw is not None:
        return ((src, [dst for _, dst in group]) for src, group in groupby(raw, itemgetter(0)))
    targets: dict[str, list[str]] = {}
    for s, col in enumerate(cols):
        if col:
            ids = targets.setdefault(uids[s], [])
            if col & (col - 1):  # the order is discarded, so take the top bit
                ids += [uids[t] for t in bits_descending(col)]
            else:  # one target: the commonest column of a sparse map
                ids.append(uids[col.bit_length() - 1])
    return ((src, sorted(targets[src])) for src in sorted(targets))


def _sorted_entries(
    targets: Iterable[tuple[str, list[str]]],
) -> tuple[DifferentialEntry, ...]:
    """The entries of ``_sorted_targets``: the one place that builds the
    ``delta`` of a complex and the ``entries`` of a cup class."""
    return tuple(DifferentialEntry(src, dst) for src, dsts in targets for dst in dsts)


@dataclass(frozen=True, init=False, eq=False)
class CupClass:
    """A named degree-p endomorphism datum: entries (src, dst) with coefficient 1.

    Stored as index columns: column s is the bitset of the targets of
    ``_uids[s]`` (see the module docstring).  ``entries`` is built on first
    read and kept; equality and hashing compare ``_key``, never ``entries``.
    """

    name: str
    degree: int
    _uids: tuple[str, ...] = field(repr=False)
    _columns: tuple[int, ...] = field(repr=False)
    # The sorted entries, kept only when one of them repeats.
    _raw: tuple[tuple[str, str], ...] | None = field(repr=False)

    def __init__(
        self,
        name: str,
        degree: int,
        entries: Iterable[tuple[str, str]] | None = None,
        *,
        _uids: Sequence[str] = (),
        _columns: Sequence[int] | None = None,
        _raw: tuple[tuple[str, str], ...] | None = None,
    ) -> None:
        """``_columns`` are over the ids ``_uids``, which do not repeat;
        ``entries``, when given, take their place."""
        if entries is not None or _columns is None:
            entries = tuple(entries or ())
            _uids = sorted({uid for entry in entries for uid in entry})
            _columns, _raw = _entry_columns(_uids, entries)
        self.__dict__.update(
            name=name, degree=degree, _uids=tuple(_uids), _columns=tuple(_columns), _raw=_raw
        )

    @classmethod
    def from_columns(
        cls, name: str, degree: int, uids: Sequence[str], columns: Sequence[int]
    ) -> CupClass:
        """The class with an entry (uids[s], uids[t]) for each bit t of
        ``columns[s]``; equal to the one built from those entries."""
        _check_columns(columns, len(uids), "generator ids")
        if len(set(uids)) < len(uids):  # the entries of a repeated id merge by id
            return cls(name, degree, _sorted_entries(_sorted_targets(uids, columns, None)))
        return cls(name, degree, _uids=uids, _columns=columns)

    @cached_property
    def entries(self) -> tuple[tuple[str, str], ...]:
        """The entries of the class, sorted by (src, dst)."""
        return _sorted_entries(self._targets())

    def _targets(self) -> Iterator[tuple[str, list[str]]]:
        """The sorted sources of the class with their sorted targets, read
        off its stored form."""
        return _sorted_targets(self._uids, self._columns, self._raw)

    @cached_property
    def _key(self) -> tuple[Any, ...]:
        """The kept entries, else the columns over the sorted ids the class
        names: equal for two classes exactly when their entries are."""
        if self._raw is not None:
            return self._raw
        used = 0
        for s, col in enumerate(self._columns):
            if col:
                used |= col | 1 << s
        ids = sorted(self._uids[i] for i in bits(used))
        pos = _positions(ids, self._uids)  # None only at an id no entry names
        return tuple(ids), _moved(self._columns, pos, len(ids))  # type: ignore[arg-type]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CupClass):
            return NotImplemented
        return (self.name, self.degree, self._key) == (other.name, other.degree, other._key)

    def __hash__(self) -> int:
        return hash((self.name, self.degree, self._key))


@dataclass(frozen=True)
class RingTable:
    """Commutative product table over class names.

    ``products`` maps unordered pairs (stored sorted) to the product class
    name, or None for a zero product.  Pairs absent from the table multiply
    to zero.  The unit is not part of the table: as in a document, it is the
    class named "1", else the unique degree-0 class whose matrix is the
    identity (``cup.resolve_unit``).
    """

    products: tuple[tuple[tuple[str, str], str | None], ...] = ()

    def __post_init__(self) -> None:
        normalized = tuple(
            sorted(
                ((min(pair), max(pair)), result) for pair, result in self.products
            )
        )
        object.__setattr__(self, "products", normalized)

    def product(self, a: str, b: str) -> str | None:
        """Product of two class names; None means zero (absent pairs included)."""
        key = (min(a, b), max(a, b))
        for pair, result in self.products:
            if pair == key:
                return result
        return None


_canonical_key = attrgetter("degree", "uid")


@dataclass(frozen=True, init=False)
class FloerComplexData:
    """A complete monotone complex; immutable, with canonical internal ordering.

    Generators are stored sorted by (degree, uid), and the differential as
    index columns over that order, so structural equality is canonical-form
    equality.  Optional cup-class data parsed from the same document rides
    along; the cup operations interpret it.

    ``FloerComplexData(params, generators, delta, ...)`` resolves the
    ``(src, dst)`` entries ``delta`` to columns; it keeps them, sorted,
    only when they do not resolve cleanly (``_entry_columns``).  Equality,
    hashing and ``dataclasses.replace`` read the columns (and any kept
    entries), never ``delta``: ``replace`` carries the columns across by
    index unless it is given ``delta``, so replacing the generators alone
    keeps each column at its index.  ``delta`` is the sorted entries, built
    on first read and kept.

    Derived data (degree blocks, validation report, degree-graded
    cohomology, canonical form, page table, the cup data of each document
    class) is memoized per instance by ``cached``; it takes no part in
    equality or hashing and is freed together with the complex.
    """

    params: MonotoneParams
    generators: tuple[LiftedGenerator, ...]
    cup_classes: tuple[CupClass, ...]
    ring: RingTable | None
    _columns: tuple[int, ...]
    # The sorted entries, kept only when they do not resolve cleanly.
    _raw: tuple[tuple[str, str], ...] | None
    _memo: dict[Hashable, Any] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        params: MonotoneParams,
        generators: Iterable[LiftedGenerator],
        delta: Iterable[tuple[str, str]] | None = None,
        cup_classes: Iterable[CupClass] = (),
        ring: RingTable | None = None,
        *,
        _columns: Sequence[int] | None = None,
        _raw: tuple[tuple[str, str], ...] | None = None,
    ) -> None:
        """``_columns`` are over the generators in the order given; ``delta``,
        when given, takes their place."""
        gens = tuple(generators)
        keys = list(map(_canonical_key, gens))
        # On keys in canonical order, sorted() is one pass of adjacent
        # comparisons (a single run); only another order is permuted.
        if keys == sorted(keys):
            perm, ordered = None, gens
        else:
            perm = sorted(range(len(gens)), key=keys.__getitem__)
            ordered = tuple(gens[i] for i in perm)
        if delta is not None or _columns is None:
            _columns, _raw = _entry_columns([g.uid for g in ordered], delta or ())
        else:
            _check_columns(_columns, len(gens), "generators")
            if perm is not None:
                pos = [0] * len(perm)  # old index -> new
                for new, old in enumerate(perm):
                    pos[old] = new
                _columns = _moved(_columns, pos, len(perm))
        self.__dict__.update(
            params=params, generators=ordered, cup_classes=tuple(cup_classes), ring=ring,
            _columns=tuple(_columns), _raw=_raw, _memo={},
        )

    @classmethod
    def from_columns(
        cls,
        params: MonotoneParams,
        generators: Sequence[LiftedGenerator],
        columns: Sequence[int],
        cup_classes: Sequence[CupClass] = (),
        ring: RingTable | None = None,
    ) -> FloerComplexData:
        """The complex whose generator i, in the order given, has the targets
        in the bitset ``columns[i]``; equal to the one built from its entries.

        The generators are put in canonical order and the columns moved
        along, unless the order given is canonical already.
        """
        return cls(params, generators, None, cup_classes, ring, _columns=columns)

    @cached_property
    def delta(self) -> tuple[DifferentialEntry, ...]:
        """The differential entries, sorted by (src, dst)."""
        return _sorted_entries(self._targets())

    def _targets(self) -> Iterator[tuple[str, list[str]]]:
        """The sorted sources of the differential with their sorted targets,
        read off its stored form."""
        return _sorted_targets(self.uids, self._columns, self._raw)

    @cached_property
    def uids(self) -> tuple[str, ...]:
        """The generator ids, in the canonical generator order."""
        return tuple(g.uid for g in self.generators)

    def cached(self, key: Hashable, compute: Callable[[FloerComplexData], _T]) -> _T:
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

    def delta_columns(self) -> list[int]:
        """delta as columns: column i is the bitset of targets of generator i.

        For entries that did not resolve cleanly, every entry whose two ids
        resolve is in, so a repeated entry cancels.  Returns a fresh list.
        """
        return list(self._columns)

    def degree_blocks(self) -> dict[int, tuple[range, int]]:
        """Map degree -> (its generator indices, their bitset), in ascending
        degree.  Generators are sorted by (degree, id), so each degree is one
        contiguous block of indices.  Computed once per instance and shared:
        do not modify it."""
        return self.cached("degree_blocks", _degree_blocks)


def _class_columns(c: FloerComplexData, a: CupClass) -> tuple[tuple[int, ...], bool]:
    """The columns of ``a`` over the generator order of ``c``, and whether
    they hold all of its entries: each id is a generator of ``c`` and no
    entry repeats.  The entries at any other id are left out, and a repeated
    entry cancels."""
    if a._uids == c.uids:
        return a._columns, a._raw is None
    n = c.count
    pos = [n if i is None else i for i in _positions(c.uids, a._uids)]
    cut = (1 << n) - 1  # index n holds the entries at an unknown id
    cols = tuple(col & cut for col in _moved(a._columns, pos, n + 1)[:n])
    return cols, n not in pos and a._raw is None


def _degree_blocks(c: FloerComplexData) -> dict[int, tuple[range, int]]:
    blocks: dict[int, tuple[range, int]] = {}
    lo = 0
    for n, group in groupby(g.degree for g in c.generators):
        hi = lo + sum(1 for _ in group)
        blocks[n] = (range(lo, hi), (1 << hi) - (1 << lo))
        lo = hi
    return blocks


def validate(c: FloerComplexData) -> ValidationReport:
    """Check every invariant; returns a complete report, once per instance.

    Errors make the complex unusable downstream; warnings do not.  The
    report joins two parts, each computed at most once per instance: the
    structural checks (``_structure``), and then, if those pass, the walk
    that applies delta to every column to find a witness of delta^2 != 0
    (``_square_errors``).  The walk is skipped when the canonical reduction
    has already proved delta^2 = 0 (``record_square_zero``): the report is
    the same either way.
    """
    return c.cached("validate", _validate)


def _validate(c: FloerComplexData) -> ValidationReport:
    report = _structure(c)
    if not report.ok:
        return report
    errors = c.cached("square", _square_errors)
    return ValidationReport(report.errors + errors, report.warnings) if errors else report


def _structure(c: FloerComplexData) -> ValidationReport:
    """The report of every check but delta^2 = 0; once per instance."""
    return c.cached("structure", _check_structure)


def _check_structure(c: FloerComplexData) -> ValidationReport:
    errors: list[str] = []
    warnings: list[str] = []
    p = c.params
    period = p.maslov_period
    tol = p.action_tolerance

    if type(period) is not int or period < 1:
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
    if not math.isfinite(p.monotonicity):
        errors.append(f"monotonicity constant must be a finite number, got {p.monotonicity}")
    elif p.monotonicity < 0:
        errors.append(f"monotonicity constant must be nonnegative, got {p.monotonicity}")
    if not math.isfinite(p.window_base):
        errors.append(f"window base must be a finite number, got {p.window_base}")
    if p.half_dim is not None and (type(p.half_dim) is not int or p.half_dim < 0):
        errors.append(f"half-dimension must be a nonnegative integer, got {p.half_dim}")

    seen: set[str] = set()
    for uid, degree, _action in c.generators:
        if uid in seen:
            errors.append(f"duplicate generator id '{uid}'")
        seen.add(uid)
        if type(degree) is not int:
            errors.append(f"generator '{uid}' lifted degree must be an integer, got {degree}")

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

    if (
        c._raw is not None
        or (any_action and p.monotonicity > 0)
        or (period >= 1 and _bad_jump(c.degree_blocks(), c._columns, period))
    ):
        errors += _entry_errors(c)
    return ValidationReport(tuple(errors), tuple(warnings))


def _square_errors(c: FloerComplexData) -> tuple[str, ...]:
    """One error per column whose image under delta twice is not zero over
    GF(2), naming the first generator it reaches."""
    gens = c.generators
    cols = c._columns
    errors = []
    for i, col in enumerate(cols):
        acc = apply_columns(cols, col)
        if acc:
            errors.append(
                f"differential does not square to zero: starting at "
                f"'{gens[i].uid}' it reaches '{gens[next(bits(acc))].uid}' twice"
            )
    return tuple(errors)


def record_square_zero(c: FloerComplexData) -> None:
    """Record that delta^2 = 0 holds on ``c``, proved by the canonical
    reduction, so that ``validate`` does not walk the columns for it."""
    c.cached("square", lambda c: ())


def _bad_jump(
    blocks: Mapping[int, tuple[range, int]], cols: Sequence[int], period: int
) -> bool:
    """Whether some entry has a degree jump that is not of the form
    k * period + 1 with k >= 0.

    A generator of degree n may reach the degrees n + 1 + k * period; one
    mask per degree holds those targets.  ``blocks`` is ``degree_blocks``,
    in ascending degree.
    """
    # Sweep the degrees downwards; ``above[r]`` holds the generators of
    # residue r above the current degree n, so ``above[(n + 1) % period]``
    # are the targets n may reach.
    above: dict[int, int] = {}
    for n in reversed(blocks):
        members, mask = blocks[n]
        reach = 0
        for s in members:
            reach |= cols[s]
        if reach & ~above.get((n + 1) % period, 0):
            return True
        above[n % period] = above.get(n % period, 0) | mask
    return False


def _action_difference(p: MonotoneParams, k: int) -> float:
    """The action difference of an entry of jump index k.

    Window-confined lifts determine it only up to deck translates: it is
    -monotonicity for even k and action_period - monotonicity for odd k (the
    unique in-window representatives of k*sigma - lambda modulo 2*sigma).
    """
    return -p.monotonicity if k % 2 == 0 else p.action_period - p.monotonicity


def _entry_errors(c: FloerComplexData) -> list[str]:
    """The errors of the entries one by one, in (src, dst) order, read off
    the stored form: unknown ids, repeats, degree jumps and action
    differences."""
    errors: list[str] = []
    p = c.params
    period = p.maslov_period
    tol = p.action_tolerance
    gens = c.generators
    pairs = [(src, dst) for src, dsts in c._targets() for dst in dsts]
    for (src, dst), s, t, repeat in _resolved(c.uids, pairs):
        if s is None:
            errors.append(f"differential entry references unknown source '{src}'")
            continue
        if t is None:
            errors.append(f"differential entry references unknown target '{dst}'")
            continue
        if repeat:
            errors.append(f"duplicate differential entry ({src} -> {dst})")
            continue
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
        a_src = gens[s].action
        a_dst = gens[t].action
        if a_src is not None and a_dst is not None and p.monotonicity > 0:
            expected = _action_difference(p, k)
            got = a_dst - a_src
            if abs(got - expected) > tol:
                errors.append(
                    f"entry ({src} -> {dst}) action difference {got} "
                    f"inconsistent with jump index {k} (expected {expected})"
                )
    return errors


def require_valid(c: FloerComplexData) -> None:
    """Raise ``InvalidComplexError`` unless ``validate`` finds no error."""
    report = validate(c)
    if not report.ok:
        raise InvalidComplexError(report)


def require_structure(c: FloerComplexData) -> None:
    """Raise ``InvalidComplexError`` unless every check but delta^2 = 0
    passes.  A complex that fails one is refused with the report of
    ``validate``, which then holds these errors alone."""
    report = _structure(c)
    if not report.ok:
        raise InvalidComplexError(report)


def z_graded_cohomology(c: FloerComplexData) -> CohomologyTable:
    """Cohomology of the degree-graded complex under the jump-0 part alone.

    The jump-0 component is the only part of the differential that preserves
    the integer grading shift by exactly 1; higher-jump entries are invisible
    here and only act on later spectral pages.  Each degree's jump-0 columns
    are eliminated once (see ``_graded_cohomology``).  Requires a valid
    complex.  The table is computed once per instance, for its
    representatives and ``coordinates``; its dimensions are page 1 of the
    page table (``engine.PageTable.page``).
    """
    return c.cached("z_graded_cohomology", _graded_cohomology)


def _graded_cohomology(c: FloerComplexData) -> CohomologyTable:
    """Cohomology of the jump-0 columns, one degree at a time, ascending.

    The jump-0 part of the column of a generator of degree n is its cut to
    the block of degree n + 1, and one ``echelon`` of a degree's cut columns,
    in ambient coordinates and each tagged with its generator, gives both the
    degree's kernel (the tags of the columns that vanish) and the image that
    degree n + 1 divides by (the kept rows, their tags set to 0).  The kernel
    is put in reduced echelon form, which is unique, so the representatives
    do not depend on the elimination order; the image needs no such form,
    because every echelon of a span leaves the same remainders (see
    ``clear_pivots``).  A kernel vector's remainder by the image rows and the
    representatives so far, if nonzero, is the next representative; it joins
    the rows tagged with its index, and the rows are kept on the table.
    """
    require_valid(c)
    cols = c._columns
    blocks = c.degree_blocks()
    images: dict[int, dict[int, tuple[int, int]]] = {}
    dims: list[tuple[int, int]] = []
    reps_out: list[tuple[int, tuple[int, ...]]] = []
    for degree, (members, _) in blocks.items():
        jump0 = blocks.get(degree + 1, (None, 0))[1]
        kept, dependents = echelon((cols[s] & jump0, 1 << s) for s in members)
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
