"""Cup-class actions: validation, induced maps, module/ring checks, cuplength.

A cup class is a degree-p GF(2) matrix on the generators (entries only
between generators whose lifted degrees differ by exactly p) that commutes
with the full differential.  Commutation with the full differential is
deliberately required at chain level: it is a single check that makes the
induced maps well defined on the degree-graded cohomology and on every
spectral page simultaneously.

Ring verification happens on the degree-graded cohomology, where the module
structure lives; the composite convention for a product a*b acting on x is
"apply b first, then a".  The induced action there runs no elimination of its
own: each pushed representative is decoded by ``CohomologyTable.coordinates``
against the echelon that ``z_graded_cohomology`` built once per complex.

A class is stored like the differential.  The parser fills one index column
per generator of each class (``fcx.io``), and ``CupClass.from_columns``
keeps them with the generator ids they index; ``FloerComplexData.from_columns``
puts them in the complex's canonical order along with its own columns.  The
sorted ``entries`` of such a class are a view, built only when something
reads them.  A class built from ``(src, dst)`` entries (the API) has its
ids resolved to indices by its validation, the only place class entry ids
are resolved.

Validation of a class with columns over the complex's generator order checks
the degree pattern column by column, against one target-degree mask per
generator degree, and the commutation in one ``gf2.commutator_witness``
call; only a class with an entry of the wrong degree is walked entry by
entry, to word the errors in ``(src, dst)`` order.

Per-class memo: for a class that is a member of ``c.cup_classes`` (found by
identity first, so no other class's entries are read), the validation
report with the class columns, the induced cohomology action and the
canonical image of each slot pushed through the class (shared by the
induced maps of every page) are computed at most once and kept in the
complex's memo (``FloerComplexData.cached``).  So the memo holds at most one
record per document class and is freed with the complex.  Any other class
is validated once per call and not stored.  The checks still run on every
call: an invalid class raises each time, and the page maps are checked
against the page differential each time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence, TypeVar

from .engine import PageTable, canonical_form, pages
from .gf2 import Gf2Matrix, apply_columns, bits, commutator_witness, echelon
from .model import (
    EngineConsistencyError,
    FcxError,
    FloerComplexData,
    ValidationReport,
    _column_pairs,
    _permuted,
    require_valid,
    z_graded_cohomology,
)

__all__ = [
    "CupClass",
    "RingTable",
    "CohomologyAction",
    "InducedPageMaps",
    "ModuleReport",
    "InjectivityReport",
    "CuplengthReport",
    "validate_cup",
    "require_valid_cup",
    "induced_on_cohomology",
    "induced_on_pages",
    "resolve_unit",
    "module_check",
    "injectivity_check",
    "cuplength_report",
]


class _EntriesView:
    """The ``entries`` field of a class built from columns.

    A non-data descriptor, like the ``delta`` view of a complex: the entries
    a class was built from sit in the instance dict and shadow it.  Without
    them, the first read builds the sorted entries from the columns and
    stores them there.  Read on the class, it gives the field's default.
    """

    def __get__(self, a: "CupClass | None", owner: type | None = None) -> Any:
        if a is None:
            return ()
        uids, cols = a._uids, a._columns
        assert uids is not None and cols is not None  # entries are kept otherwise
        entries = tuple(_column_pairs(uids, cols))
        object.__setattr__(a, "entries", entries)
        return entries


@dataclass(frozen=True)
class CupClass:
    """A named degree-p endomorphism datum: entries (src, dst) with coefficient 1.

    A class built by ``from_columns`` keeps index columns with the ids they
    index, and ``entries`` is a view of them.  Equality, hashing and
    ``repr`` read ``entries``, so they build the view and treat both kinds
    of class alike.
    """

    name: str
    degree: int
    entries: tuple[tuple[str, str], ...] = _EntriesView()  # type: ignore[assignment]
    # The columns of a class built by ``from_columns``, and the generator id
    # of each index, else None.
    _columns: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _uids: tuple[str, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @classmethod
    def from_columns(
        cls, name: str, degree: int, uids: Sequence[str], columns: Sequence[int]
    ) -> "CupClass":
        """The class with an entry (uids[s], uids[t]) for each bit t of
        ``columns[s]``; equal to the one built from those entries."""
        if len(columns) != len(uids):
            raise ValueError(f"{len(columns)} columns for {len(uids)} generator ids")
        a = cls(name, degree)
        object.__setattr__(a, "_columns", tuple(columns))
        object.__setattr__(a, "_uids", tuple(uids))
        object.__delattr__(a, "entries")  # from now on the view of the columns
        return a

    def _reindexed(self, uids: tuple[str, ...], order: list[int]) -> "CupClass":
        """This class over the generator ids ``uids`` taken in ``order`` (new
        index -> old), when its columns are over ``uids``; otherwise the
        class itself."""
        if self._columns is None or self._uids != uids:
            return self
        return CupClass.from_columns(
            self.name, self.degree, [uids[i] for i in order], _permuted(self._columns, order)
        )


@dataclass(frozen=True)
class RingTable:
    """Commutative product table over class names.

    ``products`` maps unordered pairs (stored sorted) to the product class
    name, or None for a zero product.  Pairs absent from the table multiply
    to zero.  ``unit`` optionally names the identity class; when absent it is
    resolved as the class named "1", else the unique degree-0 class whose
    matrix is the identity.
    """

    products: tuple[tuple[tuple[str, str], str | None], ...] = ()
    unit: str | None = None

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


@dataclass(frozen=True)
class CohomologyAction:
    """Induced action of a class on the degree-graded cohomology.

    ``blocks`` maps every degree n with nonzero cohomology to the matrix
    sending its class basis to the class basis at degree n + p (rows indexed
    by the target basis; a target with zero cohomology gives a 0-row matrix).
    """

    class_name: str
    degree: int
    blocks: tuple[tuple[int, Gf2Matrix], ...]

    @cached_property
    def _by_degree(self) -> dict[int, Gf2Matrix]:
        return dict(self.blocks)

    def block(self, n: int) -> Gf2Matrix | None:
        return self._by_degree.get(n)


@dataclass(frozen=True)
class InducedPageMaps:
    """Induced maps on one spectral page, cell by cell.

    ``maps`` sends a populated source cell key (n, j) to the matrix into the
    cell at (n + p, (j + p) mod period) on the same page (rows indexed by the
    target cell's slots; zero rows if the target cell is empty).
    """

    class_name: str
    degree: int
    page: int
    maps: tuple[tuple[tuple[int, int], Gf2Matrix], ...]

    def as_dict(self) -> dict[tuple[int, int], Gf2Matrix]:
        return dict(self.maps)


@dataclass(frozen=True)
class ModuleReport:
    unit: str
    checked_pairs: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class InjectivityReport:
    """Kernel of (span of classes) -> (endomorphisms of the cohomology)."""

    injective: bool
    kernel_combinations: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class CuplengthReport:
    cuplength: int
    witness: tuple[str, ...]
    generator_count: int
    generator_bound_holds: bool


_T = TypeVar("_T")


def _derived(
    c: FloerComplexData, a: CupClass, key: str, compute: Callable[[FloerComplexData, CupClass], _T]
) -> _T:
    """``compute(c, a)``, kept in the memo of ``c`` under ``key`` when ``a`` is
    one of its document classes and computed afresh otherwise."""
    classes = c.cup_classes
    # by identity first: ``index`` compares by ``==``, which reads entries
    i = next((i for i, b in enumerate(classes) if b is a), None)
    if i is None:
        try:
            i = classes.index(a)
        except ValueError:
            return compute(c, a)
    memo = c.cached("cup_class_memos", _empty_memos)[i]
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = compute(c, a)
        return value


def _empty_memos(c: FloerComplexData) -> list[dict[str, Any]]:
    return [{} for _ in c.cup_classes]


def validate_cup(c: FloerComplexData, a: CupClass) -> ValidationReport:
    """Check the degree pattern and chain-level commutation with the differential.

    Every failure carries a witness pair; warnings are currently unused.  The
    same pass builds the class columns that ``require_valid_cup`` returns.
    """
    require_valid(c)
    return _derived(c, a, "validate", _validate_cup)[0]


def _validate_cup(c: FloerComplexData, a: CupClass) -> tuple[ValidationReport, tuple[int, ...]]:
    errors: list[str] = []
    gens = c.generators
    acols = _class_columns(c, a)
    if acols is None or a.degree < 0 or _off_degree(c, acols, a.degree):
        if a.degree < 0:
            errors.append(f"class '{a.name}' has negative degree {a.degree}")
        # every entry whose ids resolve enters the columns, as in model._resolve
        idx = c.index_map()
        resolved = [0] * c.count
        prev = None
        for entry in a.entries:
            src, dst = entry
            s = idx.get(src)
            if s is None:
                errors.append(f"class '{a.name}' references unknown generator '{src}'")
                continue
            t = idx.get(dst)
            if t is None:
                errors.append(f"class '{a.name}' references unknown generator '{dst}'")
                continue
            resolved[s] ^= 1 << t
            if entry == prev:  # entries are sorted, so a repeat follows its first
                errors.append(f"class '{a.name}' repeats the entry ({src} -> {dst})")
                continue
            prev = entry
            diff = gens[t].degree - gens[s].degree
            if diff != a.degree:
                errors.append(
                    f"class '{a.name}' entry ({src} -> {dst}) changes degree by "
                    f"{diff}, expected {a.degree}"
                )
        acols = tuple(resolved)
    if not errors:
        # delta . A against A . delta, column by column
        witness = commutator_witness(acols, c.delta_columns())
        if witness is not None:
            i, diff = witness
            errors.append(
                f"class '{a.name}' does not commute with the differential: "
                f"witness pair ({gens[i].uid} -> {gens[next(bits(diff))].uid})"
            )
    return ValidationReport(tuple(errors), ()), acols


def _class_columns(c: FloerComplexData, a: CupClass) -> tuple[int, ...] | None:
    """The columns of a class built from columns over the generator order
    of ``c``; None for any other class."""
    cols = a._columns
    if cols is None or a._uids != c.cached("uids", _uids):
        return None
    return cols


def _uids(c: FloerComplexData) -> tuple[str, ...]:
    return tuple(g.uid for g in c.generators)


def _off_degree(c: FloerComplexData, acols: Sequence[int], p: int) -> bool:
    """Whether some column has a target whose degree is not its source's
    plus ``p``, checked against one target mask per generator degree."""
    groups = c.cached("degree_masks", _degree_masks)
    for n, (members, _) in groups.items():
        outside = ~groups.get(n + p, (0, 0))[1]
        for s in members:
            if acols[s] & outside:
                return True
    return False


def _degree_masks(c: FloerComplexData) -> dict[int, tuple[list[int], int]]:
    """Map degree -> (its generator indices, their bitset)."""
    return {
        n: (members, sum(1 << s for s in members))
        for n, members in c.degree_groups().items()
    }


def require_valid_cup(c: FloerComplexData, a: CupClass) -> tuple[int, ...]:
    """The class as column bitsets over the canonical generator order (like
    the differential), built by its validation; raises if it is invalid."""
    require_valid(c)
    report, acols = _derived(c, a, "validate", _validate_cup)
    if not report.ok:
        raise FcxError(
            f"cup class '{a.name}' failed validation: " + "; ".join(report.errors)
        )
    return acols


def induced_on_cohomology(c: FloerComplexData, a: CupClass) -> CohomologyAction:
    """Matrices of the induced action on the degree-graded cohomology.

    The class of a representative x maps to the class of A x, read off by
    ``CohomologyTable.coordinates``; chain-level commutation makes this
    independent of the representative.
    """
    acols = require_valid_cup(c, a)
    return _derived(c, a, "cohomology", lambda c, a: _induced_on_cohomology(c, a, acols))


def _induced_on_cohomology(
    c: FloerComplexData, a: CupClass, acols: tuple[int, ...]
) -> CohomologyAction:
    table = z_graded_cohomology(c)
    dims = table.as_dict()
    blocks: list[tuple[int, Gf2Matrix]] = []
    for n, basis in table.representatives:
        target = n + a.degree
        entries: list[tuple[int, int]] = []
        for col_idx, r in enumerate(basis):
            coords = table.coordinates(target, apply_columns(acols, r))
            if coords is None:
                ids = "+".join(c.generators[i].uid for i in bits(r))
                raise EngineConsistencyError(
                    f"induced image of class '{a.name}' left the cohomology at "
                    f"degree {target}: the image of the degree-{n} representative "
                    f"{ids} is not a cocycle there; this indicates a bug"
                )
            entries.extend((row_idx, col_idx) for row_idx in bits(coords))
        blocks.append((n, Gf2Matrix.from_entries(dims.get(target, 0), len(basis), entries)))
    return CohomologyAction(a.name, a.degree, tuple(blocks))


def induced_on_pages(c: FloerComplexData, a: CupClass, k: int) -> InducedPageMaps:
    """Induced maps on page k, computed on canonical representatives.

    For each populated source cell the representatives are pushed through
    the class matrix and re-expressed in canonical coordinates; the
    coefficients on the target cell's alive slots give the matrix.  Pages
    beyond the collapse page are served by the stable page.  Exact
    commutation with the page differential is checked defensively.
    """
    acols = require_valid_cup(c, a)
    if k < 1:
        raise FcxError(f"pages are indexed from 1, got {k}")
    form = canonical_form(c)
    table = pages(c)
    k_eff = min(k, table.collapse_page)
    period = c.params.maslov_period
    p = a.degree
    images = _derived(c, a, "slot_images", lambda c, a: {})
    gens = c.generators
    level = [g.degree for g in gens]

    alive: dict[tuple[int, int], list[int]] = {}
    alive_slots: set[int] = set()
    for (kk, n, j), cell in table.cells.items():
        if kk == k_eff:
            alive[(n, j)] = list(cell.slots)
            alive_slots.update(cell.slots)
    boundary_slots = {t for _s, t in form.dipoles if t not in alive_slots}

    maps: list[tuple[tuple[int, int], Gf2Matrix]] = []
    for (n, j), slots in sorted(alive.items()):
        tn, tj = n + p, (j + p) % period
        tslots = alive.get((tn, tj), [])
        tpos = {s: r for r, s in enumerate(tslots)}
        entries: list[tuple[int, int]] = []
        for col_idx, s in enumerate(slots):
            coords = images.get(s)
            if coords is None:
                coords = images[s] = form.to_canonical(
                    apply_columns(acols, form.change_of_basis[s])
                )
            for b in bits(coords):
                if level[b] < tn:
                    raise EngineConsistencyError(
                        f"induced image of class '{a.name}' violated the "
                        f"filtration on page {k_eff}: slot '{gens[s].uid}' hit "
                        f"'{gens[b].uid}' below level {tn}; this indicates a bug"
                    )
                if level[b] != tn:
                    continue  # strictly deeper level: zero in this cell
                if b in tpos:
                    entries.append((tpos[b], col_idx))
                elif b not in boundary_slots:
                    raise EngineConsistencyError(
                        f"induced image of class '{a.name}' on page {k_eff}: "
                        f"slot '{gens[s].uid}' hit the live slot "
                        f"'{gens[b].uid}' outside the target cell "
                        f"(n={tn}, j={tj}); this indicates a bug"
                    )
        maps.append(((n, j), Gf2Matrix.from_entries(len(tslots), len(slots), entries)))

    out = InducedPageMaps(a.name, p, k_eff, tuple(maps))
    _check_page_commutation(table, out, k_eff)
    return out


def _check_page_commutation(table: PageTable, induced: InducedPageMaps, k: int) -> None:
    """Defensive exactness check: induced maps commute with the page differential."""
    period = table.params.maslov_period
    p = induced.degree
    m = induced.as_dict()
    for (kk, n, j), d in table.differentials.items():
        if kk != k:
            continue
        dn, dj = n + k * period + 1, (j + 1) % period
        m_src = m[(n, j)]
        m_dst = m[(dn, dj)]
        d_shift = table.differentials.get((k, n + p, (j + p) % period))
        lhs = m_dst.mat_mul(d)
        rhs = (
            d_shift.mat_mul(m_src)
            if d_shift is not None
            else Gf2Matrix.zero(m_dst.n_rows, m_src.n_cols)
        )
        if lhs.rows != rhs.rows:
            # witness: the first entry where the two composites differ
            row, diff = next(
                (r, x ^ y) for r, (x, y) in enumerate(zip(lhs.rows, rhs.rows)) if x != y
            )
            gens = table.form.generators
            src = table.cells[(k, n, j)].slots[(diff & -diff).bit_length() - 1]
            hit = table.cells[(k, dn + p, (dj + p) % period)].slots[row]
            raise EngineConsistencyError(
                f"induced maps of class '{induced.class_name}' do not commute "
                f"with the page-{k} differential at (n={n}, j={j}): slot "
                f"'{gens[src].uid}' reaches '{gens[hit].uid}' on one side only"
            )


def resolve_unit(c: FloerComplexData, ring: RingTable) -> str:
    """Resolve the unit class: explicit, else named '1', else the unique
    degree-0 identity-matrix class."""
    classes = {cls.name: cls for cls in c.cup_classes}
    if ring.unit is not None:
        if ring.unit not in classes:
            raise FcxError(f"declared unit '{ring.unit}' is not a known class")
        return ring.unit
    if "1" in classes:
        return "1"
    candidates = [
        cls.name for cls in c.cup_classes if cls.degree == 0 and _is_identity(c, cls)
    ]
    if len(candidates) == 1:
        return candidates[0]
    raise FcxError(
        "cannot resolve a unit class: declare one explicitly, name it '1', "
        "or provide exactly one degree-0 identity class"
    )


def _is_identity(c: FloerComplexData, a: CupClass) -> bool:
    """Whether the matrix of ``a`` is the identity on the generators of ``c``,
    read off its columns when it has them over the order of ``c``."""
    cols = _class_columns(c, a)
    if cols is not None:
        return all(col == 1 << i for i, col in enumerate(cols))
    return a.entries == tuple(sorted((g.uid, g.uid) for g in c.generators))


def _ring_classes(c: FloerComplexData, ring: RingTable) -> dict[str, CupClass]:
    classes = {cls.name: cls for cls in c.cup_classes}
    if len(classes) != len(c.cup_classes):
        raise FcxError("duplicate cup class names")
    for (x, y), result in ring.products:
        for name in (x, y) + ((result,) if result else ()):
            if name not in classes:
                raise FcxError(f"product table references unknown class '{name}'")
        if result is not None:
            expected = classes[x].degree + classes[y].degree
            if classes[result].degree != expected:
                raise FcxError(
                    f"product {x}*{y} = {result} violates degree additivity: "
                    f"degree {classes[result].degree} != {expected}"
                )
    return classes


def _total_endomorphism(
    action: CohomologyAction, layout: dict[int, tuple[int, int]], total: int
) -> int:
    """Flatten a graded action into one bitset over a total x total matrix.

    ``layout`` maps degree -> (offset, dim) inside the total cohomology; bit
    (row_total * total + col_total) encodes a unit entry.
    """
    out = 0
    for n, block in action.blocks:
        off_src, _ = layout[n]
        tgt = layout.get(n + action.degree)
        if tgt is None:
            if not block.is_zero():
                raise EngineConsistencyError(
                    f"induced block of class '{action.class_name}' from degree {n} "
                    f"into the zero cohomology degree {n + action.degree} is nonzero"
                )
            continue
        off_dst, _ = tgt
        for r in range(block.n_rows):
            for b in bits(block.rows[r]):
                out |= 1 << ((off_dst + r) * total + (off_src + b))
    return out


def module_check(c: FloerComplexData, ring: RingTable) -> ModuleReport:
    """Verify the product table against composition of induced maps.

    For every stored pair (a, b) with product r, the composite "b first,
    then a" on the degree-graded cohomology must equal the induced map of r
    (the zero map when the product is zero); the unit must induce the
    identity.
    """
    classes = _ring_classes(c, ring)
    unit = resolve_unit(c, ring)
    actions = {name: induced_on_cohomology(c, cls) for name, cls in classes.items()}

    failures: list[str] = []
    dims = z_graded_cohomology(c).as_dict()

    unit_action = actions[unit]
    if classes[unit].degree != 0:
        failures.append(f"unit '{unit}' has nonzero degree {classes[unit].degree}")
    else:
        for n, block in unit_action.blocks:
            if block != Gf2Matrix.identity(dims.get(n, 0)):
                failures.append(
                    f"unit '{unit}' does not act as the identity at degree {n}"
                )

    checked = 0
    for (x, y), result in ring.products:
        checked += 1
        ax, ay = actions[x], actions[y]
        for n in sorted(dims):
            mid = ay.block(n)
            if mid is None:
                continue
            top = ax.block(n + ay.degree)
            out_dim = dims.get(n + ay.degree + ax.degree, 0)
            composite = (
                top.mat_mul(mid) if top is not None else Gf2Matrix.zero(out_dim, mid.n_cols)
            )
            if result is None:
                want = Gf2Matrix.zero(composite.n_rows, composite.n_cols)
            else:
                want_block = actions[result].block(n)
                want = (
                    want_block
                    if want_block is not None
                    else Gf2Matrix.zero(composite.n_rows, composite.n_cols)
                )
            if composite.rows != want.rows:
                failures.append(
                    f"product {x}*{y} -> {result or '0'} fails at degree {n}: "
                    f"composite of induced maps differs from the induced product"
                )
                break
    return ModuleReport(unit, checked, tuple(failures))


def injectivity_check(c: FloerComplexData, ring: RingTable) -> InjectivityReport:
    """Kernel of the linear map from class combinations to cohomology endomorphisms.

    A reported combination is a set of class names whose XOR of induced
    total-cohomology matrices is zero; injectivity means there are none.
    """
    classes = _ring_classes(c, ring)
    names = sorted(classes)
    dims = z_graded_cohomology(c).as_dict()
    layout: dict[int, tuple[int, int]] = {}
    off = 0
    for n, d in sorted(dims.items()):
        layout[n] = (off, d)
        off += d
    total = off

    vectors = [
        _total_endomorphism(induced_on_cohomology(c, classes[name]), layout, total)
        for name in names
    ]
    _, dependents = echelon((v, 1 << i) for i, v in enumerate(vectors))
    kernel = sorted(
        tuple(names[i] for i in bits(tags)) for tags in dependents if tags
    )
    return InjectivityReport(not kernel, tuple(kernel))


def cuplength_report(c: FloerComplexData, ring: RingTable) -> CuplengthReport:
    """Length of the longest nonzero product of positive-degree classes, plus 1.

    The search walks the product table (pairs absent from the table multiply
    to zero); degree additivity makes the walk finite.  The generator-count
    lower bound is reported as a fact.
    """
    classes = _ring_classes(c, ring)
    positive = sorted(name for name, cls in classes.items() if cls.degree > 0)

    memo: dict[str, tuple[int, tuple[str, ...]]] = {}

    def longest_from(name: str) -> tuple[int, tuple[str, ...]]:
        """Longest continuation (count, factors) multiplying onto ``name``."""
        if name in memo:
            return memo[name]
        best: tuple[int, tuple[str, ...]] = (0, ())
        for g in positive:
            nxt = ring.product(name, g)
            if nxt is None:
                continue
            length, tail = longest_from(nxt)
            if 1 + length > best[0]:
                best = (1 + length, (g,) + tail)
        memo[name] = best
        return best

    best_len = 0
    best_chain: tuple[str, ...] = ()
    for start in positive:
        length, tail = longest_from(start)
        if 1 + length > best_len:
            best_len = 1 + length
            best_chain = (start,) + tail

    cuplength = 1 + best_len
    return CuplengthReport(
        cuplength=cuplength,
        witness=best_chain,
        generator_count=c.count,
        generator_bound_holds=c.count >= cuplength,
    )
