"""Cup-class actions: validation, induced maps, module/ring checks, cuplength.

A cup class is a degree-p GF(2) matrix on the generators (entries only
between generators whose lifted degrees differ by exactly p) that commutes
with the full differential.  Commutation with the full differential is
deliberately required at chain level: it is a single check that makes the
induced maps well defined on the degree-graded cohomology and on every
spectral page simultaneously.  ``CupClass`` and ``RingTable`` are data of
``fcx.model``, which describes how a class is stored; they are re-exported
here.

Ring verification happens on the degree-graded cohomology, where the module
structure lives; the composite convention for a product a*b acting on x is
"apply b first, then a".  The induced action there runs no elimination of its
own: each pushed representative is decoded by ``CohomologyTable.coordinates``
against the echelon that ``z_graded_cohomology`` built once per complex.

Validation moves a class's columns onto the complex's generator order when
they are over another (``_class_columns``), and checks the degree pattern
column by column, against one target-degree mask per generator degree; only
a class with an unknown id, a repeated entry or an entry of the wrong degree
is walked entry by entry, to word the errors in ``(src, dst)`` order.  The
classes whose pattern holds are then checked for commutation together:
``gf2.commutator_witnesses`` stacks their columns and walks the
differential once for all of them.

Memo: for a class of ``c.cup_classes`` (found by identity first, then by
``==``), the validation report with the class columns, the induced
cohomology action and the graded images are kept in the complex's memo
(``FloerComplexData.cached``) under the class's index, and freed with it;
the first validation of a document class validates them all.  The graded
images are the canonical coordinates of each page-1 slot's representative
pushed through the class, cut to the slot's level plus the class degree and
checked against the filtration as they are built; each page reads its maps
off them through its run's ``PageTable.layouts`` entry: its alive slots and
the sources of its dead dipoles.  Any other class is computed afresh on
each call.
The checks run on every call: an invalid class raises each time, so does a
failed image build (it is not kept), and the page maps are checked against
the page differential each time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, TypeVar

from .engine import PageTable, canonical_form, pages
from .gf2 import Gf2Matrix, apply_columns, bits, commutator_witnesses, echelon
from .model import (
    CupClass,
    EngineConsistencyError,
    FcxError,
    FloerComplexData,
    RingTable,
    ValidationReport,
    _class_columns,
    _resolved,
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


def _document_index(c: FloerComplexData, a: CupClass) -> int | None:
    """The index of ``a`` among the document classes of ``c``, or None."""
    classes = c.cup_classes
    # by identity first: ``index`` compares by ``==``, which computes the
    # canonical form of each class it compares
    i = next((i for i, b in enumerate(classes) if b is a), None)
    return classes.index(a) if i is None and a in classes else i


def _derived(
    c: FloerComplexData, a: CupClass, key: str, compute: Callable[[FloerComplexData, CupClass], _T]
) -> _T:
    """``compute(c, a)``, kept in the memo of ``c`` under ``(key, index)`` when
    ``a`` is one of its document classes and computed afresh otherwise."""
    i = _document_index(c, a)
    return compute(c, a) if i is None else c.cached((key, i), lambda c: compute(c, a))


def _validated(c: FloerComplexData, a: CupClass) -> tuple[ValidationReport, tuple[int, ...]]:
    """The report and columns of ``a``.  The first call on a document class
    validates every document class and keeps the results; any other class
    is validated alone."""
    i = _document_index(c, a)
    if i is None:
        return _validate_cup(c, (a,))[0]
    return c.cached("cup_validate", lambda c: _validate_cup(c, c.cup_classes))[i]


def validate_cup(c: FloerComplexData, a: CupClass) -> ValidationReport:
    """Check the degree pattern and chain-level commutation with the differential.

    Every failure carries a witness pair; warnings are currently unused.  The
    same pass builds the class columns that ``require_valid_cup`` returns.
    """
    require_valid(c)
    return _validated(c, a)[0]


def _validate_cup(
    c: FloerComplexData, classes: Sequence[CupClass]
) -> list[tuple[ValidationReport, tuple[int, ...]]]:
    """The report and columns of each class; the classes whose degree
    pattern holds are checked for commutation in one walk of the differential."""
    checked: list[tuple[list[str], tuple[int, ...]]] = []
    gens = c.generators
    for a in classes:
        errors: list[str] = []
        acols, whole = _class_columns(c, a)
        if type(a.degree) is not int:  # bool included: the grammar reads neither
            errors.append(f"class '{a.name}' degree must be an integer, got {a.degree}")
        elif not whole or a.degree < 0 or _off_degree(c, acols, a.degree):
            if a.degree < 0:
                errors.append(f"class '{a.name}' has negative degree {a.degree}")
            for (src, dst), s, t, repeat in _resolved(c.uids, a.entries):
                if s is None:
                    errors.append(f"class '{a.name}' references unknown generator '{src}'")
                    continue
                if t is None:
                    errors.append(f"class '{a.name}' references unknown generator '{dst}'")
                    continue
                if repeat:
                    errors.append(f"class '{a.name}' repeats the entry ({src} -> {dst})")
                    continue
                diff = gens[t].degree - gens[s].degree
                if diff != a.degree:
                    errors.append(
                        f"class '{a.name}' entry ({src} -> {dst}) changes degree by "
                        f"{diff}, expected {a.degree}"
                    )
        checked.append((errors, acols))
    # delta . A against A . delta, column by column
    clean = [(a, errors, acols) for a, (errors, acols) in zip(classes, checked) if not errors]
    witnesses = commutator_witnesses([acols for _, _, acols in clean], c.delta_columns())
    for (a, errors, _), witness in zip(clean, witnesses):
        if witness is not None:
            i, diff = witness
            errors.append(
                f"class '{a.name}' does not commute with the differential: "
                f"witness pair ({gens[i].uid} -> {gens[next(bits(diff))].uid})"
            )
    return [(ValidationReport(tuple(errors), ()), acols) for errors, acols in checked]


def _off_degree(c: FloerComplexData, acols: Sequence[int], p: int) -> bool:
    """Whether some column has a target whose degree is not its source's
    plus ``p``, checked against one target mask per generator degree."""
    blocks = c.degree_blocks()
    for n, (members, _) in blocks.items():
        outside = ~blocks.get(n + p, (None, 0))[1]
        for s in members:
            if acols[s] & outside:
                return True
    return False


def require_valid_cup(c: FloerComplexData, a: CupClass) -> tuple[int, ...]:
    """The class as column bitsets over the canonical generator order (like
    the differential), built by its validation; raises if it is invalid."""
    require_valid(c)
    report, acols = _validated(c, a)
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
        rows = [0] * dims.get(target, 0)
        for col_idx, r in enumerate(basis):
            coords = table.coordinates(target, apply_columns(acols, r))
            if coords is None:
                ids = "+".join(c.generators[i].uid for i in bits(r))
                raise EngineConsistencyError(
                    f"induced image of class '{a.name}' left the cohomology at "
                    f"degree {target}: the image of the degree-{n} representative "
                    f"{ids} is not a cocycle there; this indicates a bug"
                )
            for row_idx in bits(coords):
                rows[row_idx] |= 1 << col_idx
        blocks.append((n, Gf2Matrix(len(rows), len(basis), tuple(rows))))
    return CohomologyAction(a.name, a.degree, tuple(blocks))


def induced_on_pages(c: FloerComplexData, a: CupClass, k: int) -> InducedPageMaps:
    """Induced maps on page k, computed on canonical representatives.

    For each populated source cell the representatives are pushed through
    the class matrix and re-expressed in canonical coordinates; the
    coefficients on the target cell's alive slots give the matrix.  Pages
    beyond the collapse page are served by the stable page.  The pushed
    representatives are shared by every page (``_graded_images``), and a
    page reads them through its run's ``PageLayout``; an image's dead dipole
    targets are boundaries and read as zero.  Exact commutation with the
    page differential is checked defensively.
    """
    canonical_form(c)  # proves delta^2 = 0, so validation does not walk delta
    acols = require_valid_cup(c, a)
    table = pages(c)
    cells, row, alive, dead_sources = table.layouts[table.run(k)]
    k_eff = min(k, table.collapse_page)
    period = c.params.maslov_period
    p = a.degree
    images = _derived(
        c, a, "slot_images", lambda c, a: _graded_images(c, a, acols, table, k_eff)
    )
    gens = c.generators

    maps: list[tuple[tuple[int, int], Gf2Matrix]] = []
    for (n, j), slots in cells.items():
        tn, tj = n + p, (j + p) % period
        tslots = cells.get((tn, tj), ())
        rows = [0] * len(tslots)
        for col_idx, s in enumerate(slots):
            image = images[s]
            stray = image & dead_sources
            if stray:
                raise EngineConsistencyError(
                    f"induced image of class '{a.name}' on page {k_eff}: "
                    f"slot '{gens[s].uid}' hit the live slot "
                    f"'{gens[next(bits(stray))].uid}' outside the target cell "
                    f"(n={tn}, j={tj}); this indicates a bug"
                )
            hit = image & alive
            if hit:
                for b in bits(hit):
                    rows[row[b]] |= 1 << col_idx
        maps.append(((n, j), Gf2Matrix(len(tslots), len(slots), tuple(rows))))

    out = InducedPageMaps(a.name, p, k_eff, tuple(maps))
    _check_page_commutation(table, out, k_eff)
    return out


def _graded_images(
    c: FloerComplexData,
    a: CupClass,
    acols: tuple[int, ...],
    table: PageTable,
    k: int,
) -> dict[int, int]:
    """Map each slot alive on page 1 (every later page's slots are among
    them) to the canonical coordinates of its representative pushed through
    the class, cut to the level of the slot plus the class degree.

    Raises if an image reaches below that level, naming page ``k``, the page
    asked for: the change of basis is filtered, so it cannot.
    """
    gens = c.generators
    blocks = c.degree_blocks()
    form = table.form
    images: dict[int, int] = {}
    for (n, _j), slots in table.layouts[table.run(1)].cells.items():
        tn = n + a.degree
        at = blocks.get(tn, (None, 0))[1]
        for s in slots:
            coords = form.to_canonical(apply_columns(acols, form.change_of_basis[s]))
            # Generators ascend with degree: the lowest set bit is the lowest level.
            low = (coords & -coords).bit_length() - 1
            if low >= 0 and gens[low].degree < tn:
                raise EngineConsistencyError(
                    f"induced image of class '{a.name}' violated the "
                    f"filtration on page {k}: slot '{gens[s].uid}' hit "
                    f"'{gens[low].uid}' below level {tn}; this indicates a bug"
                )
            images[s] = coords & at
    return images


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
            cells = table.layouts[table.run(k)].cells
            src = cells[(n, j)][(diff & -diff).bit_length() - 1]
            hit = cells[(dn + p, (dj + p) % period)][row]
            raise EngineConsistencyError(
                f"induced maps of class '{induced.class_name}' do not commute "
                f"with the page-{k} differential at (n={n}, j={j}): slot "
                f"'{gens[src].uid}' reaches '{gens[hit].uid}' on one side only"
            )


def resolve_unit(c: FloerComplexData) -> str:
    """Resolve the unit class as a document does: the class named '1', else
    the unique degree-0 identity-matrix class."""
    if any(cls.name == "1" for cls in c.cup_classes):
        return "1"
    candidates = [
        cls.name for cls in c.cup_classes if cls.degree == 0 and _is_identity(c, cls)
    ]
    if len(candidates) == 1:
        return candidates[0]
    raise FcxError(
        "cannot resolve a unit class: name it '1' "
        "or provide exactly one degree-0 identity class"
    )


def _is_identity(c: FloerComplexData, a: CupClass) -> bool:
    """Whether the matrix of ``a`` is the identity on the generators of ``c``."""
    cols, whole = _class_columns(c, a)
    return whole and all(col == 1 << i for i, col in enumerate(cols))


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

    ``layout`` maps degree -> (offset, dim) inside the total cohomology.  Each
    total row is built first, then the rows, each padded to whole bytes, are
    laid end to end: an injective linear flattening, so the relations among
    flattened actions are those among the actions.
    """
    rows = [0] * total
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
        for r, row in enumerate(block.rows, off_dst):
            rows[r] |= row << off_src
    width = (total + 7) // 8
    return int.from_bytes(b"".join(row.to_bytes(width, "little") for row in rows), "little")


def module_check(c: FloerComplexData, ring: RingTable) -> ModuleReport:
    """Verify the product table against composition of induced maps.

    For every stored pair (a, b) with product r, the composite "b first,
    then a" on the degree-graded cohomology must equal the induced map of r
    (the zero map when the product is zero); the unit must induce the
    identity.
    """
    classes = _ring_classes(c, ring)
    unit = resolve_unit(c)
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
            top = ax.block(n + ay.degree)
            out_dim = dims.get(n + ay.degree + ax.degree, 0)
            composite = (
                top.mat_mul(mid) if top is not None else Gf2Matrix.zero(out_dim, mid.n_cols)
            )
            if result is None:
                want = Gf2Matrix.zero(composite.n_rows, composite.n_cols)
            else:
                want = actions[result].block(n)
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
    lower bound is reported as a fact.  The table is checked first, then the
    complex (``require_valid``), as ``module_check`` orders them.
    """
    classes = _ring_classes(c, ring)
    require_valid(c)
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
