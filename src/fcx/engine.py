"""Spectral-page engine for filtered complexes.

Everything here rests on one canonical-form computation: a change of basis
that turns the differential into a disjoint union of elementary "dipoles"
(one source generator mapping to one target generator) plus untouched free
generators.  The algorithm is a column reduction over the processing order
"descending degree, then ascending id", run on ``gf2.echelon`` with the
*low* entry as pivot (the latest entry in the processing order, i.e. the one
of minimal degree, largest id on ties): each column is reduced against
previously kept columns at its low, and a nonzero reduced column keeps its
low as a pivot.  Because the differential squares to zero, an index kept as
a pivot target always has a zero reduced column of its own, so sources,
targets and free generators partition the basis.

The reduction needs only the structural checks of validation, not its
delta^2 walk: its own checks prove delta^2 = 0.  They check that the roles
partition the basis, that the change of basis B is unitriangular (hence
invertible) and that delta B is B times the dipole map D, whose square is 0;
so delta^2 = B D^2 B^-1 = 0.  The self-check reads delta B from the
substitution that inverts B, which forms it in the same walk of each column
of B.  The proof is recorded on the complex, and a later ``validate`` returns
its report without the walk.  If a check fails, the walk runs and names the
witness of delta^2 != 0; only if it finds none is the failure a bug in the
engine.

The low is found without a scan.  Generators are stored sorted by
(degree, id), so each degree is one contiguous block of indices: a column's
lowest set bit lies in its minimal-degree block, and its low is the highest
set bit inside that block.  With one precomputed mask per degree block the
low costs a few bit operations, and no re-indexing of the generators (nor
any change of coordinates) is needed.

From the canonical form all spectral pages are read off by counting.  Its
barcode lists each dipole as (source level, target level, jump index) and
each free generator by its level: a free generator survives every page, a
dipole of jump index ``k`` keeps both endpoints alive on pages ``1..k`` (the
page-``k`` differential sends source slot to target slot) and dies entering
page ``k+1``.  So a page table keeps one entry per run of equal pages, the
runs starting at page 1 and at each jump index + 1: eagerly, its dimensions
by level, which page dimensions and the collapse page read; when first read,
its Poincare-Laurent polynomial (``LaurentPoly``), its layout (the alive
slots of each cell, in order) and its differential matrices.  So the page
polynomials are a per-run view of the page table, not a separate cache.
Page 1 and the stable page are the dimensions of both cohomologies.

Two independent cross-check routes are provided and kept deliberately
separate from the reduction and its kernel, ``gf2.echelon``: a literal
subquotient evaluation of any page, and the limit and HF computed from the
image filtration on ordinary cohomology.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

from .gf2 import (
    Gf2Matrix,
    Gf2Subspace,
    NotUnitriangularError,
    apply_columns,
    echelon,
    invert_columns,
    rref_rows,
    subspace_intersection,
    subspace_sum,
)
from .model import (
    EngineConsistencyError,
    FloerComplexData,
    LiftedGenerator,
    MonotoneParams,
    PageIndexError,
    record_square_zero,
    require_structure,
    require_valid,
)

__all__ = [
    "LaurentPoly",
    "Barcode",
    "CanonicalForm",
    "PageLayout",
    "PageTable",
    "LimitReport",
    "canonical_form",
    "pages",
    "collapse_page",
    "subquotient_pages_oracle",
    "limit_and_filtration",
]


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial with integer exponents and nonnegative integer
    coefficients; a ``bool`` is not an integer here.

    Stored as sorted (exponent, coefficient) pairs with zero coefficients
    absent, so equality is coefficient-map equality.
    """

    coeffs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        pairs = sorted(self.coeffs)
        previous = None
        for e, c in pairs:
            if type(c) is not int or c < 0:
                raise ValueError(f"coefficients must be nonnegative integers, got {c!r}")
            if type(e) is not int:
                raise ValueError(f"exponents must be integers, got {e!r}")
            if e == previous:
                raise ValueError(f"exponent {e} is repeated")
            previous = e
        object.__setattr__(self, "coeffs", tuple((e, c) for e, c in pairs if c))

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
class Barcode:
    """The canonical form read as filtration levels.

    ``dipoles`` holds one (source level, target level, jump index) triple per
    dipole, in the order of ``CanonicalForm.dipoles``; ``free`` the level of
    each free generator, in the order of ``CanonicalForm.free``.  Every page
    dimension, page polynomial, the rank decomposition and the collapse page
    are functions of it.
    """

    dipoles: tuple[tuple[int, int, int], ...]
    free: tuple[int, ...]


@dataclass(frozen=True)
class CanonicalForm:
    """Result of the column reduction.

    ``dipoles`` are (source_index, target_index) pairs; ``free`` the indices
    of generators whose canonical basis vector is closed and never hit.
    ``change_of_basis`` holds one ambient bitset column per generator index
    (the canonical basis vector for that slot); ``inverse`` its inverse.
    Conjugating the differential by the change of basis gives exactly the
    dipole arrows and nothing else, which the reduction checks; that check
    proves delta^2 = 0.  It keeps the complex's generators and params, not
    the complex, whose memo holds the form.
    """

    generators: tuple[LiftedGenerator, ...]
    params: MonotoneParams
    dipoles: tuple[tuple[int, int], ...]
    free: tuple[int, ...]
    change_of_basis: tuple[int, ...]
    inverse: tuple[int, ...]

    def jump_of(self, pair: tuple[int, int]) -> int:
        src, dst = pair
        gens = self.generators
        return (gens[dst].degree - gens[src].degree - 1) // self.params.maslov_period

    def to_canonical(self, v: int) -> int:
        """Coordinates of an ambient vector in the canonical slot basis."""
        return apply_columns(self.inverse, v)

    @cached_property
    def barcode(self) -> Barcode:
        """The dipoles and free generators by level, computed once per form."""
        gens = self.generators
        return Barcode(
            tuple(
                (gens[s].degree, gens[t].degree, self.jump_of((s, t)))
                for s, t in self.dipoles
            ),
            tuple(gens[f].degree for f in self.free),
        )


class PageLayout(NamedTuple):
    """One run of equal pages' cells, as the differentials and the induced
    maps read them.

    ``cells`` maps each populated (level, residue), in ascending order, to
    its alive slots, ascending; ``row`` each alive slot to its position in
    its cell; ``alive`` is the bitset of the alive slots and
    ``dead_sources`` that of the sources of dipoles dead on the run's pages.
    """

    cells: dict[tuple[int, int], tuple[int, ...]]
    row: dict[int, int]
    alive: int
    dead_sources: int


@dataclass(frozen=True)
class PageTable:
    """Every spectral page of a complex, kept once per run of equal pages.

    It keeps the canonical form alone; ``params`` and ``barcode`` are the
    form's.  Page k changes only at k = J + 1 for a jump index J, so runs
    start at page 1 and at each J + 1 (``starts``, ascending); the last
    starts at ``collapse_page``, the first page equal to the limit, and
    ``run(k)`` is the one map from a page k to its run, refusing k < 1.
    Eager: the nonzero dimensions by level of each run, which ``page`` reads.

    Built on first access, then kept: ``polynomials`` holds the
    Poincare-Laurent polynomial of each run, from its dimensions, which page
    k reads as ``polynomials[run(k)]``; from the barcode, ``layouts`` holds
    one ``PageLayout`` per run, read as ``layouts[run(k)]``, and
    ``differentials`` maps a source cell key (k, n, j), k a jump index, to
    its nonzero page-k matrix, whose rows are the slots of the cell at
    (k, n + k*period + 1, (j + 1) % period) and columns its own slots.  The
    table keeps the form, not the complex, whose memo holds it.
    """

    form: CanonicalForm
    starts: tuple[int, ...] = field(init=False, compare=False)
    _dims: tuple[dict[tuple[int, int], int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        starts, dims = zip(*_page_runs(self.barcode, self.params.residue))
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "_dims", dims)

    @property
    def params(self) -> MonotoneParams:
        return self.form.params

    @property
    def barcode(self) -> Barcode:
        return self.form.barcode

    @property
    def collapse_page(self) -> int:
        return self.starts[-1]

    @property
    def max_page(self) -> int:
        """The collapse page + 1: the last page the pages commands print by
        default."""
        return self.collapse_page + 1

    def run(self, k: int) -> int:
        """Index of the run that page k belongs to; refuses k < 1."""
        if k < 1:
            raise PageIndexError(f"pages are indexed from 1, got {k}")
        return bisect_right(self.starts, k) - 1

    def page(self, k: int) -> dict[tuple[int, int], int]:
        """Nonzero dimensions of page k as {(level, residue): dim}; any page
        past the collapse page is the stable page."""
        return dict(self._dims[self.run(k)])

    @cached_property
    def polynomials(self) -> tuple[LaurentPoly, ...]:
        """Per run, the sum over levels of its dim * t^level."""
        return tuple(
            LaurentPoly.from_dict({n: d for (n, _j), d in dims.items()})
            for dims in self._dims
        )

    @cached_property
    def layouts(self) -> tuple[PageLayout, ...]:
        """Per run, the layout of its cells: at each (level, residue) every
        free slot there and both endpoints of every dipole of jump index >=
        the run's first page."""
        form, residue = self.form, self.params.residue
        sources = sum(1 << s for s, _t in form.dipoles)
        runs = []
        for start in self.starts:
            slots_at: dict[int, list[int]] = {}
            for f, n in zip(form.free, self.barcode.free):
                slots_at.setdefault(n, []).append(f)
            for (s, t), (ns, nt, jump) in zip(form.dipoles, self.barcode.dipoles):
                if jump >= start:
                    slots_at.setdefault(ns, []).append(s)
                    slots_at.setdefault(nt, []).append(t)
            cells = {(n, residue(n)): tuple(sorted(slots_at[n])) for n in sorted(slots_at)}
            row = {s: r for slots in cells.values() for r, s in enumerate(slots)}
            alive = sum(1 << s for s in row)
            runs.append(PageLayout(cells, row, alive, sources & ~alive))
        return tuple(runs)

    @cached_property
    def differentials(self) -> Mapping[tuple[int, int, int], Gf2Matrix]:
        """The page-k differential of each source cell: its dipoles of jump exactly k."""
        params = self.params
        arrows: dict[int, dict[int, list[tuple[int, int]]]] = {}
        for pair, (ns, _nt, jump) in zip(self.form.dipoles, self.barcode.dipoles):
            if jump:
                arrows.setdefault(jump, {}).setdefault(ns, []).append(pair)
        diffs: dict[tuple[int, int, int], Gf2Matrix] = {}
        for k in sorted(arrows):
            layout = self.layouts[self.run(k)]
            cells, row = layout.cells, layout.row
            for n, pairs in arrows[k].items():
                key = (n, params.residue(n))
                dst = cells[(n + k * params.maslov_period + 1, params.residue(n + 1))]
                entries = [(row[t], row[s]) for s, t in pairs]
                diffs[(k, *key)] = Gf2Matrix.from_entries(len(dst), len(cells[key]), entries)
        return diffs


def _page_runs(
    barcode: Barcode, residue: Callable[[int], int]
) -> list[tuple[int, dict[tuple[int, int], int]]]:
    """(first page, nonzero dimensions by (level, residue)) of each run of
    equal pages, ascending, counted from the barcode.

    A free generator lives on every page; a dipole of jump index J puts both
    endpoints on pages 1..J.  Runs are counted from the last one down: the
    run below the one that starts at J + 1 adds the dipoles of jump index J.
    """
    dying_after: dict[int, list[tuple[int, int]]] = {}
    for src, dst, jump in barcode.dipoles:
        dying_after.setdefault(jump, []).extend(
            ((src, residue(src)), (dst, residue(dst)))
        )
    alive = Counter((n, residue(n)) for n in barcode.free)
    runs: list[tuple[int, dict[tuple[int, int], int]]] = []
    for start in sorted({1} | {jump + 1 for jump in dying_after}, reverse=True):
        runs.append((start, dict(alive)))
        alive.update(dying_after.get(start - 1, ()))
    runs.reverse()
    return runs


@dataclass(frozen=True)
class LimitReport:
    """Limit data computed from ordinary cohomology and its image filtration.

    ``hf_dims`` maps residue j -> dim of the periodic cohomology HF^j, the
    filtration dimension at the lowest level of residue j (nonzero entries
    only); ``filtration_dims`` maps (level, residue) -> dim of the image of
    the level-n subcomplex's cohomology classes (nonzero entries only, levels
    within the generator degree range extended one period below);
    ``einf_dims`` maps (level, residue) -> the filtration quotient dimension,
    which equals the stable page of the spectral sequence.
    """

    hf_dims: tuple[tuple[int, int], ...]
    filtration_dims: tuple[tuple[tuple[int, int], int], ...]
    einf_dims: tuple[tuple[tuple[int, int], int], ...]

    def hf(self) -> dict[int, int]:
        return dict(self.hf_dims)

    def einf(self) -> dict[tuple[int, int], int]:
        return dict(self.einf_dims)


def canonical_form(c: FloerComplexData) -> CanonicalForm:
    """Reduce the differential to disjoint dipoles by a filtered change of basis.

    The change of basis is filtration- and residue-compatible: each canonical
    basis vector equals its slot's generator plus generators of the same
    residue that come strictly earlier in the processing order (same degree
    with smaller id, or strictly higher degree).  ``gf2.echelon`` reduces the
    columns in that order at their low entries.  The form is computed once
    per instance.
    """
    return c.cached("canonical_form", _reduce)


def _reduce(c: FloerComplexData) -> CanonicalForm:
    """The canonical form of a complex that passes the structural checks.

    The three checks of ``_dipole_form`` prove delta^2 = 0, which is then
    recorded on ``c``.  If one fails, ``require_valid`` runs the delta^2
    walk and raises with its witness; if the walk finds none, the check's
    ``EngineConsistencyError`` stands.
    """
    require_structure(c)
    try:
        form = _dipole_form(c)
    except EngineConsistencyError as exc:
        failure = exc
    else:
        record_square_zero(c)
        return form
    # Outside the handler, so that the walk's error is not chained to the check's.
    require_valid(c)
    raise failure


def _dipole_form(c: FloerComplexData) -> CanonicalForm:
    """Reduce the columns and check the result: role exclusivity, the
    unitriangularity of the change of basis and the self-check, which
    together prove delta^2 = 0 (see the module docstring)."""
    n = c.count
    gens = c.generators
    cols = c.delta_columns()

    # Processing order: descending degree, ascending id inside a degree.
    # Generators are sorted by (degree, id), so each degree is one ascending
    # block of indices, and its mask is block[i] for each member i.
    blocks = c.degree_blocks()
    order = [i for degree in reversed(blocks) for i in blocks[degree][0]]
    block = [0] * n
    for members, mask in blocks.values():
        for i in members:
            block[i] = mask

    def low(col: int) -> int:
        """The entry latest in the processing order: minimal degree, then largest id.

        Indices ascend with (degree, id), so the lowest set bit is in the
        minimal-degree block, and the largest id there is the highest set
        bit of ``col`` inside that block.
        """
        return (col & block[(col & -col).bit_length() - 1]).bit_length() - 1

    # Tag 1 << g accumulates g's chain: g plus the earlier generators whose
    # reduced columns were added to its column.  Its low is therefore g.
    rows, dependents = echelon(((cols[g], 1 << g) for g in order), low)
    zero = {low(chain): chain for chain in dependents}

    # Role exclusivity: with delta^2 = 0, a claimed pivot target must itself
    # have reduced to the zero column earlier.
    twice = sorted(rows.keys() - zero.keys())
    if twice:
        raise EngineConsistencyError(
            f"canonical reduction assigned generator '{gens[twice[0]].uid}' "
            "two roles; this indicates a bug in the reduction"
        )

    # Each kept row t -> (reduced column, chain) is the dipole (low(chain), t).
    dipoles = tuple(sorted((low(chain), t) for t, (_, chain) in rows.items()))
    free = tuple(sorted(zero.keys() - rows.keys()))
    basis = [0] * n
    for s, t in dipoles:
        basis[t], basis[s] = rows[t]
    for f in free:
        basis[f] = zero[f]
    # Each slot is its generator plus earlier ones in ``order`` (a dipole
    # target is its own low), so the inverse is a substitution in that order.
    try:
        inverse, delta_basis = invert_columns(basis, order, cols)
    except NotUnitriangularError as exc:
        raise EngineConsistencyError(
            "canonical change of basis is not unitriangular in the processing "
            f"order at the slot of '{gens[exc.column].uid}'; this indicates a bug"
        ) from exc

    # Self-check on delta B, formed by the substitution: the conjugated
    # differential is exactly the dipole arrows.
    for s, t in dipoles:
        if delta_basis[s] != basis[t]:
            raise EngineConsistencyError(
                "canonical form self-check failed on the dipole column of "
                f"'{gens[s].uid}' (target '{gens[t].uid}')"
            )
        if delta_basis[t] != 0:
            raise EngineConsistencyError(
                f"canonical form self-check failed: target slot '{gens[t].uid}' "
                "is not closed"
            )
    for f in free:
        if delta_basis[f] != 0:
            raise EngineConsistencyError(
                f"canonical form self-check failed: free slot '{gens[f].uid}' "
                "is not closed"
            )

    return CanonicalForm(c.generators, c.params, dipoles, free, tuple(basis), tuple(inverse))


def collapse_page(c: FloerComplexData) -> int:
    """First page equal to the limit: 1 + the maximal dipole jump index (1 if none)."""
    return pages(c).collapse_page


def pages(c: FloerComplexData) -> PageTable:
    """Every spectral page of ``c``, from the barcode.

    Cell (n, j) of page k collects the canonical slots alive on page k at
    lifted degree n: every free slot there, plus both endpoints of every
    dipole of jump index >= k (``PageTable.layouts``).  The page-k
    differential is the 0/1 matrix of dipoles of jump exactly k between the
    corresponding cells.  The table is computed once per complex.
    """
    return c.cached("pages", lambda c: PageTable(canonical_form(c)))


def _kernel(c: FloerComplexData, cols: list[int], src: list[int], dst_mask: int) -> Gf2Subspace:
    """The vectors supported on ``src`` whose differential has no bit in
    ``dst_mask`` (ambient coordinates).

    One ``rref_rows`` of the cut columns, column s tagged with bit
    ``count + s``: pivots ascend, so the cut parts are cleared first, and the
    rows whose cut part vanished carry the kernel's reduced basis in their
    tags (the Zassenhaus trick of ``gf2.subspace_intersection``).
    """
    n = c.count
    reduced, _ = rref_rows((cols[s] & dst_mask) | 1 << (n + s) for s in src)
    return Gf2Subspace(n, tuple(r >> n for r in reduced if not r & ((1 << n) - 1)))


def _z_space(c: FloerComplexData, cols: list[int], n: int, j: int, k: int) -> Gf2Subspace:
    """The subspace of residue-j vectors at filtration level >= n whose
    differential lands at level >= n + k*period + 1 (ambient coordinates)."""
    residue = c.params.residue
    src = [i for i, g in enumerate(c.generators) if g.degree >= n and residue(g.degree) == j]
    cutoff = n + k * c.params.maslov_period + 1
    below = sum(1 << i for i, g in enumerate(c.generators) if g.degree < cutoff)
    return _kernel(c, cols, src, below)


def _delta_span(c: FloerComplexData, cols: list[int], space: Gf2Subspace) -> Gf2Subspace:
    return Gf2Subspace.from_vectors(
        c.count, [apply_columns(cols, v) for v in space.basis]
    )


def subquotient_pages_oracle(c: FloerComplexData, k: int) -> dict[tuple[int, int], int]:
    """Literal subquotient evaluation of page k; independent of the reduction.

    The cell at (n, j) is Z / (B + dZ') where Z collects level->=n vectors
    whose differential jumps at least k periods past the next level, B the
    deeper-level vectors of the previous page's kind still inside Z, and dZ'
    the differentials of the previous page's kind arriving at level n.
    Returns nonzero dimensions only.
    """
    require_valid(c)
    if k < 1:
        raise ValueError("pages are indexed from 1")
    period = c.params.maslov_period
    cols = c.delta_columns()
    degrees = [g.degree for g in c.generators]
    if not degrees:
        return {}
    out: dict[tuple[int, int], int] = {}
    for n in range(min(degrees), max(degrees) + 1):
        j = c.params.residue(n)
        z_top = _z_space(c, cols, n, j, k)
        if z_top.dim == 0:
            continue
        # The intersection with the numerator is computed literally even
        # though containment always holds on validated complexes.
        deeper = subspace_intersection(_z_space(c, cols, n + period, j, k - 1), z_top)
        arriving = _z_space(c, cols, n - (k - 1) * period - 1, (j - 1) % period, k - 1)
        denom = subspace_sum(deeper, _delta_span(c, cols, arriving))
        dim = z_top.dim - denom.dim
        if not z_top.contains_space(denom):
            raise EngineConsistencyError(
                f"subquotient denominator escaped its numerator on page {k} "
                f"at (n={n}, j={j}); this indicates a bug in the oracle"
            )
        if dim:
            out[(n, j)] = dim
    return out


def limit_and_filtration(c: FloerComplexData) -> LimitReport:
    """Limit page and HF from the image filtration on ordinary periodic cohomology.

    The level-n filtration of the residue-j cohomology is the image of the
    classes representable at filtration level >= n; the limit-page dimension
    at (n, j) is the drop between level n and level n + period, and HF^j is
    the whole filtration, the level of residue j lowest in the degree range.
    This route never touches the canonical reduction or ``gf2.echelon``.
    """
    require_valid(c)
    period = c.params.maslov_period
    cols = c.delta_columns()

    degrees = [g.degree for g in c.generators]
    if not degrees:
        return LimitReport((), (), ())
    lo, hi = min(degrees), max(degrees)
    by_residue = [[i for i, n in enumerate(degrees) if n % period == j] for j in range(period)]

    # dim F_n HF^j = dim((ker delta cap F_n cap C_j) + im_j) - dim(im_j)
    masks = [sum(1 << i for i in idx) for idx in by_residue]
    filt: dict[tuple[int, int], int] = {}
    for j in range(period):
        img = Gf2Subspace.from_vectors(c.count, [cols[s] & masks[j] for s in by_residue[j - 1]])
        for n in range(lo, hi + period + 1):
            if c.params.residue(n) != j:
                continue
            sub = [i for i in by_residue[j] if degrees[i] >= n]
            ker = _kernel(c, cols, sub, masks[(j + 1) % period])
            d = subspace_sum(ker, img).dim - img.dim
            if d:
                filt[(n, j)] = d

    einf: dict[tuple[int, int], int] = {}
    for (n, j), d in filt.items():
        drop = d - filt.get((n + period, j), 0)
        if drop:
            einf[(n, j)] = drop
    # HF^j is the filtration at the lowest level of residue j: every
    # residue-j generator lies at or above it.
    hf = ((j, filt.get((lo + (j - lo) % period, j), 0)) for j in range(period))

    return LimitReport(
        tuple((j, d) for j, d in hf if d),
        tuple(sorted(filt.items())),
        tuple(sorted(einf.items())),
    )
