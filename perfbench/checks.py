"""Output checks computed apart from the engine.

Every expected value here comes from a document's normal form (the direct
sum of free generators and dipoles it was synthesized from) by counting
alone, with no linear algebra: a free generator lives on every page, and a
dipole of jump index k keeps both endpoints through page k.  Nothing in this
module imports ``fcx``.

A normal form is ``NormalForm(period, free, dipoles)``: lifted degrees of the
free generators, and ``(source_degree, jump_index)`` per dipole.  Each check
returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

from typing import NamedTuple


class NormalForm(NamedTuple):
    period: int
    free: tuple[int, ...]
    dipoles: tuple[tuple[int, int], ...]


Dims = dict[int, int]  # level n -> dimension (nonzero entries only)


def page_dims(nf: NormalForm, k: int) -> Dims:
    """Dimensions of page k by level, counted from the normal form."""
    dims: Dims = {}
    for n in nf.free:
        dims[n] = dims.get(n, 0) + 1
    for n, jump in nf.dipoles:
        if jump >= k:
            for level in (n, n + jump * nf.period + 1):
                dims[level] = dims.get(level, 0) + 1
    return dims


def collapse(nf: NormalForm) -> int:
    """First page equal to the limit: 1 + the largest jump index."""
    return 1 + max((jump for _n, jump in nf.dipoles), default=0)


def convolve(a: Dims, b: Dims) -> Dims:
    out: Dims = {}
    for n1, d1 in a.items():
        for n2, d2 in b.items():
            out[n1 + n2] = out.get(n1 + n2, 0) + d1 * d2
    return out


def power(a: Dims, s: int) -> Dims:
    out: Dims = {0: 1}
    for _ in range(s):
        out = convolve(out, a)
    return out


def poly_text(dims: Dims) -> str:
    """A dimension map as fcx prints a polynomial: ascending ``n:d`` pairs."""
    return " ".join(f"{n}:{d}" for n, d in sorted(dims.items()) if d)


def gf2_rank(rows: tuple[int, ...] | list[int]) -> int:
    """Rank of a GF(2) matrix given as bitset rows."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            top = row.bit_length() - 1
            other = pivots.get(top)
            if other is None:
                pivots[top] = row
                rank += 1
                break
            row ^= other
    return rank


# ---------------------------------------------------------------------------
# TSV output parsing
# ---------------------------------------------------------------------------


def _rows(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines()]


def _sections(text: str) -> dict[str, list[list[str]]]:
    """Split ``fcx report`` output at its ``# name`` headers."""
    out: dict[str, list[list[str]]] = {}
    current: list[list[str]] | None = None
    for line in text.splitlines():
        if line.startswith("# "):
            current = out.setdefault(line[2:], [])
        elif current is not None:
            current.append(line.split("\t"))
    return out


def _page_rows(rows: list[list[str]], period: int) -> tuple[dict[int, Dims], list[str]]:
    pages: dict[int, Dims] = {}
    problems = []
    for row in rows:
        if row[0] != "page":
            continue
        k, n, j, d = (int(x) for x in row[1:5])
        if j != n % period:
            problems.append(f"page {k} level {n} printed with residue {j}")
        pages.setdefault(k, {})[n] = d
    return pages, problems


def _value(rows: list[list[str]], key: str) -> list[str]:
    return [row[1] if len(row) > 1 else "" for row in rows if row[0] == key]


def _compare(what: str, got: object, want: object) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def _check_pages_rows(
    rows: list[list[str]], period: int, want: dict[int, Dims], want_collapse: int
) -> list[str]:
    got, problems = _page_rows(rows, period)
    problems += _compare("collapse", _value(rows, "collapse"), [str(want_collapse)])
    problems += _compare("pages printed", sorted(got), sorted(k for k in want if want[k]))
    for k in sorted(want):
        problems += _compare(f"page {k}", got.get(k, {}), want[k])
    return problems


def _expected_pages(nf: NormalForm) -> dict[int, Dims]:
    return {k: page_dims(nf, k) for k in range(1, collapse(nf) + 2)}


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------


def check_pages(text: str, nf: NormalForm) -> list[str]:
    """``fcx pages --format tsv``: every page through collapse + 1, and the
    collapse page."""
    return _check_pages_rows(_rows(text), nf.period, _expected_pages(nf), collapse(nf))


def check_report(text: str, nf: NormalForm) -> list[str]:
    """``fcx report --format tsv``: the validate, cohomology, pages, poincare,
    euler, decompose and collapse-bound sections."""
    sec = _sections(text)
    problems = _compare(
        "sections",
        sorted(sec),
        sorted(
            ["validate", "cohomology", "pages", "poincare", "euler", "decompose",
             "collapse-bound"]
        ),
    )
    if problems:
        return problems
    period, k_c = nf.period, collapse(nf)
    want = _expected_pages(nf)
    problems += _compare("status", _value(sec["validate"], "status"), ["ok"])

    coh = sec["cohomology"]
    got_z = {int(r[1]): int(r[2]) for r in coh if r[0] == "cohomology"}
    problems += _compare("cohomology", got_z, want[1])
    want_hf: dict[int, int] = {}
    for n, d in want[k_c].items():
        want_hf[n % period] = want_hf.get(n % period, 0) + d
    got_hf = {int(r[1]): int(r[2]) for r in coh if r[0] == "hf"}
    problems += _compare("hf (per-residue sums of the stable page)", got_hf, want_hf)

    problems += _check_pages_rows(sec["pages"], period, want, k_c)

    got_poly = {int(r[1]): r[2] for r in sec["poincare"] if r[0] == "poly"}
    problems += _compare(
        "poly", got_poly, {k: poly_text(dims) for k, dims in want.items()}
    )
    # The value is checked, not its spelling: fcx prints chi as a float
    # ("1.0") when a page has negative levels.
    got_chi = {int(r[1]): float(r[2]) for r in sec["euler"] if r[0] == "chi"}
    want_chi = {
        k: sum(d * (-1) ** (n % 2) for n, d in dims.items()) for k, dims in want.items()
    }
    problems += _compare("chi", got_chi, want_chi)

    dec = sec["decompose"]
    problems += _compare("kmax", _value(dec, "kmax"), [str(k_c - 1)])
    qbars: dict[int, Dims] = {i: {} for i in range(1, k_c)}
    for n, jump in nf.dipoles:
        if jump >= 1:
            top = n + jump * period + 1
            qbars[jump][top] = qbars[jump].get(top, 0) + 1
    got_q = {int(r[1]): r[2] for r in dec if r[0] == "qbar"}
    problems += _compare("qbar", got_q, {i: poly_text(d) for i, d in qbars.items()})
    problems += _compare(
        "hfpoly", _value(dec, "hfpoly"), [poly_text(page_dims(nf, k_c))]
    )
    problems += _compare(
        "collapse-bound collapse", _value(sec["collapse-bound"], "collapse"), [str(k_c)]
    )
    return problems


def product_pages(a: NormalForm, b: NormalForm, k: int) -> Dims:
    """Page k of a tensor product: the convolution of the factors' pages,
    each read at ``min(k, collapse)``."""
    return convolve(
        page_dims(a, min(k, collapse(a))), page_dims(b, min(k, collapse(b)))
    )


def product_collapse(a: NormalForm, b: NormalForm) -> int:
    """1 + the last page whose dimensions differ from the next page's."""
    last = 0
    for k in range(1, max(collapse(a), collapse(b)) + 1):
        if product_pages(a, b, k) != product_pages(a, b, k + 1):
            last = k
    return last + 1


def check_kunneth(text: str, a: NormalForm, b: NormalForm) -> list[str]:
    """``fcx kunneth --format tsv``: product pages and polynomials against the
    convolution of the factors' counts, and the verdict."""
    rows = _rows(text)
    k_c = product_collapse(a, b)
    want = {k: product_pages(a, b, k) for k in range(1, k_c + 2)}
    problems = _check_pages_rows(rows, a.period, want, k_c)
    got_poly = {int(r[1]): r[2] for r in rows if r[0] == "poly"}
    problems += _compare("poly", got_poly, {k: poly_text(d) for k, d in want.items()})
    problems += _compare("verdict", _value(rows, "kunneth"), ["pass"])
    return problems


def check_power(text: str, nf: NormalForm, s: int) -> list[str]:
    """``fcx power --s S --format tsv`` (page 1): the power's polynomial is the
    s-th power of the factor's."""
    rows = _rows(text)
    want = poly_text(power(page_dims(nf, 1), s))
    return (
        _compare("poly", [r[1:] for r in rows if r[0] == "poly"], [["1", want]])
        + _compare("expected", [r[1:] for r in rows if r[0] == "expected"], [["1", want]])
        + _compare("verdict", _value(rows, "power"), ["pass"])
    )


# ---------------------------------------------------------------------------
# Cup documents: C tensor F, F free with generators t0..tm at degrees 0, p, .., mp
# ---------------------------------------------------------------------------


class CupDoc(NamedTuple):
    base: NormalForm  # the normal form of C
    m: int
    p: int


def class_shift(name: str) -> int:
    """The shift i of class ``a<i>``; the unit ``1`` shifts by 0."""
    return 0 if name == "1" else int(name[1:])


def cup_rank(doc: CupDoc, page: Dims, i: int, n: int) -> int:
    """Rank of the shift-by-i class from level n: sum_{j=0}^{m-i} dim E(C)_{n-jp}."""
    return sum(page.get(n - j * doc.p, 0) for j in range(doc.m - i + 1))


def _product_levels(doc: CupDoc, page: Dims) -> set[int]:
    return {n + j * doc.p for n in page for j in range(doc.m + 1)}


def class_names(doc: CupDoc) -> list[str]:
    return ["1"] + [f"a{i}" for i in range(1, doc.m + 1)]


def ring_rows(doc: CupDoc) -> int:
    """Rows of the document's ring table: 1*x for every class, a_i*a_j, i<=j."""
    return doc.m + 1 + doc.m * (doc.m + 1) // 2


def check_cup(text: str, doc: CupDoc) -> list[str]:
    """``fcx cup --format tsv``: one ``cupmap`` per class and level of nonzero
    cohomology, with the rank the shift structure predicts."""
    e1 = page_dims(doc.base, 1)
    levels = _product_levels(doc, e1)
    want = {
        (name, n): (n + class_shift(name) * doc.p, cup_rank(doc, e1, class_shift(name), n))
        for name in class_names(doc)
        for n in levels
    }
    got = {(r[1], int(r[2])): (int(r[3]), int(r[4])) for r in _rows(text)}
    return _compare("cupmap lines", got, want)


def check_ring(text: str, doc: CupDoc) -> list[str]:
    rows = _rows(text)
    return (
        _compare("unit", _value(rows, "unit"), ["1"])
        + _compare("pairs", _value(rows, "pairs"), [str(ring_rows(doc))])
        + _compare("module", _value(rows, "module"), ["pass"])
        + _compare("injective", _value(rows, "injective"), ["yes"])
        + _compare("fail/kernel lines", [r for r in rows if r[0] in ("fail", "kernel")], [])
    )


def check_cuplength(text: str, doc: CupDoc, generators: int) -> list[str]:
    """Cuplength m + 1; a nonzero product of m positive classes needs shifts
    summing to at most m, so the witness is m copies of a1."""
    rows = _rows(text)
    return (
        _compare("cuplength", _value(rows, "cuplength"), [str(doc.m + 1)])
        + _compare("witness", _value(rows, "witness"), [" ".join(["a1"] * doc.m)])
        + _compare("generators", _value(rows, "generators"), [str(generators)])
        + _compare("bound", _value(rows, "bound"), ["holds"])
    )


# An induced-pages result, flattened: (class, requested page, page used,
# ((level, residue, rows, cols, rank), ...)).
InducedSummary = tuple[str, int, int, tuple[tuple[int, int, int, int, int], ...]]


def check_induced(results: list[InducedSummary], doc: CupDoc) -> list[str]:
    """``fcx.cup.induced_on_pages`` for every class and page 1..collapse+1."""
    k_c = collapse(doc.base)
    period = doc.base.period
    want_keys = [(name, k) for name in class_names(doc) for k in range(1, k_c + 2)]
    problems = _compare("calls", [(r[0], r[1]) for r in results], want_keys)
    for name, k, used, cells in results:
        problems += _compare(f"{name} page {k} served by", used, min(k, k_c))
        page = page_dims(doc.base, min(k, k_c))
        i = class_shift(name)
        want_cells = sorted((n, n % period) for n in _product_levels(doc, page))
        got_cells = sorted((n, j) for n, j, *_ in cells)
        problems += _compare(f"{name} page {k} cells", got_cells, want_cells)
        for n, j, n_rows, n_cols, rank in cells:
            problems += _compare(
                f"{name} page {k} level {n} shape",
                (n_rows, n_cols),
                (cup_rank(doc, page, 0, n + i * doc.p), cup_rank(doc, page, 0, n)),
            )
            problems += _compare(
                f"{name} page {k} level {n} rank", rank, cup_rank(doc, page, i, n)
            )
    return problems
