"""Command-line surface for the FCX toolkit.

Subcommands: validate, cohomology, pages, poincare, euler, decompose,
rebase, collapse-bound, betti, kunneth, power, cup, ring, cuplength, gen,
report.  Every command reads FCX documents (see .io).  ``gen`` and
``rebase`` write FCX documents; every other command writes a human-readable
or a TSV rendering (``--format human|tsv``).  Output is deterministic and
line-sorted, so two runs on the same input are byte-identical.  Every
dimension printed, cohomology and HF included, is counted from the barcode.

A renderer computes a command's answer as format-free rows, each a tag
followed by its fields (polynomials stay ``LaurentPoly`` objects), plus an ok
flag; it never sees the format.  ``_lines`` is the one formatter: a TSV line
is the tag and its fields joined by tabs, a human line comes from the
``_HUMAN`` table keyed by tag (``tag field ...`` for a tag not listed there).
One handler loads the documents, calls the command's renderer and prints.

Exit codes: 0 success, 1 validation or check failure, 2 parse or usage
error (including size-guard refusals).  Every refusal is one ``fcx:`` line;
argparse's own usage errors go through ``_Parser.error``, with no usage
block.  A numeric option is written as in a document (ASCII, no ``_``, no
surrounding space), and its type (``_number``) also checks its range; a
negative value may follow its flag as a separate word.  The
optional ``FCX_SEED`` environment variable (the same rule; empty is unset)
sets the default seed of ``gen``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from argparse import ArgumentTypeError
from dataclasses import dataclass
from typing import Callable, NoReturn

from .cup import (
    cuplength_report,
    induced_on_cohomology,
    injectivity_check,
    module_check,
    validate_cup,
)
from .engine import PageTable, collapse_page, pages
from .invariants import (
    betti_compare,
    collapse_bound_from_energy,
    collapse_bound_from_jumps,
    euler_number,
    poincare_laurent,
    q_decomposition,
    rebase,
)
from .io import FcxParseError, parse, serialize
from .kunneth import kunneth_check, power_poincare_check
from .model import (
    GEN_MAX_GENERATORS,
    FcxError,
    FloerComplexData,
    MonotoneParams,
    SizeGuardError,
    require_valid,
    validate,
)
from .synth import PRNG_NAME, random_complex

__all__ = ["main", "entrypoint"]


class _UsageError(FcxError):
    """An argument the command cannot use (exit code 2)."""


def _load(path: str, allow_small_sigma: bool) -> FloerComplexData:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops a byte-order mark
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise FcxParseError(None, f"cannot read '{path}': {reason}") from exc
    return parse(text, allow_small_sigma=allow_small_sigma)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write '{out_path}': {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# Rows and the formatter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Tag:
    """A tag printed as ``text`` in TSV whose human line is ``_HUMAN[kind]``
    of ``extra`` and the row's fields: for a row kind that shares its TSV tag
    with another kind, or whose human line shows more than its fields."""

    text: str
    kind: str
    extra: tuple[object, ...] = ()

    def __str__(self) -> str:
        return self.text


_EULER_WARNING = _Tag("warning", "euler-warning")
_POWER_POLY = _Tag("poly", "power-poly")

# Human lines by tag; any other tag reads "tag field ...".  A row whose tag is
# empty is a note shown only in human output.
_HUMAN: dict[str, Callable[..., str]] = {
    "": str,
    "status": str,
    "error": "error: {}".format,
    "warning": "warning: {}".format,
    "euler-warning": "# warning: {}".format,
    "infeasible": "# infeasible: {}".format,
    "mismatch": "mismatch: {}".format,
    "fail": "fail: {}".format,
    "cohomology": "I^{} {}".format,
    "hf": "HF^{} {}".format,
    "page": "E^{} (n={}, j={}) dim {}".format,
    "chi": lambda k, chi: f"chi {chi}",
    "poly": lambda k, p: f"P(E^{k}) = {p.display()}",
    "power-poly": lambda k, p: f"P(E^{k} of power) = {p.display()}",
    "factor-power": lambda s, k, p: f"P(E^{k} of factor)^{s} = {p.display()}",
    "qbar": lambda i, q: f"Qbar_{i} = {q.display()}",
    "hfpoly": lambda p: f"P(HF) = {p.display()}",
    "cupmap": lambda name, n, m, rank: (
        f"class {name} degree {m - n}: I^{n} -> I^{m} rank {rank}"
    ),
}


def _human(row: tuple) -> str:
    tag, *fields = row
    if isinstance(tag, _Tag):
        tag, fields = tag.kind, [*tag.extra, *fields]
    line = _HUMAN.get(tag)
    return " ".join(map(str, row)) if line is None else line(*fields)


# The TSV line of a row of n elements: "%s\t...%s\n", one "%s" per element.
_TSV_LINES = tuple("\t".join(["%s"] * n) + "\n" for n in range(8))


def _lines(rows: list[tuple], fmt: str) -> str:
    """The text of ``rows`` in ``fmt``: a TSV line is the tag and its fields
    joined by tabs (a polynomial prints as its ``serialize`` form)."""
    if fmt == "tsv":
        return "".join([_TSV_LINES[len(row)] % row for row in rows if row[0]])
    return "".join([_human(row) + "\n" for row in rows])


# ---------------------------------------------------------------------------
# Renderers: each returns (rows, ok).  ``report`` composes them.
# ---------------------------------------------------------------------------


def _render_validate(c: FloerComplexData) -> tuple[list[tuple], bool]:
    report = validate(c)
    ok = report.ok
    rows = [("error", e) for e in report.errors]
    rows += [("warning", w) for w in report.warnings]
    if report.ok:
        for cls in sorted(c.cup_classes, key=lambda cls: cls.name):
            cup_report = validate_cup(c, cls)
            rows += [("error", e) for e in cup_report.errors]
            ok = ok and cup_report.ok
    rows.append(("status", "ok" if ok else "invalid"))
    return rows, ok


def _render_cohomology(table: PageTable) -> tuple[list[tuple], bool]:
    hf: dict[int, int] = {}
    for (_n, j), d in table.page(table.collapse_page).items():
        hf[j] = hf.get(j, 0) + d
    rows = [("cohomology", n, d) for (n, _j), d in sorted(table.page(1).items())]
    rows += [("hf", j, d) for j, d in sorted(hf.items())]
    return rows, True


def _page_range(table: PageTable, last: int | None) -> range:
    """Pages 1..``last``, the ``--max-page`` argument (default: the table's
    ``max_page``, the collapse page + 1)."""
    return range(1, (last or table.max_page) + 1)


def _render_pages(table: PageTable, last: int | None) -> tuple[list[tuple], bool]:
    rows = [
        ("page", k, n, j, dim)
        for k in _page_range(table, last)
        for (n, j), dim in sorted(table.page(k).items())
    ]
    rows.append(("collapse", table.collapse_page))
    return rows, True


def _render_poincare(table: PageTable, last: int | None) -> tuple[list[tuple], bool]:
    rows = [("poly", k, poincare_laurent(table, k)) for k in _page_range(table, last)]
    return rows, True


def _render_euler(table: PageTable, last: int | None) -> tuple[list[tuple], bool]:
    rows: list[tuple] = []
    warnings: dict[str, None] = {}  # first-seen order, no repeats
    for k in _page_range(table, last):
        report = euler_number(table, k)
        rows.append(("chi", k, report.chi))
        warnings.update(dict.fromkeys(report.warnings))
    rows += [(_EULER_WARNING, w) for w in warnings]
    return rows, True


def _render_decompose(c: FloerComplexData) -> tuple[list[tuple], bool]:
    report = q_decomposition(c)
    rows: list[tuple] = [("kmax", report.k_max)]
    rows += [("qbar", i, q) for i, q in enumerate(report.qbars, start=1)]
    rows.append(("hfpoly", report.hf_poly))
    return rows, True


def _render_collapse_bound(
    c: FloerComplexData, energy: float | None
) -> tuple[list[tuple], bool]:
    rows: list[tuple] = [
        ("collapse", collapse_page(c)),
        ("bound-jumps", collapse_bound_from_jumps(c)),
    ]
    if energy is not None:
        report = collapse_bound_from_energy(c, energy)
        rows.append(("bound-energy", report.bound))
        rows += [("infeasible", msg) for msg in report.infeasible_entries]
    return rows, True


def _render_betti(
    c: FloerComplexData, betti: tuple[int, ...], m: int | None
) -> tuple[list[tuple], bool]:
    if m is None:
        m = c.params.half_dim
    if m is None:
        raise FcxError("supply --m or an 'm' header line for the Betti comparison")
    report = betti_compare(c, betti, m)
    rows = [("mismatch", msg) for msg in report.mismatches]
    rows += [
        ("match", "yes" if report.matches else "no"),
        ("floer-bound", "holds" if report.floer_bound_holds else "fails"),
        ("generators", report.generator_count),
        ("betti-sum", report.betti_sum),
    ]
    return rows, report.matches and report.floer_bound_holds


def _render_cup(c: FloerComplexData) -> tuple[list[tuple], bool]:
    require_valid(c)
    if not c.cup_classes:
        return [("", "no cup classes")], True
    rows: list[tuple] = []
    ok = True
    for cls in sorted(c.cup_classes, key=lambda cls: cls.name):
        report = validate_cup(c, cls)
        if not report.ok:
            ok = False
            rows += [("error", e) for e in report.errors]
            continue
        for n, block in induced_on_cohomology(c, cls).blocks:
            rows.append(("cupmap", cls.name, n, n + cls.degree, block.rank()))
    return rows, ok


def _render_ring(c: FloerComplexData) -> tuple[list[tuple], bool]:
    if c.ring is None:
        raise FcxError("document carries no ring table ('ring' lines)")
    module = module_check(c, c.ring)
    inject = injectivity_check(c, c.ring)
    rows: list[tuple] = [("unit", module.unit), ("pairs", module.checked_pairs)]
    rows += [("fail", msg) for msg in module.failures]
    rows.append(("module", "pass" if module.passed else "fail"))
    rows.append(("injective", "yes" if inject.injective else "no"))
    rows += [("kernel", "+".join(combo)) for combo in inject.kernel_combinations]
    return rows, module.passed and inject.injective


def _render_cuplength(c: FloerComplexData) -> tuple[list[tuple], bool]:
    if c.ring is None:
        raise FcxError("document carries no ring table ('ring' lines)")
    report = cuplength_report(c, c.ring)
    return [
        ("cuplength", report.cuplength),
        ("witness", " ".join(report.witness) if report.witness else "-"),
        ("generators", report.generator_count),
        ("bound", "holds" if report.generator_bound_holds else "fails"),
    ], True


def _render_kunneth(
    a: FloerComplexData, b: FloerComplexData, last: int | None
) -> tuple[list[tuple], bool]:
    report = kunneth_check(a, b, upto=last)
    table = pages(report.product.complex)
    rows = _render_pages(table, last)[0] + _render_poincare(table, last)[0]
    rows.append(("kunneth", "pass" if report.passed else "fail"))
    rows += [("fail", msg) for msg in report.failures]
    return rows, report.passed


def _render_power(
    a: FloerComplexData, s: int, max_page: int | None
) -> tuple[list[tuple], bool]:
    report = power_poincare_check(a, s, max_page if max_page is not None else 1)
    return [
        (_POWER_POLY, report.k, report.product_poly),
        (_Tag("expected", "factor-power", (report.s,)), report.k, report.factor_poly_power),
        ("power", "pass" if report.passed else "fail"),
    ], report.passed


def _render_report(c: FloerComplexData, last: int | None) -> tuple[list[tuple], bool]:
    rows, ok = _render_validate(c)
    rows.insert(0, ("# validate",))
    if not ok:
        return rows, False
    table = pages(c)
    sections = [
        ("cohomology", _render_cohomology(table)),
        ("pages", _render_pages(table, last)),
        ("poincare", _render_poincare(table, last)),
        ("euler", _render_euler(table, last)),
        ("decompose", _render_decompose(c)),
        ("collapse-bound", _render_collapse_bound(c, None)),
    ]
    if c.cup_classes:
        sections.append(("cup", _render_cup(c)))
    if c.ring is not None:
        sections.append(("ring", _render_ring(c)))
        sections.append(("cuplength", _render_cuplength(c)))
    for name, (section, section_ok) in sections:
        rows.append((f"# {name}",))
        rows += section
        ok = ok and section_ok
    return rows, ok


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

# Each rendering command's renderer, called with the parsed arguments and the
# loaded documents.  Names such as ``pages`` are looked up when the command
# runs, so a wrapper installed on ``fcx.cli`` sees every call.
_RENDERERS: dict[str, Callable[..., tuple[list[tuple], bool]]] = {
    "validate": lambda args, c: _render_validate(c),
    "cohomology": lambda args, c: _render_cohomology(pages(c)),
    "pages": lambda args, c: _render_pages(pages(c), args.max_page),
    "poincare": lambda args, c: _render_poincare(pages(c), args.max_page),
    "euler": lambda args, c: _render_euler(pages(c), args.max_page),
    "decompose": lambda args, c: _render_decompose(c),
    "collapse-bound": lambda args, c: _render_collapse_bound(c, args.energy),
    "betti": lambda args, c: _render_betti(c, args.betti, args.m),
    "cup": lambda args, c: _render_cup(c),
    "ring": lambda args, c: _render_ring(c),
    "cuplength": lambda args, c: _render_cuplength(c),
    "kunneth": lambda args, a, b: _render_kunneth(a, b, args.max_page),
    "power": lambda args, c: _render_power(c, args.s, args.max_page),
    "report": lambda args, c: _render_report(c, args.max_page),
}


def _cmd_render(args: argparse.Namespace) -> int:
    docs = [
        _load(getattr(args, name), args.allow_small_sigma)
        for name in ("file", "file_a", "file_b")
        if name in args
    ]
    rows, ok = _RENDERERS[args.command](args, *docs)
    sys.stdout.write(_lines(rows, args.format))
    return 0 if ok else 1


def _cmd_rebase(args: argparse.Namespace) -> int:
    c = _load(args.file, args.allow_small_sigma)
    r_new = (
        args.r_new if args.r_new is not None else c.params.window_base + args.delta_r
    )
    moved = rebase(c, r_new)
    _emit(serialize(moved), args.output)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.gens > GEN_MAX_GENERATORS:
        raise SizeGuardError(
            f"gen size guard: --gens {args.gens} exceeds the bound of "
            f"{GEN_MAX_GENERATORS} generators"
        )
    if args.sigma < (1 if args.allow_small_sigma else 3):
        raise _UsageError(
            f"argument --sigma: must be at least 3 (1 with --allow-small-sigma), "
            f"got {args.sigma}"
        )
    seed = args.seed
    if seed is None:  # read when the command runs: the parser is built once
        try:
            seed = _INTEGER(os.environ.get("FCX_SEED") or "0")
        except ArgumentTypeError as exc:
            raise _UsageError(f"FCX_SEED {exc}") from None
    params = MonotoneParams(
        maslov_period=args.sigma,
        monotonicity=args.lam,
        allow_small_period=args.allow_small_sigma,
    )
    scrambled, spec = random_complex(
        seed, params, max_gens=args.gens, max_jump=args.max_jump
    )
    text = serialize(scrambled)
    if args.spec:
        free = " ".join(str(n) for n in spec.free) or "-"
        dipoles = " ".join(f"{n}:{k}" for n, k in spec.dipoles) or "-"
        text += (
            f"# prng {PRNG_NAME} seed {seed}\n"
            f"# normal-form free: {free}\n"
            f"# normal-form dipoles: {dipoles}\n"
        )
    _emit(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _read(kind: type, text: str) -> int | float:
    """``text`` as a ``kind``, as a document writes it: ASCII, no ``_``, no padding."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(text)
    return kind(text)


def _number(kind: type, accept: Callable, rule: str) -> Callable[[str], int | float]:
    """An option type: the value read as a ``kind`` that ``accept`` admits.
    argparse prefixes a refusal's message with ``argument --flag:``."""

    def read(text: str) -> int | float:
        try:
            value = _read(kind, text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ArgumentTypeError(f"must be {what}, got {text!r}") from None
        if not accept(value):
            raise ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return read


_INTEGER = _number(int, lambda n: True, "an integer")


def _at_least(k: int) -> Callable[[str], int | float]:
    return _number(int, lambda n: n >= k, f"at least {k}")


def _betti_numbers(text: str) -> tuple[int, ...]:
    """The ``--betti`` value: comma-separated integers, none below 0."""
    try:
        numbers = tuple(_read(int, x) for x in text.split(","))
    except ValueError:
        raise ArgumentTypeError(f"must be comma-separated integers, got {text!r}") from None
    negative = next((b for b in numbers if b < 0), None)
    if negative is not None:
        raise ArgumentTypeError(f"must be at least 0, got {negative}")
    return numbers


_NEGATIVE_VALUE = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Every usage error, argparse's own included, is one ``fcx:`` line.

    A word that starts with ``-`` and then a digit, a ``.``, ``inf`` or
    ``nan`` (any case, as ``float`` reads them) is a value, so that the
    option's type reads or refuses ``--delta-r -1e5`` as it does
    ``--delta-r=-1e5``; argparse alone takes only ``-5`` and ``-.5`` for
    values and ``-1e5`` or ``-inf`` for an option with no argument.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)


@functools.cache  # one parser per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    finite = _number(float, math.isfinite, "a finite number")
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument(
        "--format", choices=("human", "tsv"), default="human", help="output format"
    )
    sigma = argparse.ArgumentParser(add_help=False)
    sigma.add_argument(
        "--allow-small-sigma",
        action="store_true",
        help="admit period 1 or 2 (drawing a validation warning)",
    )

    parser = _Parser(
        prog="fcx",
        description="Spectral pages and invariants of filtered GF(2) cochain complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, writes_fcx: bool = False) -> argparse.ArgumentParser:
        # gen and rebase write FCX documents, so they take no --format
        return sub.add_parser(name, parents=[sigma] if writes_fcx else [formats, sigma])

    for name in ("validate", "cohomology", "decompose", "cup", "ring", "cuplength"):
        p = add(name)
        p.add_argument("file")

    for name in ("pages", "poincare", "euler"):
        p = add(name)
        p.add_argument("file")
        p.add_argument("--max-page", type=_at_least(1), help="print pages 1..K")

    p = add("rebase", writes_fcx=True)
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta-r", type=finite, help="shift the window base by this amount")
    group.add_argument("--r-new", type=finite, help="absolute new window base")
    p.add_argument(
        "-o", "--output", default=None, help="write the rebased FCX here ('-' is stdout)"
    )

    p = add("collapse-bound")
    p.add_argument("file")
    positive = _number(float, lambda e: 0 < e < math.inf, "a positive finite number")
    p.add_argument("--energy", type=positive, help="energy budget for the second bound")

    p = add("betti")
    p.add_argument("file")
    p.add_argument(
        "--betti",
        required=True,
        type=_betti_numbers,
        help="comma-separated Betti numbers b0,b1,...,bm",
    )
    p.add_argument("--m", type=_at_least(0), help="half-dimension (defaults to the m header)")

    p = add("kunneth")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--max-page", type=_at_least(1))

    p = add("power")
    p.add_argument("file")
    p.add_argument("--s", required=True, type=_at_least(2), help="tensor power exponent (2..4)")
    p.add_argument("--max-page", type=_at_least(1), help="page to check (default 1)")

    p = add("gen", writes_fcx=True)
    p.add_argument("--seed", type=_INTEGER)
    p.add_argument("--gens", type=_at_least(1), default=12, help="maximum generator count")
    p.add_argument("--max-jump", type=_at_least(0), default=2)
    p.add_argument("--sigma", type=_INTEGER, default=4)  # its rule reads --allow-small-sigma
    nonnegative = _number(float, lambda x: 0 <= x < math.inf, "a finite number >= 0")
    p.add_argument("--lambda", dest="lam", type=nonnegative, default=0.5)
    p.add_argument("--spec", action="store_true", help="append the ground-truth normal form as comments")
    p.add_argument("-o", "--output", default=None, help="write the FCX here ('-' is stdout)")

    p = add("report")
    p.add_argument("file")
    p.add_argument("--max-page", type=_at_least(1))

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:  # --help, once printed
            return 0
        handler = {"gen": _cmd_gen, "rebase": _cmd_rebase}.get(args.command, _cmd_render)
        return handler(args)
    except FcxError as exc:
        print(f"fcx: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (FcxParseError, SizeGuardError, _UsageError)) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
