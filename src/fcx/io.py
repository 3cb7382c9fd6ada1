"""The FCX text format: line-oriented parser and canonical serializer.

Grammar (one directive per line; ``#`` starts a comment; blank lines are
ignored; tokens are whitespace-separated):

    fcx 1                         version line, must be the first directive
    sigma <posint>                Maslov period (required, exactly once)
    lambda <decimal>              monotonicity constant (required, exactly once)
    r <decimal>                   action window base (optional, default 0)
    m <nonnegint>                 ambient half-dimension (optional)
    gen <id> <int> [<decimal>]    generator: id, lifted degree, optional action
    d <src-id> <dst-id>           differential entry with coefficient 1
    cup <name> <nonnegint>        declare a cup class and its degree
    c <name> <src-id> <dst-id>    one GF(2) entry of a cup class
    ring <a> <b> <c|0>            product table row (0 means zero product)

Ids and class names match ``[A-Za-z0-9_*]+`` (the ``*`` admits tensor-product
generator names like ``x*y``, so serialized products re-parse).  Integers are
ASCII digits with an optional sign.  Decimals are plain base-10 with optional
sign and fraction, no exponent, and finite.  Line order after the version
line is non-semantic: a ``d``, ``c`` or ``ring`` line may name a generator
or class declared further down (a ``c`` line may precede its class's
``cup`` line), and the loaded complex always carries the canonical internal
ordering.

Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``; no other character ends a
line, so line numbers are the ones an editor shows.  The parser reads the
text in blocks of about 64 KiB, each cut at a ``\\n``, and splits one block
into lines at a time (``_blocks``), so a document's lines are never all held
at once; the lines read, and their numbers, are those of the whole text.

A ``d`` line is an entry of the differential and a ``c`` line an entry of
its class, and both take one path: the parser resolves the entry's ids to
generator indices as it reads, against declaration order, and sets the
entry's bit in the source's column of its owner (the differential, or the
class).  An entry that names a generator declared later waits until the end
of the document.  Repeats are counted, not looked up: a repeated entry sets
no new bit, so after the last line (or at the first other fault) the set
bits and the waiting entries number fewer than the entry lines read.  Only
then does a scan of those lines find the first repeat, so the earliest fault
in line order is still the one raised.  The complex and its classes keep
the columns, the only stored form of either
(``FloerComplexData.from_columns``, which puts the differential's in
canonical order, and ``CupClass.from_columns``): no ``(src, dst)`` entry is
built unless something reads ``delta`` or a class's ``entries``.  The
serializer reads the stored form too (``_targets``): it collects the target
ids per source id and sorts both, which is the order of the sorted entries,
and writes the entry lines of one source as one string.

The serializer is canonical: fixed header order, generators sorted by
(degree, id), differential entries by (src, dst), cup data sorted by class
name, actions printed with 12 significant digits.  ``parse(serialize(c))``
reproduces ``c`` exactly whenever its decimals survive 12-digit printing
(all generated corpora do), except ``allow_small_period``: that flag is a
reading option, not part of the document, so a complex of period 1 or 2
comes back only from ``parse(text, allow_small_sigma=True)``.  A unit class
is not a document directive, and neither a ``RingTable`` nor the API names
one: the unit is the class named ``1``, else the unique degree-0 identity
class (``cup.resolve_unit``).
"""

from __future__ import annotations

import math
import re
from itertools import chain
from typing import Iterator

from .model import (
    CupClass,
    FcxError,
    FloerComplexData,
    LiftedGenerator,
    MonotoneParams,
    RingTable,
)

__all__ = ["FcxParseError", "parse", "serialize", "format_decimal"]

_ID_RE = re.compile(r"^[A-Za-z0-9_*]+$")
_INT_RE = re.compile(r"[+-]?[0-9]+")
_DECIMAL_RE = re.compile(r"^[+-]?[0-9]+(\.[0-9]+)?$")
# Characters of text that ``parse`` splits into lines at once: the lines of a
# block cost several times its text, so it reads a large document in blocks.
_BLOCK = 1 << 16


class FcxParseError(FcxError):
    """A grammar-level failure, carrying the 1-based line number."""

    def __init__(self, line_no: int | None, message: str) -> None:
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)
        self.line_no = line_no


def _parse_int(line_no: int, token: str, what: str, minimum: int | None = None) -> int:
    if not _INT_RE.fullmatch(token):  # int() alone also takes '1_0' and non-ASCII digits
        raise FcxParseError(line_no, f"{what} must be an integer, got '{token}'")
    value = int(token)
    if minimum is not None and value < minimum:
        raise FcxParseError(line_no, f"{what} must be >= {minimum}, got {value}")
    return value


def _parse_decimal(line_no: int, token: str, what: str) -> float:
    if not _DECIMAL_RE.match(token):
        raise FcxParseError(
            line_no, f"{what} must be a plain decimal number, got '{token}'"
        )
    value = float(token)
    if not math.isfinite(value):
        raise FcxParseError(line_no, f"{what} must be a finite number")
    return value


def _parse_id(line_no: int, token: str, what: str) -> str:
    if not _ID_RE.match(token):
        raise FcxParseError(
            line_no, f"{what} must match [A-Za-z0-9_*]+, got '{token}'"
        )
    return token


def _require_arity(line_no: int, tokens: list[str], allowed: tuple[int, ...]) -> None:
    if len(tokens) - 1 not in allowed:
        options = " or ".join(str(a) for a in allowed)
        raise FcxParseError(
            line_no,
            f"directive '{tokens[0]}' takes {options} argument(s), "
            f"got {len(tokens) - 1}",
        )


def parse(text: str, allow_small_sigma: bool = False) -> FloerComplexData:
    """Parse an FCX document into a complex (grammar check only, no validation).

    Raises FcxParseError with a 1-based line number on any grammar problem:
    unknown directives, bad token shapes, duplicate declarations (citing both
    lines), missing required header fields, or dangling references.
    """
    header: dict[str, tuple[int, object]] = {}  # directive -> (line, value)
    index: dict[str, int] = {}  # generator id -> declaration index
    gens: list[LiftedGenerator] = []  # in declaration order
    gen_lines: list[int] = []
    cols: list[int] = []  # cols[s]: bitset of the targets of gens[s]
    # owner -> its columns, one per generator declared so far: the
    # differential under None, each cup class from its first 'c' line on
    # (which may precede its 'cup' line)
    columns: dict[str | None, list[int]] = {None: cols}
    # 'd' and 'c' lines naming a generator not declared yet:
    # (owner, src, dst) -> line, in line order; resolved after the last line.
    pending: dict[tuple[str | None, str, str], int] = {}
    cups: dict[str, tuple[int, int]] = {}  # name -> (line, degree)
    ring_rows: dict[tuple[str, str], tuple[int, str | None]] = {}
    # (line, class name) to resolve against the 'cup' lines: a class on the
    # first 'c' line naming it, every class on a 'ring' line.
    pending_refs: list[tuple[int, str]] = []
    version_line: int | None = None

    # Lines break at '\n', '\r\n' or a lone '\r' only; any other line
    # boundary of ``str.splitlines`` ('\f', '\x85', ...) is whitespace.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    other = 0  # lines read that are not 'd' or 'c' entry lines
    try:
        for line_no, raw in enumerate(chain.from_iterable(_blocks(text)), start=1):
            # Fast path for the bulk of a document: a 'd' line, or a 'c' line
            # of a class already seen, whose ids are both declared.  Its
            # entry is one bit of a column of its owner.  An id never holds
            # '#', so the line has no comment; and no id is declared before
            # the version line.  Repeats are found once, after the loop.
            tokens = raw.split()
            try:
                if len(tokens) == 3:
                    if tokens[0] == "d":
                        cols[index[tokens[1]]] |= 1 << index[tokens[2]]
                        continue
                elif len(tokens) == 4 and tokens[0] == "c":
                    columns[tokens[1]][index[tokens[2]]] |= 1 << index[tokens[3]]
                    continue
            except KeyError:
                pass

            other += 1
            if "#" in raw:
                tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            directive = tokens[0]
            if version_line is None and directive != "fcx":
                raise FcxParseError(line_no, "first directive must be 'fcx 1'")

            if directive == "fcx":
                _require_arity(line_no, tokens, (1,))
                if version_line is not None:
                    raise FcxParseError(
                        line_no, f"duplicate 'fcx' line (first on line {version_line})"
                    )
                if tokens[1] != "1":
                    raise FcxParseError(
                        line_no, f"unsupported format version '{tokens[1]}' (expected 1)"
                    )
                version_line = line_no
            elif directive in ("sigma", "lambda", "r", "m"):
                _require_arity(line_no, tokens, (1,))
                if directive in header:
                    raise FcxParseError(
                        line_no,
                        f"duplicate '{directive}' line (first on line {header[directive][0]})",
                    )
                if directive == "sigma":
                    value: object = _parse_int(line_no, tokens[1], "sigma", minimum=1)
                elif directive == "m":
                    value = _parse_int(line_no, tokens[1], "m", minimum=0)
                else:
                    value = _parse_decimal(line_no, tokens[1], directive)
                header[directive] = (line_no, value)
            elif directive == "gen":
                _require_arity(line_no, tokens, (2, 3))
                uid = _parse_id(line_no, tokens[1], "generator id")
                if uid in index:
                    raise FcxParseError(
                        line_no,
                        f"duplicate generator '{uid}' (first declared on line "
                        f"{gen_lines[index[uid]]})",
                    )
                degree = _parse_int(line_no, tokens[2], "lifted degree")
                action = (
                    _parse_decimal(line_no, tokens[3], "action") if len(tokens) == 4 else None
                )
                index[uid] = len(gens)
                gens.append(LiftedGenerator(uid, degree, action))
                gen_lines.append(line_no)
                for owner_cols in columns.values():
                    owner_cols.append(0)
            elif directive == "d" or directive == "c":
                # The entry lines off the fast path: a comment, a class's
                # first 'c' line, an id not declared yet, or a fault.
                if directive == "d":
                    _require_arity(line_no, tokens, (2,))
                    _, src, dst = tokens
                    owner = None
                else:
                    _require_arity(line_no, tokens, (3,))
                    _, owner, src, dst = tokens
                    if owner not in columns:
                        _parse_id(line_no, owner, "class name")
                        columns[owner] = [0] * len(gens)
                        pending_refs.append((line_no, owner))
                s = index.get(src)
                t = index.get(dst)
                if s is None or t is None:
                    # A declared id matched the id pattern on its 'gen' line.
                    if s is None:
                        _parse_id(line_no, src, "source id")
                    if t is None:
                        _parse_id(line_no, dst, "target id")
                    # an entry naming a generator not declared yet waits
                    pending.setdefault((owner, src, dst), line_no)
                else:
                    columns[owner][s] |= 1 << t
                other -= 1
            elif directive == "cup":
                _require_arity(line_no, tokens, (2,))
                name = _parse_id(line_no, tokens[1], "class name")
                if name in cups:
                    raise FcxParseError(
                        line_no,
                        f"duplicate cup class '{name}' (first declared on line {cups[name][0]})",
                    )
                degree = _parse_int(line_no, tokens[2], "class degree", minimum=0)
                cups[name] = (line_no, degree)
            elif directive == "ring":
                _require_arity(line_no, tokens, (3,))
                a = _parse_id(line_no, tokens[1], "class name")
                b = _parse_id(line_no, tokens[2], "class name")
                result = tokens[3]
                if result != "0":
                    result = _parse_id(line_no, tokens[3], "product class name")
                    pending_refs.append((line_no, result))
                key = (min(a, b), max(a, b))
                if key in ring_rows:
                    raise FcxParseError(
                        line_no,
                        f"duplicate ring row for ({key[0]}, {key[1]}) "
                        f"(first on line {ring_rows[key][0]})",
                    )
                ring_rows[key] = (line_no, None if result == "0" else result)
                pending_refs.append((line_no, a))
                pending_refs.append((line_no, b))
            else:
                raise FcxParseError(line_no, f"unknown directive '{directive}'")
    except FcxParseError as error:
        fault = error  # raised after any repeat on the lines before it
    else:
        fault = None

    # Resolve the waiting entries whose ids are declared now.  A repeated
    # entry sets no new bit and adds no waiting key, so without one the set
    # bits and the entries still waiting number exactly the entry lines read.
    waiting = 0
    for owner, src, dst in pending:
        s = index.get(src)
        t = index.get(dst)
        if s is None or t is None:
            waiting += 1
        else:
            columns[owner][s] |= 1 << t
    bits = sum(sum(map(int.bit_count, owner_cols)) for owner_cols in columns.values())
    if bits + waiting != line_no - other:
        # the faulty line repeats no entry: its twin would have faulted first
        raise _first_repeat(text.split("\n", line_no)[:line_no])
    if fault is not None:
        raise fault

    if version_line is None:
        raise FcxParseError(None, "missing required directive 'fcx 1'")
    for required in ("sigma", "lambda"):
        if required not in header:
            raise FcxParseError(None, f"missing required directive '{required}'")

    # The earliest unknown reference, in line order (a class before its
    # generators, src before dst).
    unknown = [
        (line_no, "generator", src if src not in index else dst)
        for (_owner, src, dst), line_no in pending.items()
        if src not in index or dst not in index
    ][:1]
    unknown += [
        (line_no, "cup class", name) for line_no, name in pending_refs if name not in cups
    ][:1]
    if unknown:
        line_no, kind, name = min(unknown)
        raise FcxParseError(line_no, f"unknown {kind} '{name}'")

    params = MonotoneParams(
        maslov_period=header["sigma"][1],  # type: ignore[arg-type]
        monotonicity=header["lambda"][1],  # type: ignore[arg-type]
        window_base=header["r"][1] if "r" in header else 0.0,  # type: ignore[arg-type]
        half_dim=header["m"][1] if "m" in header else None,  # type: ignore[arg-type]
        allow_small_period=allow_small_sigma,
    )
    uids = tuple(g.uid for g in gens) if cups else ()
    cup_classes = [
        CupClass.from_columns(name, degree, uids, columns.get(name) or [0] * len(gens))
        for name, (_line, degree) in sorted(cups.items())
    ]
    ring = (
        RingTable(
            products=tuple(
                (pair, result) for pair, (_line, result) in sorted(ring_rows.items())
            )
        )
        if ring_rows
        else None
    )
    # Put in canonical order by ``from_columns``; a serialized document is
    # in that order already.
    return FloerComplexData.from_columns(params, gens, cols, cup_classes, ring)


def _blocks(text: str) -> Iterator[list[str]]:
    """The lines of ``text.split("\\n")``, split one block at a time: each
    block but the last ends at the first ``\\n`` at least ``_BLOCK``
    characters past its start, so no line is cut and only one block's lines
    are held at once."""
    pos = 0
    while True:
        cut = text.find("\n", pos + _BLOCK)
        if cut < 0:
            yield text[pos:].split("\n")
            return
        yield text[pos:cut].split("\n")
        pos = cut + 1


def _first_repeat(lines: list[str]) -> FcxParseError:
    """The error for the first entry line of ``lines`` that repeats an
    earlier one (there is one)."""
    seen: dict[tuple[str, ...], int] = {}
    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens[:1] == ["d"] and len(tokens) == 3 or tokens[:1] == ["c"] and len(tokens) == 4:
            first = seen.setdefault(tuple(tokens), line_no)
            if first != line_no:
                entry = (
                    f"differential entry ({tokens[1]} -> {tokens[2]})"
                    if tokens[0] == "d"
                    else f"entry ({tokens[2]} -> {tokens[3]}) for class '{tokens[1]}'"
                )
                return FcxParseError(line_no, f"duplicate {entry} (first on line {first})")
    raise AssertionError("no repeated entry line")


def format_decimal(x: float) -> str:
    """12-significant-digit plain decimal (no exponent), canonical for FCX."""
    s = f"{x:.12g}"
    if "e" in s or "E" in s:
        s = f"{x:.20f}".rstrip("0").rstrip(".")
    if s in ("-0", ""):
        s = "0"
    return s


def serialize(c: FloerComplexData) -> str:
    """Canonical FCX text for a complex; see the module docstring for the
    contract.  ``allow_small_period`` is a reading option and is not written."""
    lines = ["fcx 1"]
    lines.append(f"sigma {c.params.maslov_period}")
    lines.append(f"lambda {format_decimal(c.params.monotonicity)}")
    lines.append(f"r {format_decimal(c.params.window_base)}")
    if c.params.half_dim is not None:
        lines.append(f"m {c.params.half_dim}")
    for g in c.generators:  # canonical (degree, uid) order
        if g.action is None:
            lines.append(f"gen {g.uid} {g.degree}")
        else:
            lines.append(f"gen {g.uid} {g.degree} {format_decimal(g.action)}")
    # canonical (src, dst) order, read off the stored form; one string per
    # source, as a string per entry costs several times the text
    for src, dsts in c._targets():
        head = f"d {src} "
        lines.append(head + ("\n" + head).join(dsts))
    for cls in sorted(c.cup_classes, key=lambda cls: cls.name):
        lines.append(f"cup {cls.name} {cls.degree}")
        for src, dsts in cls._targets():
            head = f"c {cls.name} {src} "
            lines.append(head + ("\n" + head).join(dsts))
    if c.ring is not None:
        for (a, b), result in c.ring.products:
            lines.append(f"ring {a} {b} {result if result is not None else '0'}")
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)
