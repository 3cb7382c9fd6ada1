"""Command-line surface for the FCX toolkit.

Subcommands: validate, cohomology, pages, poincare, euler, decompose,
rebase, collapse-bound, betti, kunneth, power, cup, ring, cuplength, gen,
report.  Every command reads FCX documents (see .io) and writes either a
human-readable or a TSV rendering (``--format human|tsv``); output is
deterministic and line-sorted, so two runs on the same input are
byte-identical.

Exit codes: 0 success, 1 validation or check failure, 2 parse or usage
error (including size-guard refusals).  The optional ``FCX_SEED``
environment variable sets the default seed of ``gen``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .cup import (
    cuplength_report,
    induced_on_cohomology,
    injectivity_check,
    module_check,
    validate_cup,
)
from .engine import collapse_page, pages
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
    FcxError,
    FloerComplexData,
    InvalidComplexError,
    MonotoneParams,
    SizeGuardError,
    periodic_cohomology,
    validate,
    z_graded_cohomology,
)
from .synth import PRNG_NAME, random_complex

__all__ = ["main", "entrypoint"]


def _load(path: str, allow_small_sigma: bool) -> FloerComplexData:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FcxParseError(None, f"cannot read '{path}': {exc.strerror}") from exc
    return parse(text, allow_small_sigma=allow_small_sigma)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Section renderers: each returns (lines, ok).  ``report`` composes them.
# ---------------------------------------------------------------------------


def _render_validate(c: FloerComplexData, fmt: str) -> tuple[list[str], bool]:
    report = validate(c)
    lines: list[str] = []
    ok = report.ok
    for e in report.errors:
        lines.append(f"error\t{e}" if fmt == "tsv" else f"error: {e}")
    for w in report.warnings:
        lines.append(f"warning\t{w}" if fmt == "tsv" else f"warning: {w}")
    if report.ok:
        for cls in sorted(c.cup_classes, key=lambda cls: cls.name):
            cup_report = validate_cup(c, cls)
            for e in cup_report.errors:
                lines.append(f"error\t{e}" if fmt == "tsv" else f"error: {e}")
            ok = ok and cup_report.ok
    lines.append(
        ("status\tok" if ok else "status\tinvalid")
        if fmt == "tsv"
        else ("ok" if ok else "invalid")
    )
    return lines, ok


def _render_cohomology(c: FloerComplexData, fmt: str) -> tuple[list[str], bool]:
    z = z_graded_cohomology(c)
    hf = periodic_cohomology(c)
    lines = []
    for n, d in sorted(z.dims):
        lines.append(f"cohomology\t{n}\t{d}" if fmt == "tsv" else f"I^{n} {d}")
    for j, d in sorted(hf.dims):
        lines.append(f"hf\t{j}\t{d}" if fmt == "tsv" else f"HF^{j} {d}")
    return lines, True


def _render_pages(
    c: FloerComplexData, fmt: str, upto: int | None
) -> tuple[list[str], bool]:
    table = pages(c, upto=upto)
    lines = []
    for k in range(1, table.max_page + 1):
        for (n, j), dim in sorted(table.page(k).items()):
            lines.append(
                f"page\t{k}\t{n}\t{j}\t{dim}"
                if fmt == "tsv"
                else f"E^{k} (n={n}, j={j}) dim {dim}"
            )
    lines.append(
        f"collapse\t{table.collapse_page}"
        if fmt == "tsv"
        else f"collapse {table.collapse_page}"
    )
    return lines, True


def _render_poincare(
    c: FloerComplexData, fmt: str, upto: int | None
) -> tuple[list[str], bool]:
    table = pages(c, upto=upto)
    lines = []
    for k in range(1, table.max_page + 1):
        poly = poincare_laurent(table, k)
        lines.append(
            f"poly\t{k}\t{poly.serialize()}"
            if fmt == "tsv"
            else f"P(E^{k}) = {poly.display()}"
        )
    return lines, True


def _render_euler(
    c: FloerComplexData, fmt: str, upto: int | None
) -> tuple[list[str], bool]:
    table = pages(c, upto=upto)
    lines = []
    warnings: list[str] = []
    for k in range(1, table.max_page + 1):
        report = euler_number(table, k)
        lines.append(f"chi\t{k}\t{report.chi}" if fmt == "tsv" else f"chi {report.chi}")
        for w in report.warnings:
            if w not in warnings:
                warnings.append(w)
    for w in warnings:
        lines.append(f"warning\t{w}" if fmt == "tsv" else f"# warning: {w}")
    return lines, True


def _render_decompose(c: FloerComplexData, fmt: str) -> tuple[list[str], bool]:
    report = q_decomposition(c)
    lines = [f"kmax\t{report.k_max}" if fmt == "tsv" else f"kmax {report.k_max}"]
    for i, q in enumerate(report.qbars, start=1):
        lines.append(
            f"qbar\t{i}\t{q.serialize()}" if fmt == "tsv" else f"Qbar_{i} = {q.display()}"
        )
    lines.append(
        f"hfpoly\t{report.hf_poly.serialize()}"
        if fmt == "tsv"
        else f"P(HF) = {report.hf_poly.display()}"
    )
    return lines, True


def _render_collapse_bound(
    c: FloerComplexData, fmt: str, energy: float | None
) -> tuple[list[str], bool]:
    k_collapse = collapse_page(c)
    bound_jumps = collapse_bound_from_jumps(c)
    lines = [
        f"collapse\t{k_collapse}" if fmt == "tsv" else f"collapse {k_collapse}",
        f"bound-jumps\t{bound_jumps}" if fmt == "tsv" else f"bound-jumps {bound_jumps}",
    ]
    if energy is not None:
        report = collapse_bound_from_energy(c, energy)
        lines.append(
            f"bound-energy\t{report.bound}"
            if fmt == "tsv"
            else f"bound-energy {report.bound}"
        )
        for msg in report.infeasible_entries:
            lines.append(f"infeasible\t{msg}" if fmt == "tsv" else f"# infeasible: {msg}")
    return lines, True


def _render_betti(
    c: FloerComplexData, fmt: str, betti: tuple[int, ...], m: int | None
) -> tuple[list[str], bool]:
    if m is None:
        m = c.params.half_dim
    if m is None:
        raise FcxError("supply --m or an 'm' header line for the Betti comparison")
    report = betti_compare(c, betti, m)
    ok = report.matches and report.floer_bound_holds
    lines = []
    for msg in report.mismatches:
        lines.append(f"mismatch\t{msg}" if fmt == "tsv" else f"mismatch: {msg}")
    rows = [
        ("match", "yes" if report.matches else "no"),
        ("floer-bound", "holds" if report.floer_bound_holds else "fails"),
        ("generators", str(report.generator_count)),
        ("betti-sum", str(report.betti_sum)),
    ]
    for key, value in rows:
        lines.append(f"{key}\t{value}" if fmt == "tsv" else f"{key} {value}")
    return lines, ok


def _render_cup(c: FloerComplexData, fmt: str) -> tuple[list[str], bool]:
    if not c.cup_classes:
        return (["no cup classes"] if fmt == "human" else [], True)
    lines = []
    ok = True
    for cls in sorted(c.cup_classes, key=lambda cls: cls.name):
        report = validate_cup(c, cls)
        if not report.ok:
            ok = False
            for e in report.errors:
                lines.append(f"error\t{e}" if fmt == "tsv" else f"error: {e}")
            continue
        action = induced_on_cohomology(c, cls)
        for n, block in action.blocks:
            lines.append(
                f"cupmap\t{cls.name}\t{n}\t{n + cls.degree}\t{block.rank()}"
                if fmt == "tsv"
                else (
                    f"class {cls.name} degree {cls.degree}: "
                    f"I^{n} -> I^{n + cls.degree} rank {block.rank()}"
                )
            )
    return lines, ok


def _render_ring(c: FloerComplexData, fmt: str) -> tuple[list[str], bool]:
    if c.ring is None:
        raise FcxError("document carries no ring table ('ring' lines)")
    module = module_check(c, c.ring)
    inject = injectivity_check(c, c.ring)
    ok = module.passed and inject.injective
    lines = [
        f"unit\t{module.unit}" if fmt == "tsv" else f"unit {module.unit}",
        f"pairs\t{module.checked_pairs}" if fmt == "tsv" else f"pairs {module.checked_pairs}",
    ]
    for msg in module.failures:
        lines.append(f"fail\t{msg}" if fmt == "tsv" else f"fail: {msg}")
    lines.append(
        f"module\t{'pass' if module.passed else 'fail'}"
        if fmt == "tsv"
        else f"module {'pass' if module.passed else 'fail'}"
    )
    lines.append(
        f"injective\t{'yes' if inject.injective else 'no'}"
        if fmt == "tsv"
        else f"injective {'yes' if inject.injective else 'no'}"
    )
    for combo in inject.kernel_combinations:
        joined = "+".join(combo)
        lines.append(f"kernel\t{joined}" if fmt == "tsv" else f"kernel {joined}")
    return lines, ok


def _render_cuplength(c: FloerComplexData, fmt: str) -> tuple[list[str], bool]:
    if c.ring is None:
        raise FcxError("document carries no ring table ('ring' lines)")
    report = cuplength_report(c, c.ring)
    witness = " ".join(report.witness) if report.witness else "-"
    rows = [
        ("cuplength", str(report.cuplength)),
        ("witness", witness),
        ("generators", str(report.generator_count)),
        ("bound", "holds" if report.generator_bound_holds else "fails"),
    ]
    lines = [f"{k}\t{v}" if fmt == "tsv" else f"{k} {v}" for k, v in rows]
    return lines, True


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _print(lines: list[str]) -> None:
    for line in lines:
        sys.stdout.write(line + "\n")


def _cmd_simple(args: argparse.Namespace) -> int:
    c = _load(args.file, args.allow_small_sigma)
    renderers = {
        "validate": lambda: _render_validate(c, args.format),
        "cohomology": lambda: _render_cohomology(c, args.format),
        "pages": lambda: _render_pages(c, args.format, args.max_page),
        "poincare": lambda: _render_poincare(c, args.format, args.max_page),
        "euler": lambda: _render_euler(c, args.format, args.max_page),
        "decompose": lambda: _render_decompose(c, args.format),
        "collapse-bound": lambda: _render_collapse_bound(c, args.format, args.energy),
        "betti": lambda: _render_betti(c, args.format, args.betti, args.m),
        "cup": lambda: _render_cup(c, args.format),
        "ring": lambda: _render_ring(c, args.format),
        "cuplength": lambda: _render_cuplength(c, args.format),
    }
    lines, ok = renderers[args.command]()
    _print(lines)
    return 0 if ok else 1


def _cmd_rebase(args: argparse.Namespace) -> int:
    c = _load(args.file, args.allow_small_sigma)
    r_new = (
        args.r_new if args.r_new is not None else c.params.window_base + args.delta_r
    )
    moved = rebase(c, r_new)
    _emit(serialize(moved), args.output)
    return 0


def _cmd_kunneth(args: argparse.Namespace) -> int:
    a = _load(args.file_a, args.allow_small_sigma)
    b = _load(args.file_b, args.allow_small_sigma)
    report = kunneth_check(a, b, upto=args.max_page)
    fmt = args.format
    lines, _ = _render_pages(report.product.complex, fmt, args.max_page)
    poly_lines, _ = _render_poincare(report.product.complex, fmt, args.max_page)
    lines.extend(poly_lines)
    verdict = "pass" if report.passed else "fail"
    lines.append(f"kunneth\t{verdict}" if fmt == "tsv" else f"kunneth {verdict}")
    for msg in report.failures:
        lines.append(f"fail\t{msg}" if fmt == "tsv" else f"fail: {msg}")
    _print(lines)
    return 0 if report.passed else 1


def _cmd_power(args: argparse.Namespace) -> int:
    a = _load(args.file, args.allow_small_sigma)
    k = args.max_page if args.max_page is not None else 1
    report = power_poincare_check(a, args.s, k)
    fmt = args.format
    verdict = "pass" if report.passed else "fail"
    if fmt == "tsv":
        lines = [
            f"poly\t{report.k}\t{report.product_poly.serialize()}",
            f"expected\t{report.k}\t{report.factor_poly_power.serialize()}",
            f"power\t{verdict}",
        ]
    else:
        lines = [
            f"P(E^{report.k} of power) = {report.product_poly.display()}",
            f"P(E^{report.k} of factor)^{report.s} = {report.factor_poly_power.display()}",
            f"power {verdict}",
        ]
    _print(lines)
    return 0 if report.passed else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:  # read when the command runs: the parser is built once
        env_seed = os.environ.get("FCX_SEED")
        seed = int(env_seed) if env_seed else 0
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


def _cmd_report(args: argparse.Namespace) -> int:
    c = _load(args.file, args.allow_small_sigma)
    fmt = args.format
    out: list[str] = ["# validate"]
    v_lines, v_ok = _render_validate(c, fmt)
    out.extend(v_lines)
    if not v_ok:
        _print(out)
        return 1
    ok = True
    sections: list[tuple[str, tuple[list[str], bool]]] = [
        ("cohomology", _render_cohomology(c, fmt)),
        ("pages", _render_pages(c, fmt, args.max_page)),
        ("poincare", _render_poincare(c, fmt, args.max_page)),
        ("euler", _render_euler(c, fmt, args.max_page)),
        ("decompose", _render_decompose(c, fmt)),
        ("collapse-bound", _render_collapse_bound(c, fmt, None)),
    ]
    if c.cup_classes:
        sections.append(("cup", _render_cup(c, fmt)))
    if c.ring is not None:
        sections.append(("ring", _render_ring(c, fmt)))
        sections.append(("cuplength", _render_cuplength(c, fmt)))
    for name, (lines, section_ok) in sections:
        out.append(f"# {name}")
        out.extend(lines)
        ok = ok and section_ok
    _print(out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache  # one parser per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("human", "tsv"), default="human", help="output format"
    )
    common.add_argument(
        "--allow-small-sigma",
        action="store_true",
        help="admit period 1 or 2 (drawing a validation warning)",
    )

    parser = argparse.ArgumentParser(
        prog="fcx",
        description="Spectral pages and invariants of filtered GF(2) cochain complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs: object) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], **kwargs)  # type: ignore[arg-type]

    for name in ("validate", "cohomology", "decompose", "cup", "ring", "cuplength"):
        p = add(name)
        p.add_argument("file")

    for name in ("pages", "poincare", "euler"):
        p = add(name)
        p.add_argument("file")
        p.add_argument("--max-page", type=int, default=None, help="materialize pages up to K")

    p = add("rebase")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta-r", type=float, help="shift the window base by this amount")
    group.add_argument("--r-new", type=float, help="absolute new window base")
    p.add_argument("-o", "--output", default=None, help="write the rebased FCX here")

    p = add("collapse-bound")
    p.add_argument("file")
    p.add_argument("--energy", type=float, default=None, help="energy budget for the second bound")

    p = add("betti")
    p.add_argument("file")
    p.add_argument(
        "--betti",
        required=True,
        type=lambda s: tuple(int(x) for x in s.split(",")),
        help="comma-separated Betti numbers b0,b1,...,bm",
    )
    p.add_argument("--m", type=int, default=None, help="half-dimension (defaults to the m header)")

    p = add("kunneth")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--max-page", type=int, default=None)

    p = add("power")
    p.add_argument("file")
    p.add_argument("--s", required=True, type=int, help="tensor power exponent (2..4)")
    p.add_argument("--max-page", type=int, default=None, help="page to check (default 1)")

    p = add("gen")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--gens", type=int, default=12, help="maximum generator count")
    p.add_argument("--max-jump", type=int, default=2)
    p.add_argument("--sigma", type=int, default=4)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--spec", action="store_true", help="append the ground-truth normal form as comments")
    p.add_argument("-o", "--output", default=None)

    p = add("report")
    p.add_argument("file")
    p.add_argument("--max-page", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.command == "rebase":
            return _cmd_rebase(args)
        if args.command == "kunneth":
            return _cmd_kunneth(args)
        if args.command == "power":
            return _cmd_power(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_simple(args)
    except FcxParseError as exc:
        print(f"fcx: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"fcx: {exc}", file=sys.stderr)
        return 2
    except InvalidComplexError as exc:
        print(f"fcx: {exc}", file=sys.stderr)
        return 1
    except FcxError as exc:
        print(f"fcx: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
