"""Tests for cup-class validation, induced actions, ring checks, and cuplength."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcx.cli import main
from fcx.cup import (
    CupClass,
    RingTable,
    cuplength_report,
    induced_on_cohomology,
    induced_on_pages,
    injectivity_check,
    module_check,
    require_valid_cup,
    resolve_unit,
    validate_cup,
)
from fcx.engine import pages
from fcx.gf2 import Gf2Matrix, apply_columns, bits, kernel_basis
from fcx.invariants import rebase
from fcx.io import FcxParseError, parse, serialize
from fcx.kunneth import tensor_product
from fcx.model import (
    DifferentialEntry,
    EngineConsistencyError,
    FcxError,
    FloerComplexData,
    LiftedGenerator,
    MonotoneParams,
)
from fcx.synth import (
    NormalFormSpec,
    build_from_normal_form,
    random_complex,
    random_filtered_automorphism,
)

P3 = MonotoneParams(3, 0.0)
P4 = MonotoneParams(4, 0.0)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
periods = st.sampled_from([3, 4, 6])


def complex_of(params, gens, delta=(), cups=(), ring=None):
    return FloerComplexData(
        params,
        tuple(LiftedGenerator(u, n) for u, n in gens),
        tuple(DifferentialEntry(s, t) for s, t in delta),
        cup_classes=cups,
        ring=ring,
    )


def class_columns(c, cls):
    """The class as columns, by a plain XOR over its entries whose ids both
    resolve, with this test's own uid -> index map."""
    idx = {g.uid: i for i, g in enumerate(c.generators)}
    cols = [0] * c.count
    for src, dst in cls.entries:
        if src in idx and dst in idx:
            cols[idx[src]] ^= 1 << idx[dst]
    return cols


def class_entries(c, cls):
    """The entries of a class with columns, read off them by hand."""
    uids = [g.uid for g in c.generators]
    return tuple(
        (uids[s], uids[t]) for s, col in enumerate(cls._columns) for t in bits(col)
    )


def ident_class(c, name="1"):
    return CupClass(name, 0, tuple((g.uid, g.uid) for g in c.generators))


DIPOLE = complex_of(P4, [("x", 0), ("y", 5)], [("x", "y")])
FREE2 = complex_of(P3, [("u", 0), ("v", 2)])
Q2 = CupClass("q", 2, (("u", "v"),))
FREE3 = complex_of(P3, [("p", 0), ("q", 2), ("r", 4)])


def test_validate_cup_accepts_identity_and_degree_respecting_classes():
    assert validate_cup(DIPOLE, ident_class(DIPOLE)).ok
    assert validate_cup(FREE2, Q2).ok


def test_validate_cup_rejects_broken_commutation_with_witness():
    viol = complex_of(
        P3,
        [("u", 0), ("t", 1), ("v", 2), ("w", 3)],
        [("u", "t"), ("v", "w")],
    )
    report = validate_cup(viol, CupClass("q", 2, (("u", "v"),)))
    assert not report.ok
    assert any("witness" in e for e in report.errors)


def test_validate_cup_rejects_degree_pattern_and_unknown_ids():
    bad_deg = validate_cup(FREE2, CupClass("bad", 1, (("u", "v"),)))
    assert not bad_deg.ok and "expected 1" in bad_deg.errors[0]
    unknown = validate_cup(FREE2, CupClass("bad", 2, (("u", "zz"),)))
    assert not unknown.ok and "unknown" in unknown.errors[0]


def test_validate_cup_reports_every_entry_error_in_entry_order():
    entries = (
        ("zz", "p"), ("p", "q"), ("q", "zz"), ("p", "r"), ("p", "q"),
        ("q", "r"), ("zz", "p"), ("zz", "zz"), ("q", "r"),
    )
    report = validate_cup(FREE3, CupClass("bad", 2, entries))
    assert report.errors == (
        "class 'bad' repeats the entry (p -> q)",
        "class 'bad' entry (p -> r) changes degree by 4, expected 2",
        "class 'bad' repeats the entry (q -> r)",
        "class 'bad' references unknown generator 'zz'",
        "class 'bad' references unknown generator 'zz'",
        "class 'bad' references unknown generator 'zz'",
        "class 'bad' references unknown generator 'zz'",
    )
    assert validate_cup(FREE3, CupClass("neg", -2, (("p", "q"),))).errors == (
        "class 'neg' has negative degree -2",
        "class 'neg' entry (p -> q) changes degree by 2, expected -2",
    )


def test_identity_class_induces_identity_on_every_cell():
    three = complex_of(P4, [("x", 0), ("x2", 4), ("y", 5)], [("x", "y")])
    table = pages(three)
    for k in range(1, table.max_page + 1):
        ind = induced_on_pages(three, ident_class(three), k)
        for (n, j), m in ind.as_dict().items():
            assert m == Gf2Matrix.identity(m.n_rows)


def test_induced_on_cohomology_of_degree_two_class():
    act = induced_on_cohomology(FREE2, Q2)
    blocks = dict(act.blocks)
    assert blocks[0] == Gf2Matrix.identity(1)
    assert blocks[2] == Gf2Matrix.zero(0, 1)


def test_induced_on_pages_rank_one_map_on_all_pages():
    for k in (1, 2, 5):
        maps = induced_on_pages(FREE2, Q2, k).as_dict()
        assert maps[(0, 0)].rows == (1,)
        assert maps[(2, 2)] == Gf2Matrix.zero(0, 1)


def test_induced_on_pages_of_acyclic_complex_is_empty():
    acyclic = complex_of(P3, [("x", 0), ("y", 1)], [("x", "y")])
    assert induced_on_pages(acyclic, ident_class(acyclic), 1).as_dict() == {}


def test_module_check_unit_only():
    c = complex_of(
        P4, [("x", 0), ("y", 5)], [("x", "y")], cups=(ident_class(DIPOLE),)
    )
    ring = RingTable(products=((("1", "1"), "1"),))
    report = module_check(c, ring)
    assert report.passed and report.unit == "1"


RING_A = RingTable(
    products=((("1", "1"), "1"), (("1", "a"), "a"), (("a", "a"), None))
)


def test_ring_table_product_lookup():
    assert RING_A.product("a", "1") == RING_A.product("1", "a") == "a"
    assert RING_A.product("a", "a") is None  # a stored zero product
    assert RING_A.product("a", "b") is None  # an absent pair


def test_module_check_detects_nonzero_square():
    a = CupClass("a", 2, (("p", "q"), ("q", "r")))
    c = complex_of(P3, [("p", 0), ("q", 2), ("r", 4)], cups=(ident_class(FREE3), a))
    report = module_check(c, RING_A)
    assert not report.passed
    assert any("a*a" in f for f in report.failures)


def test_module_check_passes_when_square_vanishes():
    a = CupClass("a", 2, (("p", "q"),))
    c = complex_of(P3, [("p", 0), ("q", 2), ("r", 4)], cups=(ident_class(FREE3), a))
    # A is not nilpotent at chain level only on (p -> q); A.A = 0 exactly
    assert module_check(c, RING_A).passed


def test_resolve_unit_falls_back_to_unique_identity_class():
    e_cls = CupClass("e", 0, tuple((g.uid, g.uid) for g in FREE3.generators))
    c = complex_of(P3, [("p", 0), ("q", 2), ("r", 4)], cups=(e_cls,))
    assert resolve_unit(c, RingTable()) == "e"
    with pytest.raises(FcxError):
        resolve_unit(FREE3, RingTable(unit="zz"))


def test_injectivity_on_nonzero_cohomology():
    c = complex_of(
        P4, [("x", 0), ("y", 5)], [("x", "y")], cups=(ident_class(DIPOLE),)
    )
    assert injectivity_check(c, RingTable()).injective
    free = complex_of(P3, [("p", 0), ("q", 2), ("r", 4)], cups=(ident_class(FREE3),))
    assert injectivity_check(free, RingTable()).injective


def test_injectivity_detects_equal_matrices():
    b = CupClass("b", 2, (("p", "q"),))
    cc = CupClass("c", 2, (("p", "q"),))
    c = complex_of(
        P3, [("p", 0), ("q", 2), ("r", 4)], cups=(ident_class(FREE3), b, cc)
    )
    report = injectivity_check(c, RingTable())
    assert not report.injective
    assert ("b", "c") in report.kernel_combinations


def test_injectivity_fails_on_acyclic_complex():
    c = complex_of(
        P3,
        [("x", 0), ("y", 1)],
        [("x", "y")],
        cups=(CupClass("1", 0, (("x", "x"), ("y", "y"))), CupClass("a", 0, ())),
    )
    report = injectivity_check(c, RingTable())
    assert not report.injective
    assert report.kernel_combinations  # everything acts as zero on a zero space


def test_cuplength_unit_only():
    c = complex_of(P3, [("p", 0), ("q", 2), ("r", 4)], cups=(ident_class(FREE3),))
    report = cuplength_report(c, RingTable(products=((("1", "1"), "1"),)))
    assert report.cuplength == 1
    assert report.generator_bound_holds


def test_cuplength_powers_table():
    c = complex_of(
        P3,
        [("g0", 0), ("g1", 1), ("g2", 2)],
        cups=(CupClass("1", 0, ()), CupClass("a", 1, ()), CupClass("b", 2, ())),
    )
    ring = RingTable(
        products=(
            (("1", "1"), "1"),
            (("1", "a"), "a"),
            (("1", "b"), "b"),
            (("a", "a"), "b"),
            (("a", "b"), None),
        )
    )
    report = cuplength_report(c, ring)
    assert report.cuplength == 3
    assert report.witness == ("a", "a")


def test_cuplength_torus_like_table():
    c = complex_of(
        P3,
        [("g0", 0), ("g1", 1), ("g2", 2), ("g3", 2)],
        cups=(
            CupClass("1", 0, ()),
            CupClass("al", 1, ()),
            CupClass("be", 1, ()),
            CupClass("ga", 2, ()),
        ),
    )
    ring = RingTable(
        products=((("al", "be"), "ga"), (("ga", "al"), None), (("ga", "be"), None))
    )
    report = cuplength_report(c, ring)
    assert report.cuplength == 3
    assert report.witness == ("al", "be")


def test_ring_degree_additivity_is_enforced():
    c = complex_of(
        P3,
        [("g0", 0), ("g1", 1)],
        cups=(CupClass("al", 1, ()), CupClass("be", 1, ())),
    )
    with pytest.raises(FcxError, match="degree"):
        cuplength_report(c, RingTable(products=((("al", "be"), "al"),)))


# --- dual route: stable page action vs associated graded of the periodic theory

MIXED = complex_of(
    P4,
    [("x", 0), ("xp", 4), ("w", 4), ("y", 5)],
    [("x", "y"), ("xp", "y")],
)
B4 = CupClass("B", 4, (("x", "w"),))


def solve_in_span(vectors, w):
    """A set of ``vectors`` (bit i for vectors[i]) whose XOR is ``w``, or None.

    Plain elimination kept inside this file, so the route below shares no
    solver with the module it checks.
    """
    rows = {}  # lowest set bit -> (vector, chooser)
    for i, v in enumerate(vectors):
        chooser = 1 << i
        while v:
            low = (v & -v).bit_length() - 1
            if low not in rows:
                rows[low] = (v, chooser)
                break
            v ^= rows[low][0]
            chooser ^= rows[low][1]
    chooser = 0
    while w:
        row = rows.get((w & -w).bit_length() - 1)
        if row is None:
            return None
        w ^= row[0]
        chooser ^= row[1]
    return chooser


def graded_limit_action(c, cls):
    """Independent route: act on stable representatives, then classify the
    image inside the associated graded of the periodic cohomology by solving
    against boundaries and deeper-level cycles built from the raw
    differential (no canonical form involved in the classification)."""
    table = pages(c)
    stable = table.collapse_page
    period = c.params.maslov_period
    cols = c.delta_columns()
    a_cols = class_columns(c, cls)
    boundaries = [v for v in (apply_columns(cols, 1 << i) for i in range(c.count)) if v]

    def cycles_at(level, residue):
        idx = [
            i
            for i, g in enumerate(c.generators)
            if g.degree >= level and c.params.residue(g.degree) == residue
        ]
        if not idx:
            return []
        entries = []
        for pos, i in enumerate(idx):
            for t in bits(cols[i]):
                entries.append((t, pos))
        local = kernel_basis(Gf2Matrix.from_entries(c.count, len(idx), entries))
        out = []
        for v in local.basis:
            amb = 0
            for b in bits(v):
                amb |= 1 << idx[b]
            out.append(amb)
        return out

    result = {}
    for (k, n, j), cell in table.cells.items():
        if k != stable:
            continue
        tn, tj = n + cls.degree, (j + cls.degree) % period
        target = table.cells.get((stable, tn, tj))
        treps = list(target.representatives) if target else []
        basis = treps + boundaries + cycles_at(tn + period, tj)
        columns = []
        for r in cell.representatives:
            tags = solve_in_span(basis, apply_columns(a_cols, r))
            assert tags is not None, "image escaped the graded filtration piece"
            columns.append(tags & ((1 << len(treps)) - 1))
        rows = [0] * len(treps)
        for col_idx, col in enumerate(columns):
            for b in bits(col):
                rows[b] |= 1 << col_idx
        result[(n, j)] = Gf2Matrix(len(treps), cell.dim, tuple(rows))
    return result


def test_stable_page_action_matches_graded_limit_action():
    assert validate_cup(MIXED, B4).ok
    table = pages(MIXED)
    engine_route = induced_on_pages(MIXED, B4, table.collapse_page).as_dict()
    graded_route = graded_limit_action(MIXED, B4)
    assert engine_route == graded_route
    # and the action is genuinely nonzero: [x + xp] lands on [w]
    assert engine_route[(0, 0)].rows == (1,)


def test_graded_limit_route_agrees_for_small_fixtures():
    for c, cls in ((FREE2, Q2), (DIPOLE, ident_class(DIPOLE))):
        table = pages(c)
        engine_route = induced_on_pages(c, cls, table.collapse_page).as_dict()
        assert engine_route == graded_limit_action(c, cls)


@given(seeds, periods)
@settings(max_examples=30, deadline=None)
def test_identity_action_on_random_complexes(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5), max_jump=3)
    one = ident_class(c)
    assert validate_cup(c, one).ok
    table = pages(c)
    for k in range(1, table.max_page + 1):
        # induced_on_pages re-verifies d^k-commutation internally on each call
        for (n, j), m in induced_on_pages(c, one, k).as_dict().items():
            assert m == Gf2Matrix.identity(m.n_rows)
    graded = graded_limit_action(c, one)
    for key, m in graded.items():
        assert m == Gf2Matrix.identity(m.n_rows)


def shifted_product_document(seed=5, m=3, p=4, c=None):
    """A C tensor F document shaped like the benchmark's ``cup-ring``.

    C is ``c`` or else a small scrambled complex (free generators and dipoles
    of jumps 0..3), F is free on t0..tm at degrees 0, p, .., mp; the
    document carries the unit class ``1``, the shift classes a1..am (a_i:
    g*t_j -> g*t_{j+i}) and the table of the truncated polynomial ring
    GF(2)[a1]/(a1^(m+1)).
    """
    if c is None:
        spec = NormalFormSpec(
            MonotoneParams(3, 0.5),
            free=(-2, 0, 3),
            dipoles=((-3, 0), (-1, 1), (1, 2), (2, 3)),
        )
        c = random_filtered_automorphism(seed, build_from_normal_form(spec))
    free = FloerComplexData(
        c.params, tuple(LiftedGenerator(f"t{j}", j * p) for j in range(m + 1)), ()
    )
    product = tensor_product(c, free).complex
    classes = [CupClass("1", 0, tuple((g.uid, g.uid) for g in product.generators))]
    for i in range(1, m + 1):
        entries = tuple(
            (f"{g.uid}*t{j}", f"{g.uid}*t{j + i}")
            for g in c.generators
            for j in range(m + 1 - i)
        )
        classes.append(CupClass(f"a{i}", i * p, entries))
    rows = [(("1", cls.name), cls.name) for cls in classes]
    rows += [
        ((f"a{i}", f"a{j}"), f"a{i + j}" if i + j <= m else None)
        for i in range(1, m + 1)
        for j in range(i, m + 1)
    ]
    return dataclasses.replace(product, cup_classes=tuple(classes), ring=RingTable(tuple(rows)))


# sha256 of the outputs on ``shifted_product_document()``, recorded before the
# cup module memoized its per-class data.
PINNED_CUP_TSV = {
    "cup": "06bdc3e460b7e01e7127f26bfe01ceafb89f9a4a202dd2094bf587f335e98662",
    "ring": "286dd0402d64edb2dc8a0ce60f55a431629d242af14a9b02a4c3760d474b8efb",
    "cuplength": "90ad57d33acaaab477cab0f2fa30fb9c60c13883058e920449eb7383116a7440",
}
PINNED_INDUCED_PAGES = "5f8aa1c57db8fdc2b41b666ed9ac0ff842372a93dfc4bbb2ef234e335a06a7d8"


def test_shifted_product_outputs_are_pinned(tmp_path, capsys):
    text = serialize(shifted_product_document())
    path = tmp_path / "cup.fcx"
    path.write_text(text, encoding="utf-8")
    digests = {}
    for command in PINNED_CUP_TSV:
        code = main([command, str(path), "--format", "tsv"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        digests[command] = hashlib.sha256(captured.out.encode()).hexdigest()

    c = parse(text)
    collapse = pages(c).collapse_page
    assert collapse >= 3 and len(c.cup_classes) == 4
    lines = []
    for cls in c.cup_classes:
        for k in range(1, collapse + 2):
            induced = induced_on_pages(c, cls, k)
            for key, m in induced.maps:
                lines.append(f"{cls.name} {k} {induced.page} {key} {m.n_rows} {m.n_cols} {m.rows}")
    induced_digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digests == PINNED_CUP_TSV
    assert induced_digest == PINNED_INDUCED_PAGES


def _mutated_cup_documents():
    """``shifted_product_document``s whose classes are broken in every way
    ``validate_cup`` reports: an unknown id, a repeated entry, an entry of
    the wrong degree, a negative degree, a dropped or an added entry (which
    breaks the commutation), or left intact."""
    rng = random.Random(19)
    for i in range(36):
        doc = shifted_product_document(seed=i, m=1 + i % 3, p=3 + i % 4)
        uids = [g.uid for g in doc.generators]
        level = {g.uid: g.degree for g in doc.generators}
        classes = list(doc.cup_classes)
        for _ in range(1 + i % 3):
            j = rng.randrange(len(classes))
            cls = classes[j]
            entries = list(cls.entries)
            degree = cls.degree
            kind = rng.randrange(7)
            if kind == 1:
                u = rng.choice(uids)
                entries.append(rng.choice([(u, "zz"), ("ghost", u)]))
            elif kind == 2 and entries:
                entries.append(rng.choice(entries))
            elif kind == 3:
                pairs = [(s, t) for s in uids for t in uids if level[t] - level[s] != degree]
                entries += rng.sample(pairs, 1 + rng.randrange(3))
            elif kind == 4:
                degree = -1 - degree
            elif kind == 5 and entries:
                entries.remove(rng.choice(entries))
            elif kind == 6:
                pairs = [
                    (s, t)
                    for s in uids
                    for t in uids
                    if level[t] - level[s] == degree and (s, t) not in entries
                ]
                if pairs:
                    entries.append(rng.choice(pairs))
            classes[j] = CupClass(cls.name, degree, tuple(entries))
        yield dataclasses.replace(doc, cup_classes=tuple(classes))


def _entry_built(c):
    """``c`` rebuilt from its entries, each class too (reads every view)."""
    classes = tuple(CupClass(a.name, a.degree, a.entries) for a in c.cup_classes)
    return FloerComplexData(c.params, c.generators, c.delta, classes, c.ring)


# sha256 over repr((errors, warnings)) of ``validate_cup`` on every class of
# ``_mutated_cup_documents()``; then, after a parse of each one's serialized
# document (or the parse error's text), on every class of the parsed
# complex and of its entry-built twin.  Recorded while every class was
# validated entry by entry.
CUP_VALIDATION_REPORTS_SHA256 = (
    "a6616a2f5b4ffa472d021147fb75739240c87a69015bb9f66140dd6bf9893588"
)


def test_cup_validation_reports_are_pinned():
    digest = hashlib.sha256()
    phrases = (
        "references unknown generator",
        "repeats the entry",
        "changes degree by",
        "has negative degree",
        "does not commute",
    )
    seen = set()
    parsed_reports = 0
    for c in _mutated_cup_documents():
        for cls in c.cup_classes:
            report = validate_cup(c, cls)
            digest.update(repr((report.errors, report.warnings)).encode())
            seen.update(p for p in phrases for e in report.errors if p in e)
        try:
            parsed = parse(serialize(c))
        except FcxParseError as exc:
            digest.update(str(exc).encode())
            continue
        for complex_ in (parsed, _entry_built(parsed)):
            for cls in complex_.cup_classes:
                report = validate_cup(complex_, cls)
                digest.update(repr((report.errors, report.warnings)).encode())
                parsed_reports += not report.ok
    assert seen == set(phrases) and parsed_reports >= 10
    assert digest.hexdigest() == CUP_VALIDATION_REPORTS_SHA256, digest.hexdigest()


def _cup_cli_documents():
    """(label, text) of ``shifted_product_document``-shaped documents, a
    line-shuffled one, one with its 'c' lines before its 'gen' lines, and
    one with broken classes.  Each 'cup' line precedes its class's 'c' lines."""
    for seed, m, p in ((5, 3, 4), (7, 2, 5), (11, 4, 3)):
        yield f"product {seed}", serialize(shifted_product_document(seed, m, p))
    first, *rest = serialize(shifted_product_document(13, 3, 4)).splitlines()
    random.Random(3).shuffle(rest)
    for line in [x for x in rest if x.startswith("cup ")]:
        k = rest.index(line)
        name = line.split()[1]
        first_c = next(i for i, x in enumerate(rest) if x.split()[:2] == ["c", name])
        if first_c < k:
            rest.insert(first_c, rest.pop(k))
    yield "shuffled", "\n".join([first] + rest) + "\n"
    lines = serialize(shifted_product_document(17, 2, 3)).splitlines()
    by_kind = {}
    for line in lines[4:]:
        by_kind.setdefault(line.split()[0], []).append(line)
    order = ("cup", "c", "gen", "d", "ring")
    yield "c before gen", "\n".join(lines[:4] + [x for k in order for x in by_kind[k]]) + "\n"
    doc = shifted_product_document(5, 3, 4)
    unit, a1, a2, a3 = doc.cup_classes
    broken = (
        unit,
        CupClass("a1", a1.degree, a1.entries[1:]),
        CupClass("a2", a2.degree, a2.entries + ((a1.entries[0][0], a3.entries[0][1]),)),
        a3,
    )
    yield "broken", serialize(dataclasses.replace(doc, cup_classes=broken))


# sha256 over (command, exit code, stdout, stderr) of ``fcx <command> --format
# tsv`` on each of ``_cup_cli_documents()``, recorded while every class was
# validated entry by entry.
CUP_CLI_SHA256 = {
    "product 5": "ff4cfab4845325d45db8e49ea592659ac8cbbbf3e81c9a623ec3cfc9f627c9ee",
    "product 7": "ba57a0de6235c78ddfbfd6d91791637753f8b8ccab992a66fb9347c164d0fd9e",
    "product 11": "02b9cd2663e758ffa442de19ef53faed26a68f59bb747f7364df419ae0aa0928",
    "shuffled": "b80cf82d6819517b083fa0a2671c5443487dc6ae4777d559db59a2990babeb0f",
    "c before gen": "1022dfe8cec3a4d13017ea0b57a93aecbec4f1f9505b53a1b33b3bc8a8746fb9",
    "broken": "b3333a17329a37cf4c967b306be4312b3a64dfcca0591af0633513a46db96fc3",
}


def test_cup_commands_on_product_documents_are_pinned(tmp_path, capsys):
    digests = {}
    for label, text in _cup_cli_documents():
        path = tmp_path / "doc.fcx"
        path.write_text(text, encoding="utf-8")
        digest = hashlib.sha256()
        for command in ("cup", "ring", "cuplength", "validate", "report"):
            code = main([command, str(path), "--format", "tsv"])
            captured = capsys.readouterr()
            digest.update(f"{command}\n{code}\n{captured.out}\n{captured.err}\n".encode())
        digests[label] = digest.hexdigest()
    assert digests == CUP_CLI_SHA256


def _cup_document_with_actions():
    """A normal form with actions, carrying a unit class, a degree-3 class
    and a ring table; rebasing it by 0.7 reorders its generators."""
    c = build_from_normal_form(
        NormalFormSpec(
            MonotoneParams(3, 0.5),
            (0, 2, 4, 5),
            ((-1, 0), (1, 1), (2, 0), (0, 1), (3, 1)),
        )
    )
    uids = [g.uid for g in c.generators]
    level = {g.uid: g.degree for g in c.generators}
    h = tuple((s, t) for s in uids for t in uids if level[t] - level[s] == 3)
    classes = (ident_class(c), CupClass("h", 3, h), CupClass("z", 0, h[:2]))
    ring = RingTable(((("1", "1"), "1"), (("1", "h"), "h"), (("h", "h"), None)))
    return dataclasses.replace(c, cup_classes=classes, ring=ring)


# sha256 of ``fcx rebase --delta-r 0.7`` on ``_cup_document_with_actions()``,
# recorded while the rebased classes were written from their entries.
REBASE_CUP_DOCUMENT_SHA256 = (
    "e6ad88d1361aa15ae1162973c67aabf2d15e07bbfc94e2eef45128efd9a39db1"
)


def test_rebase_of_a_cup_document_is_pinned(tmp_path, capsys):
    c = _cup_document_with_actions()
    path = tmp_path / "doc.fcx"
    path.write_text(serialize(c), encoding="utf-8")
    assert main(["rebase", str(path), "--delta-r", "0.7"]) == 0
    out = capsys.readouterr().out
    moved = parse(out)
    assert [g.uid for g in moved.generators] != [g.uid for g in c.generators]
    assert hashlib.sha256(out.encode()).hexdigest() == REBASE_CUP_DOCUMENT_SHA256


@pytest.fixture(scope="module")
def cup_cli_documents():
    return list(_cup_cli_documents())


def test_cup_commands_and_induced_maps_build_no_class_entries(
    cup_cli_documents, tmp_path, capsys, no_entries, no_class_entries
):
    """A parsed document keeps its classes as columns: the cup commands,
    the induced page maps and the serializer never build a class's
    ``entries`` view (nor the ``delta`` view).  (A class with an entry of
    the wrong degree is walked entry by entry, to word the errors.)"""
    path = tmp_path / "doc.fcx"
    for label, text in cup_cli_documents:
        if label == "broken":
            continue
        path.write_text(text, encoding="utf-8")
        for command in ("cup", "ring", "cuplength", "validate", "report"):
            for fmt in ("tsv", "human"):
                assert main([command, str(path), "--format", fmt]) == 0, (label, command)
                capsys.readouterr()
        c = parse(text)
        for cls in c.cup_classes:
            for k in range(1, pages(c).collapse_page + 2):
                induced_on_pages(c, cls, k)
        canonical = serialize(c)
        assert serialize(parse(canonical)) == canonical
        if label.startswith("product"):
            assert canonical == text
    assert no_class_entries == [] and no_entries == []


def test_a_class_from_columns_equals_its_entry_twin():
    c = parse(serialize(shifted_product_document(7, 2, 5)))
    for cls in c.cup_classes:
        assert cls._columns is not None and "entries" not in vars(cls)
        twin = CupClass(cls.name, cls.degree, class_entries(c, cls))
        assert cls == twin and hash(cls) == hash(twin) and repr(cls) == repr(twin)
        assert vars(cls)["entries"] is cls.entries  # built once, then kept
    again = CupClass.from_columns("a", 2, ("x", "y", "z"), (0b110, 0, 0b1))
    assert again.entries == (("x", "y"), ("x", "z"), ("z", "x"))


def test_a_class_over_another_generator_order_is_validated_from_its_entries():
    """A parsed class handed to a complex whose generators are in another
    order gives the report and columns of its entry-built twin there."""
    c = parse(serialize(shifted_product_document(7, 2, 5)))
    gens = c.generators + (LiftedGenerator("a0", -20), LiftedGenerator("zz", 30))
    other = FloerComplexData(c.params, gens, c.delta, c.cup_classes, c.ring)
    assert [g.uid for g in other.generators] != [g.uid for g in c.generators]
    for cls in other.cup_classes:
        twin = CupClass(cls.name, cls.degree, cls.entries)
        twin_c = FloerComplexData(c.params, gens, c.delta, (twin,))
        assert validate_cup(other, cls) == validate_cup(twin_c, twin)
        assert list(require_valid_cup(other, cls)) == class_columns(other, twin)


def test_rebase_puts_the_class_columns_in_the_new_order():
    c = parse(serialize(_cup_document_with_actions()))
    moved = rebase(c, 0.7)
    uids = tuple(g.uid for g in moved.generators)
    assert uids != tuple(g.uid for g in c.generators)
    twins = []
    for before, after in zip(c.cup_classes, moved.cup_classes):
        assert after._uids == uids
        entries = class_entries(moved, after)
        assert sorted(entries) == sorted(class_entries(c, before))
        twins.append(CupClass(after.name, after.degree, entries))
    text = serialize(moved)
    assert all("entries" not in vars(a) for a in moved.cup_classes)
    twin_c = FloerComplexData(
        moved.params, moved.generators, moved.delta, tuple(twins), moved.ring
    )
    assert text == serialize(twin_c)
    for cls, twin in zip(moved.cup_classes, twins):
        assert validate_cup(moved, cls) == validate_cup(twin_c, twin)


def test_resolve_unit_reads_the_columns_of_an_unnamed_identity_class(no_class_entries):
    head = "fcx 1\nsigma 3\nlambda 0\ngen u 0\ngen v 2\ngen w 2\n"
    ident = "cup e 0\nc e u u\nc e v v\nc e w w\n"
    near = "cup n 0\nc n u u\nc n v v\nc n w w\nc n v w\n"  # one entry too many
    short = "cup s 0\nc s u u\nc s w w\n"  # one entry too few
    shifted = "cup t 2\nc t u v\nc t u w\n"
    c = parse(head + near + ident + short + shifted)
    assert resolve_unit(c, RingTable()) == "e"
    for body in (near + short + shifted, near, short):
        with pytest.raises(FcxError, match="cannot resolve a unit class"):
            resolve_unit(parse(head + body), RingTable())
    assert no_class_entries == []
    twins = tuple(CupClass(a.name, a.degree, class_entries(c, a)) for a in c.cup_classes)
    assert resolve_unit(dataclasses.replace(c, cup_classes=twins), RingTable()) == "e"


def test_document_class_data_is_memoized_on_the_complex_and_freed_with_it():
    c = shifted_product_document()
    for cls in c.cup_classes:
        assert validate_cup(c, cls) is validate_cup(c, cls)
        assert induced_on_cohomology(c, cls) is induced_on_cohomology(c, cls)
        assert induced_on_pages(c, cls, 2) == induced_on_pages(c, cls, 2)

    # A class that is not one of the document's is computed afresh and not kept.
    a1 = c.cup_classes[1]
    other = CupClass("b1", a1.degree, a1.entries)
    assert other not in c.cup_classes
    assert validate_cup(c, other) is not validate_cup(c, other)
    action = induced_on_cohomology(c, other)
    assert action is not induced_on_cohomology(c, other)
    assert action.blocks == induced_on_cohomology(c, a1).blocks
    kept = [weakref.ref(action), weakref.ref(other), weakref.ref(validate_cup(c, other))]
    del action, other
    gc.collect()
    assert [ref() for ref in kept] == [None, None, None]

    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None


def test_invalid_document_class_raises_on_every_call():
    bad = CupClass("q", 1, (("u", "v"),))
    c = complex_of(P3, [("u", 0), ("v", 2)], cups=(bad,))
    assert validate_cup(c, bad) is validate_cup(c, bad)
    assert not validate_cup(c, bad).ok
    other = CupClass("r", 1, (("u", "v"),))  # not a document class
    for cls in (bad, other):
        for _ in range(2):
            with pytest.raises(FcxError, match=f"cup class '{cls.name}' failed validation"):
                induced_on_cohomology(c, cls)
            with pytest.raises(FcxError, match=f"cup class '{cls.name}' failed validation"):
                induced_on_pages(c, cls, 1)
            with pytest.raises(FcxError, match=f"cup class '{cls.name}' failed validation"):
                require_valid_cup(c, cls)


def test_valid_class_columns_are_the_xor_of_its_resolved_entries():
    c = shifted_product_document()
    a1 = c.cup_classes[1]
    other = CupClass("b1", a1.degree, a1.entries)
    for cls in (a1, other, c.cup_classes[0]):
        cols = require_valid_cup(c, cls)
        assert list(cols) == class_columns(c, cls), cls.name
        assert cols == require_valid_cup(c, cls)
    assert require_valid_cup(c, a1) is require_valid_cup(c, a1)


def test_a_non_document_class_adds_nothing_to_the_memo():
    c = shifted_product_document()
    a1 = c.cup_classes[1]
    for k in (1, 2):
        induced_on_pages(c, a1, k)
    module_check(c, c.ring)

    def snapshot():
        memos = c._memo.get("cup_class_memos", [])
        return set(c._memo), [dict(m) for m in memos]

    before = snapshot()
    other = CupClass("b1", a1.degree, a1.entries)
    assert validate_cup(c, other).ok
    induced_on_cohomology(c, other)
    for k in (1, 2):
        induced_on_pages(c, other, k)
    after = snapshot()
    assert after[0] == before[0]
    assert [m.keys() for m in after[1]] == [m.keys() for m in before[1]]
    assert all(
        a[key] is b[key] for a, b in zip(after[1], before[1]) for key in a
    )



def _corrupt_class_images(monkeypatch, c, image_uid, flip):
    """Flip the canonical coordinates ``flip`` of every class image whose
    honest coordinates are the single slot ``image_uid``."""
    import fcx.engine

    original = fcx.engine.CanonicalForm.to_canonical
    honest = 1 << c.index_map()[image_uid]

    def corrupted(form, v):
        out = original(form, v)
        return out ^ flip if out == honest else out

    monkeypatch.setattr(fcx.engine.CanonicalForm, "to_canonical", corrupted)


def _free_with_a_jump0_dipole():
    """p, q, r free at levels 0, 2, 4; s -> t a jump-0 dipole at levels 2, 3;
    the class 'a' sends p -> q -> r."""
    a = CupClass("a", 2, (("p", "q"), ("q", "r")))
    c = complex_of(
        P3, [("p", 0), ("q", 2), ("r", 4), ("s", 2), ("t", 3)], [("s", "t")], cups=(a,)
    )
    assert validate_cup(c, a).ok
    return c, a


def test_induced_cohomology_check_names_the_representative(monkeypatch):
    import fcx.cup

    c, a = _free_with_a_jump0_dipole()
    q, s = c.index_map()["q"], c.index_map()["s"]

    def corrupted(cols, v):  # the image q of p picks up s, which is no cocycle
        out = apply_columns(cols, v)
        return out ^ 1 << s if out == 1 << q else out

    monkeypatch.setattr(fcx.cup, "apply_columns", corrupted)
    with pytest.raises(EngineConsistencyError) as info:
        induced_on_cohomology(c, a)
    assert str(info.value) == (
        "induced image of class 'a' left the cohomology at degree 2: the image "
        "of the degree-0 representative p is not a cocycle there; this "
        "indicates a bug"
    )


def test_total_endomorphism_check_names_the_class_and_degrees(monkeypatch):
    import fcx.cup

    c = complex_of(P3, [("u", 0), ("v", 2)], cups=(ident_class(FREE2), Q2))
    honest = fcx.cup.induced_on_cohomology

    def corrupted(c, a):  # q also sends degree 2 into degree 4, which is zero
        action = honest(c, a)
        if a.name != "q":
            return action
        return dataclasses.replace(action, blocks=((2, Gf2Matrix.identity(1)),))

    monkeypatch.setattr(fcx.cup, "induced_on_cohomology", corrupted)
    with pytest.raises(EngineConsistencyError) as info:
        injectivity_check(c, RingTable())
    assert str(info.value) == (
        "induced block of class 'q' from degree 2 into the zero cohomology "
        "degree 4 is nonzero"
    )


def test_induced_page_filtration_check_names_its_witness(monkeypatch):
    c, a = _free_with_a_jump0_dipole()
    _corrupt_class_images(monkeypatch, c, "r", 1 << c.index_map()["p"])
    with pytest.raises(EngineConsistencyError) as info:
        induced_on_pages(c, a, 1)
    message = str(info.value)
    assert "class 'a'" in message and "page 1" in message
    assert "slot 'q' hit 'p' below level 4" in message


def test_induced_page_target_cell_check_names_its_witness(monkeypatch):
    c, a = _free_with_a_jump0_dipole()
    _corrupt_class_images(monkeypatch, c, "q", 1 << c.index_map()["s"])
    with pytest.raises(EngineConsistencyError) as info:
        induced_on_pages(c, a, 1)
    message = str(info.value)
    assert "class 'a'" in message and "page 1" in message
    assert "slot 'p' hit the live slot 's' outside the target cell (n=2, j=2)" in message


def test_induced_page_commutation_check_names_its_witness(monkeypatch):
    one = CupClass("1", 0, (("x", "x"), ("y", "y")))
    c = complex_of(P4, [("x", 0), ("y", 5)], [("x", "y")], cups=(one,))
    _corrupt_class_images(monkeypatch, c, "y", 1 << c.index_map()["y"])
    with pytest.raises(EngineConsistencyError) as info:
        induced_on_pages(c, one, 1)
    assert str(info.value) == (
        "induced maps of class '1' do not commute with the page-1 differential "
        "at (n=0, j=0): slot 'x' reaches 'y' on one side only"
    )


def _pages_in_order(c, order):
    """{(class, page): induced maps} of every class of ``c``, the pages of
    each class taken in ``order``."""
    return {(a.name, k): induced_on_pages(c, a, k) for a in c.cup_classes for k in order}


def test_page_maps_do_not_depend_on_the_order_the_pages_are_asked_in(scrambled):
    small, scrambled_base = shifted_product_document(3, 3, 4), scrambled(36, 4, 2)
    for doc in (small, shifted_product_document(c=scrambled_base)):
        text = serialize(doc)
        last = pages(parse(text)).collapse_page + 1
        ascending = _pages_in_order(parse(text), range(1, last + 1))
        assert len({m.page for m in ascending.values()}) >= 3
        assert _pages_in_order(parse(text), [last, 1] + list(range(2, last))) == ascending
        assert _pages_in_order(parse(text), range(last, 0, -1)) == ascending


def test_a_filtration_violation_raises_on_every_call(monkeypatch):
    c, a = _free_with_a_jump0_dipole()
    _corrupt_class_images(monkeypatch, c, "r", 1 << c.index_map()["p"])
    assert pages(c).collapse_page == 1
    for k in (1, 2, 1):  # page 2 is served by the stable page 1
        with pytest.raises(EngineConsistencyError, match="filtration on page 1: slot 'q'"):
            induced_on_pages(c, a, k)
    assert "slot_images" not in c._memo["cup_class_memos"][0]


def _broken_class_documents():
    """Parsed ``shifted_product_document``s with extra classes: copies of
    the shift classes (from columns) with an entry added at a random
    column, a copy of a1 built from entries with one entry dropped, and a
    copy of a2 (from columns) with an entry of the wrong degree."""
    rng = random.Random(29)
    for seed in range(8):
        c = parse(serialize(shifted_product_document(seed, 2 + seed % 2, 3 + seed % 3)))
        uids = [g.uid for g in c.generators]
        level = [g.degree for g in c.generators]
        classes = list(c.cup_classes)
        d = c.delta_columns()
        for a in c.cup_classes[1:]:
            while True:  # an added entry of the right degree that breaks the commutation
                cols = list(a._columns)
                s = rng.randrange(len(cols))
                ends = [t for t in range(len(cols)) if level[t] - level[s] == a.degree]
                if not ends:
                    continue
                cols[s] ^= 1 << rng.choice(ends)
                if any(apply_columns(d, x) != apply_columns(cols, y) for x, y in zip(cols, d)):
                    break
            classes.append(CupClass.from_columns(f"b{a.name}", a.degree, uids, cols))
        a1, a2 = c.cup_classes[1:3]
        entries = list(a1.entries)
        del entries[rng.randrange(len(entries))]
        classes.append(CupClass("x", a1.degree, tuple(entries)))
        cols = list(a2._columns)
        s = rng.randrange(len(cols))
        off = [t for t in range(len(cols)) if level[t] - level[s] != a2.degree]
        cols[s] ^= 1 << rng.choice(off)
        classes.append(CupClass.from_columns("w", a2.degree, uids, cols))
        yield dataclasses.replace(c, cup_classes=tuple(classes))


def test_batched_validation_gives_each_class_its_one_class_report():
    """All classes of a document are validated together; each report is the
    one the class gets alone, whichever class is asked for first."""
    witnesses = set()
    for c in _broken_class_documents():
        alone = [validate_cup(dataclasses.replace(c, cup_classes=(a,)), a) for a in c.cup_classes]
        witnesses.update(e for r in alone for e in r.errors if "witness pair" in e)
        assert sum(not r.ok for r in alone) >= 3
        for first in range(len(c.cup_classes)):
            fresh = dataclasses.replace(c)
            classes = fresh.cup_classes
            reports = {first: validate_cup(fresh, classes[first])}
            reports.update((i, validate_cup(fresh, a)) for i, a in enumerate(classes))
            assert [reports[i] for i in range(len(classes))] == alone
            for a, report in zip(classes, alone):
                if report.ok:
                    assert list(require_valid_cup(fresh, a)) == class_columns(fresh, a)
    assert len(witnesses) >= 20
    assert len({w.split("(")[1].split(" ")[0] for w in witnesses}) >= 10  # witness columns


def _dependent_classes_document():
    """``shifted_product_document(7, 2, 5)`` with a copy ``b`` of a1 and a
    degree-0 class ``z`` with no entries: a1+b and z act as zero."""
    doc = shifted_product_document(7, 2, 5)
    a1 = doc.cup_classes[1]
    extra = (CupClass("b", a1.degree, a1.entries), CupClass("z", 0, ()))
    return dataclasses.replace(doc, cup_classes=doc.cup_classes + extra)


def test_injectivity_reports_the_dependent_combinations(tmp_path, capsys):
    path = tmp_path / "doc.fcx"
    path.write_text(serialize(_dependent_classes_document()), encoding="utf-8")
    assert main(["ring", str(path), "--format", "tsv"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("kernel")] == [
        "kernel\ta1+b",
        "kernel\tz",
    ]


def _cup_outputs_digests(base, tmp_path):
    """sha256 of ``fcx cup``/``fcx ring`` (tsv) on the C tensor F document of
    ``base`` and on ``_dependent_classes_document()``, and of the induced
    maps of every class of the first on pages 1..collapse+1."""
    path = tmp_path / "doc.fcx"
    digests = {}
    documents = {"product": shifted_product_document(c=base)}
    documents["dependent"] = _dependent_classes_document()
    for label, doc in documents.items():
        path.write_text(serialize(doc), encoding="utf-8")
        for command in ("cup", "ring"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command, str(path), "--format", "tsv"])
            text = f"{code}\n{out.getvalue()}"
            digests[f"{command} {label}"] = hashlib.sha256(text.encode()).hexdigest()
    c = parse(serialize(documents["product"]))
    lines = [
        f"{name} {k} {induced.page} {key} {m.n_rows} {m.n_cols} {m.rows}"
        for (name, k), induced in _pages_in_order(c, range(1, pages(c).collapse_page + 2)).items()
        for key, m in induced.maps
    ]
    digests["induced product"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digests


# ``_cup_outputs_digests(scrambled(60, 4, 3))``, recorded before the classes
# of a document were validated together and their images shared by the pages.
CUP_OUTPUTS_SHA256 = {
    "cup product": "1259f848140da70a276de47afcc480661142865a9691729eb0100bee0accb824",
    "ring product": "1f69f1c518ff6eff60c66f176f559c083cc57a38bb3225d898a2aae45309f943",
    "cup dependent": "a19e8062ba7e613a48cdbf190b1b5e96e9153136d5242eab5bc6b17ac801966b",
    "ring dependent": "2a3cfd8121917e96a28adb10d01a8c63a7f0b7f6c58cfa2b3a5fd60f49a2cf96",
    "induced product": "07f6d5632df7629b00b135b0571980f92046b3a80efed19ccccc3fbc812dd1ef",
}


def test_cup_ring_and_induced_maps_of_a_product_document_are_pinned(scrambled, tmp_path):
    assert _cup_outputs_digests(scrambled(60, 4, 3), tmp_path) == CUP_OUTPUTS_SHA256
