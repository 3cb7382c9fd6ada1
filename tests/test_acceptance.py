"""Acceptance gate: every guarantee this package advertises, at full size.

Each criterion is a single test function; the terminal summary (see
conftest.py) prints one PASS/FAIL line per criterion.  All algebraic checks
are exact over GF(2); action arithmetic uses the model's validation
tolerance.  Criteria: (1) triple-oracle page agreement on 500 seeded
complexes under 30 s, (2) first-page and limit endpoints, (3) invariance
under 200 filtered automorphisms, (4) the page-polynomial decomposition
identity and Euler constancy for even periods, (5) the rebase shift law on
100 action-bearing complexes, (6) 100 Künneth pairs and tensor powers under
60 s, (7) collapse-page bounds from raw jumps and from energy budgets,
(8) the cup/module suite with a planted kernel, (9) frozen golden outputs
and CLI byte-stability.
"""

from __future__ import annotations

import argparse
import random
from collections import Counter
import time
from pathlib import Path

import pytest

from conftest import page_cells
from fcx.cli import _build_parser, main
from fcx.cup import (
    CupClass,
    RingTable,
    induced_on_pages,
    injectivity_check,
    module_check,
    validate_cup,
)
from fcx.engine import (
    collapse_page,
    limit_and_filtration,
    pages,
    subquotient_pages_oracle,
)
from fcx.gf2 import Gf2Matrix
from fcx.invariants import (
    LaurentPoly,
    collapse_bound_from_energy,
    collapse_bound_from_jumps,
    euler_number,
    poincare_laurent,
    q_decomposition,
    rebase,
)
from fcx.kunneth import kunneth_check, power_poincare_check
from fcx.model import (
    DifferentialEntry,
    FloerComplexData,
    LiftedGenerator,
    MonotoneParams,
    z_graded_cohomology,
)
from fcx.synth import (
    NormalFormSpec,
    build_from_normal_form,
    normal_form_pages_oracle,
    random_complex,
    random_filtered_automorphism,
)

GOLDEN = Path(__file__).parent / "golden"

CORPUS_SIZE = 500
PERIODS = (3, 4, 6)


def corpus_params(seed: int) -> MonotoneParams:
    return MonotoneParams(PERIODS[seed % len(PERIODS)], 0.5)


@pytest.fixture(scope="module")
def corpus():
    """The 500-complex acceptance corpus: <= 40 generators, jumps <= 3."""
    drawn = []
    for seed in range(CORPUS_SIZE):
        c, spec = random_complex(seed, corpus_params(seed), max_gens=40, max_jump=3)
        drawn.append((seed, c, spec))
    return drawn


@pytest.fixture(scope="module")
def corpus_tables(corpus):
    return [(seed, c, spec, pages(c)) for seed, c, spec in corpus]


def action_bearing_complex(seed: int) -> FloerComplexData:
    """A non-degenerate normal form with jump indices <= 1 and synthesized
    actions (the only shape whose per-generator actions satisfy the
    degree/action linkage for every differential entry)."""
    rng = random.Random(seed)
    period = PERIODS[seed % len(PERIODS)]
    params = MonotoneParams(period, 0.5, window_base=rng.choice((0.0, 0.25, 0.75)))
    n_free = rng.randint(1, 4)
    n_dipoles = rng.randint(0, 4)
    spec = NormalFormSpec(
        params,
        free=tuple(rng.randint(-6, 6) for _ in range(n_free)),
        dipoles=tuple(
            (rng.randint(-6, 6), rng.randint(0, 1)) for _ in range(n_dipoles)
        ),
    )
    c = build_from_normal_form(spec)
    assert all(g.action is not None for g in c.generators)
    return c


def test_criterion_01_triple_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    checked = 0
    for seed, c, spec in corpus:
        table = pages(c)
        oracle = normal_form_pages_oracle(spec)
        assert table.collapse_page == oracle.collapse_page, f"seed {seed}"
        for k in range(1, table.collapse_page + 1):
            engine_dims = table.page(k)
            assert engine_dims == oracle.page(k), f"seed {seed}, page {k}"
            assert engine_dims == subquotient_pages_oracle(c, k), (
                f"seed {seed}, page {k}"
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= CORPUS_SIZE
    assert elapsed < 30.0, f"triple-oracle sweep took {elapsed:.1f}s (budget 30s)"


def test_criterion_02_page_one_and_limit_endpoints(corpus_tables):
    for seed, c, spec, table in corpus_tables:
        period = c.params.maslov_period
        z = dict(z_graded_cohomology(c).dims)
        assert table.page(1) == {
            (n, n % period): d for n, d in z.items()
        }, f"seed {seed}: first page is not the degree-graded cohomology"
        stable = table.page(table.collapse_page)
        per_residue: dict[int, int] = {}
        for (n, j), d in stable.items():
            per_residue[j] = per_residue.get(j, 0) + d
        hf = limit_and_filtration(c).hf()
        assert per_residue == {j: d for j, d in hf.items() if d}, (
            f"seed {seed}: stable page does not refine the periodic cohomology"
        )


def test_criterion_03_deformation_invariance(corpus_tables):
    applied = 0
    for seed, c, spec, table in corpus_tables[:50]:
        base_cells = {key: len(slots) for key, slots in page_cells(table).items()}
        base_ranks = {key: m.rank() for key, m in table.differentials.items()}
        base_collapse = table.collapse_page
        base_polys = [
            poincare_laurent(table, k) for k in range(1, table.max_page + 1)
        ]
        for auto_seed in range(4):
            moved = random_filtered_automorphism(10_000 + 4 * seed + auto_seed, c)
            moved_table = pages(moved)
            assert moved_table.collapse_page == base_collapse, f"seed {seed}"
            assert {
                key: len(slots) for key, slots in page_cells(moved_table).items()
            } == base_cells, f"seed {seed}"
            assert {
                key: m.rank() for key, m in moved_table.differentials.items()
            } == base_ranks, f"seed {seed}"
            assert [
                poincare_laurent(moved_table, k)
                for k in range(1, moved_table.max_page + 1)
            ] == base_polys, f"seed {seed}"
            applied += 1
    assert applied == 200


def test_criterion_04_poincare_laurent_identity_and_euler(corpus_tables):
    for seed, c, spec, table in corpus_tables:
        period = c.params.maslov_period
        dec = q_decomposition(c)
        for level in range(1, table.max_page + 1):
            expected = Counter(dec.hf_poly.as_dict())
            for i in range(level, dec.k_max + 1):
                multiplier = LaurentPoly.from_dict({0: 1, -(i * period + 1): 1})
                expected.update(multiplier.mul(dec.qbars[i - 1]).as_dict())
            assert poincare_laurent(table, level) == LaurentPoly.from_dict(expected), (
                f"seed {seed}: decomposition identity fails at page {level}"
            )
        if period % 2 == 0:
            chis = {euler_number(table, k).chi for k in range(1, table.max_page + 1)}
            assert len(chis) == 1, f"seed {seed}: Euler number varies across pages"
            hf = limit_and_filtration(c).hf()
            assert chis.pop() == sum(
                (-1) ** j * d for j, d in hf.items()
            ), f"seed {seed}: Euler number differs from the limit's"


def test_criterion_05_rebase_shift_law():
    checked = 0
    for seed in range(100):
        c = action_bearing_complex(seed)
        sigma = c.params.action_period
        period = c.params.maslov_period
        r = c.params.window_base

        shifted = rebase(c, r + sigma)
        base_table, shifted_table = pages(c), pages(shifted)
        assert shifted_table.max_page == base_table.max_page
        for k in range(1, base_table.max_page + 1):
            assert poincare_laurent(shifted_table, k).mul(LaurentPoly.monomial(period)) == (
                poincare_laurent(base_table, k)
            ), f"seed {seed}: shift law fails at page {k}"

        # crossing no action leaves every generator and entry untouched
        min_gap = min((g.action - r) % sigma for g in c.generators)
        nudged = rebase(c, r + min_gap / 2)
        assert nudged.generators == c.generators, f"seed {seed}"
        assert nudged.delta == c.delta, f"seed {seed}"
        assert nudged.params.window_base == r + min_gap / 2
        checked += 1
    assert checked == 100


def test_criterion_06_kunneth_pairs_and_powers():
    t0 = time.perf_counter()
    for seed in range(100):
        params = corpus_params(seed)
        a, _ = random_complex(20_000 + seed, params, max_gens=12, max_jump=3)
        b, _ = random_complex(30_000 + seed, params, max_gens=12, max_jump=3)
        report = kunneth_check(a, b)
        assert report.passed, f"seed {seed}: {report.failures}"
    for seed in range(40):
        params = corpus_params(seed)
        c, _ = random_complex(40_000 + seed, params, max_gens=10, max_jump=2)
        for s in (2, 3):
            power = power_poincare_check(c, s, 1)
            assert power.passed, f"seed {seed}, s={s}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"Kunneth sweep took {elapsed:.1f}s (budget 60s)"


def test_criterion_07_collapse_bounds(corpus_tables):
    violations = []
    for seed, c, spec, table in corpus_tables:
        if table.collapse_page > collapse_bound_from_jumps(c):
            violations.append(seed)
    assert not violations, (
        "collapse page exceeds the raw-entry jump bound on seeds "
        f"{violations[:10]}{'...' if len(violations) > 10 else ''} "
        f"({len(violations)} of {len(corpus_tables)})"
    )

    checked_energy = 0
    for seed in range(100):
        c = action_bearing_complex(seed)
        sigma = c.params.action_period
        k_collapse = collapse_page(c)
        for i in range(3):  # energy budgets on the half-integer grid
            energy = (i + 0.5) * sigma
            report = collapse_bound_from_energy(c, energy)
            assert report.bound == i + 1
            if not report.infeasible_entries:  # all implied drops below budget
                assert k_collapse <= report.bound, (
                    f"seed {seed}: collapse {k_collapse} exceeds energy bound "
                    f"{report.bound} at E={energy}"
                )
                checked_energy += 1
    assert checked_energy > 0


def test_criterion_08_cup_module_suite():
    # chain-level multiplicative ring: module law holds, page maps commute
    free3 = FloerComplexData(
        MonotoneParams(3, 0.0),
        (LiftedGenerator("p", 0), LiftedGenerator("q", 2), LiftedGenerator("r", 4)),
        (),
        cup_classes=(
            CupClass("1", 0, (("p", "p"), ("q", "q"), ("r", "r"))),
            CupClass("a", 2, (("p", "q"),)),
        ),
        ring=RingTable(
            products=((("1", "1"), "1"), (("1", "a"), "a"), (("a", "a"), None))
        ),
    )
    mixed = FloerComplexData(
        MonotoneParams(4, 0.0),
        (
            LiftedGenerator("x", 0),
            LiftedGenerator("xp", 4),
            LiftedGenerator("w", 4),
            LiftedGenerator("y", 5),
        ),
        (DifferentialEntry("x", "y"), DifferentialEntry("xp", "y")),
        cup_classes=(
            CupClass(
                "1", 0, (("x", "x"), ("xp", "xp"), ("w", "w"), ("y", "y"))
            ),
            CupClass("B", 4, (("x", "w"),)),
        ),
    )
    for c in (free3, mixed):
        table = pages(c)
        for cls in c.cup_classes:
            assert validate_cup(c, cls).ok
            for k in range(1, table.max_page + 1):
                # raises EngineConsistencyError if any d^k fails to commute
                maps = induced_on_pages(c, cls, k)
                if cls.degree == 0:
                    for _, m in maps.as_dict().items():
                        assert m == Gf2Matrix.identity(m.n_rows)
    assert module_check(free3, free3.ring).passed
    stable_action = induced_on_pages(mixed, mixed.cup_classes[1], 1).as_dict()
    assert stable_action[(0, 0)].rows == (1,)  # genuinely nonzero module action

    # planted kernel: two classes with the same chain map differ by a kernel class
    planted = FloerComplexData(
        free3.params,
        free3.generators,
        (),
        cup_classes=(
            free3.cup_classes[0],
            CupClass("b", 2, (("p", "q"),)),
            CupClass("c", 2, (("p", "q"),)),
        ),
        ring=RingTable(),
    )
    report = injectivity_check(planted, planted.ring)
    assert not report.injective
    assert ("b", "c") in report.kernel_combinations
    honest = injectivity_check(free3, free3.ring)
    assert honest.injective, honest.kernel_combinations


def run_cli(capsys, *argv: str, expect: int = 0) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == expect, f"fcx {' '.join(argv)} exited {code}"
    return out


def test_criterion_09_golden_fixtures_and_byte_stability(capsys):
    dipole = str(GOLDEN / "dipole.fcx")
    three = str(GOLDEN / "three_gen.fcx")
    jobs = [
        (("pages", dipole, "--format", "tsv"), "dipole.pages.tsv"),
        (("poincare", dipole, "--format", "tsv"), "dipole.poincare.tsv"),
        (("euler", dipole, "--format", "tsv"), "dipole.euler.tsv"),
        (("pages", three, "--format", "tsv"), "three_gen.pages.tsv"),
        (("poincare", three, "--format", "tsv"), "three_gen.poincare.tsv"),
        (("euler", three, "--format", "tsv"), "three_gen.euler.tsv"),
        (("decompose", three, "--format", "tsv"), "three_gen.decompose.tsv"),
        (("decompose", dipole, "--format", "tsv"), "dipole.decompose.tsv"),
    ]
    for path, stem in ((dipole, "dipole"), (three, "three_gen")):
        for command in ("report", "cohomology"):
            for fmt, suffix in (("tsv", "tsv"), ("human", "human.txt")):
                jobs.append(((command, path, "--format", fmt), f"{stem}.{command}.{suffix}"))
        for command in ("pages", "poincare", "euler", "decompose"):
            jobs.append(((command, path, "--format", "human"), f"{stem}.{command}.human.txt"))
        # one page only, and pages well past the collapse page
        for command in ("pages", "poincare", "euler"):
            for max_page in ("1", "6"):
                jobs.append((
                    (command, path, "--format", "tsv", "--max-page", max_page),
                    f"{stem}.{command}.max{max_page}.tsv",
                ))
    # every other output kind, in both formats; (argv, stem, exit code)
    doc = {name: str(GOLDEN / f"{name}.fcx") for name in (
        "bad_jump", "actions", "torus", "ring", "odd_period", "small_sigma"
    )}
    both = [
        (("validate", dipole), "dipole.validate", 0),
        (("validate", doc["bad_jump"]), "bad_jump.validate", 1),
        (("report", doc["bad_jump"]), "bad_jump.report", 1),
        (("collapse-bound", doc["actions"], "--energy", "1.0"), "actions.collapse-bound.energy1", 0),
        (("betti", doc["torus"], "--betti", "1,2,1"), "torus.betti.match", 0),
        (("betti", doc["torus"], "--betti", "1,0,1"), "torus.betti.mismatch", 1),
        (("kunneth", dipole, dipole), "dipole_squared.kunneth", 0),
        (("kunneth", dipole, three, "--max-page", "1"), "dipole_three_gen.kunneth.max1", 0),
        (("report", three, "--max-page", "1"), "three_gen.report.max1", 0),
        (("power", dipole, "--s", "2"), "dipole.power.s2", 0),
        (("cup", doc["ring"]), "ring.cup", 0),
        (("ring", doc["ring"]), "ring.ring", 0),
        (("cuplength", doc["ring"]), "ring.cuplength", 0),
        (("report", doc["ring"]), "ring.report", 0),
        (("cup", dipole), "dipole.cup", 0),  # no classes: a human note, empty TSV
        (("euler", doc["odd_period"]), "odd_period.euler", 0),
        # validate's and euler's warnings side by side
        (("report", doc["small_sigma"], "--allow-small-sigma"), "small_sigma.report", 0),
    ]
    jobs = [(argv, name, 0) for argv, name in jobs]
    for argv, stem, code in both:
        for fmt, suffix in (("tsv", "tsv"), ("human", "human.txt")):
            jobs.append(((*argv, "--format", fmt), f"{stem}.{suffix}", code))

    # every reporting subcommand is pinned in both formats; gen and rebase
    # write FCX documents and are covered by their own tests
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    pinned = {(argv[0], argv[argv.index("--format") + 1]) for argv, _, _ in jobs}
    for command in sorted(set(subparsers.choices) - {"gen", "rebase"}):
        for fmt in ("human", "tsv"):
            assert (command, fmt) in pinned, f"no {fmt} golden for fcx {command}"

    for argv, golden_name, code in jobs:
        golden = (GOLDEN / golden_name).read_text(encoding="utf-8")
        first = run_cli(capsys, *argv, expect=code)
        second = run_cli(capsys, *argv, expect=code)
        assert first == second, f"{golden_name}: output not byte-stable"
        assert first == golden, f"{golden_name}: output diverged from frozen golden"

    # the frozen page dims are anchored by the independent subquotient oracle
    from fcx.io import parse

    for path, golden_name in ((dipole, "dipole.pages.tsv"), (three, "three_gen.pages.tsv")):
        c = parse(Path(path).read_text(encoding="utf-8"))
        want: dict[int, dict[tuple[int, int], int]] = {}
        for line in (GOLDEN / golden_name).read_text(encoding="utf-8").splitlines():
            fields = line.split("\t")
            if fields[0] == "page":
                k, n, j, d = map(int, fields[1:])
                want.setdefault(k, {})[(n, j)] = d
        for k, dims in want.items():
            assert subquotient_pages_oracle(c, k) == dims, f"{golden_name} page {k}"
