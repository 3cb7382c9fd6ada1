"""Tests for the canonical reduction, spectral pages, and their cross-checks."""

from __future__ import annotations

import gc
import hashlib
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import index_map, page_cells
from fcx.engine import (
    _kernel,
    canonical_form,
    collapse_page,
    limit_and_filtration,
    pages,
    subquotient_pages_oracle,
)
from fcx.gf2 import Gf2Subspace, apply_columns
from fcx.kunneth import tensor_product
from fcx.model import (
    DifferentialEntry,
    EngineConsistencyError,
    FloerComplexData,
    InvalidComplexError,
    LiftedGenerator,
    MonotoneParams,
    PageIndexError,
    validate,
    z_graded_cohomology,
)
from fcx.synth import (
    NormalFormSpec,
    build_from_normal_form,
    normal_form_pages_oracle,
    random_complex,
)

P4 = MonotoneParams(4, 0.5)
P4_ALG = MonotoneParams(4, 0.0)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
periods = st.sampled_from([3, 4, 6])


def complex_of(params, gens, delta=()):
    return FloerComplexData(
        params,
        tuple(LiftedGenerator(u, n) for u, n in gens),
        tuple(DifferentialEntry(s, t) for s, t in delta),
    )


THREE_GEN = complex_of(
    P4_ALG, [("x", 0), ("xp", 4), ("y", 5)], [("x", "y")]
)

# Entry jumps here are all <= 1, yet the canonical form contains a jump-2
# dipole: the reduction of x1's column against x2's leaves x1 + x2 mapping
# straight to b, nine degrees up.  Collapse therefore happens at page 3,
# strictly later than 1 + (max entry jump) = 2 would suggest.
MASKED_JUMP = complex_of(
    P4_ALG,
    [("x1", 0), ("x2", 4), ("a", 5), ("b", 9)],
    [("x1", "a"), ("x2", "a"), ("x2", "b")],
)


def test_canonical_form_minimal_dipole():
    c = complex_of(P4_ALG, [("x", 0), ("y", 1)], [("x", "y")])
    form = canonical_form(c)
    assert form.dipoles == ((index_map(c)["x"], index_map(c)["y"]),)
    assert form.barcode.dipoles == ((0, 1, 0),)
    assert form.free == ()


def test_canonical_form_tie_break_pairs_highest_filtration_source():
    c = complex_of(
        P4_ALG, [("x", 0), ("xp", 4), ("y", 5)], [("x", "y"), ("xp", "y")]
    )
    form = canonical_form(c)
    assert form.dipoles == ((index_map(c)["xp"], index_map(c)["y"]),)
    assert form.barcode.dipoles == ((4, 5, 0),)
    assert form.free == (index_map(c)["x"],)
    # the surviving free vector is x + xp
    ix, ixp = index_map(c)["x"], index_map(c)["xp"]
    assert form.change_of_basis[ix] == (1 << ix) | (1 << ixp)


def test_canonical_form_empty_delta():
    c = complex_of(P4_ALG, [("a", 0), ("b", 3), ("c", 7)])
    form = canonical_form(c)
    assert form.dipoles == ()
    assert form.free == tuple(sorted(index_map(c)[u] for u in "abc"))


@pytest.mark.parametrize("k", [0, -1])
def test_run_refuses_pages_below_one(k):
    """``PageTable.run`` owns the page-index rule: below page 1 there is no
    run (an index of -1 would read the stable page's)."""
    table = pages(complex_of(P4_ALG, [("x", 0), ("y", 5)], [("x", "y")]))
    with pytest.raises(PageIndexError, match=f"pages are indexed from 1, got {k}"):
        table.run(k)
    assert [table.run(k) for k in (1, 2, 3)] == [0, 1, 1]


def test_derived_data_is_memoized_on_the_instance_and_freed_with_it():
    c, _ = random_complex(11, P4_ALG, max_gens=10, max_jump=2)
    twin = FloerComplexData(c.params, c.generators, c.delta)
    assert validate(c) is validate(c)
    assert canonical_form(c) is canonical_form(c)
    assert c == twin and hash(c) == hash(twin)  # the memo is not part of either

    assert z_graded_cohomology(c) is z_graded_cohomology(c)
    assert pages(c) is pages(c)

    ref = weakref.ref(c)
    assert validate(c).ok
    assert index_map(c)[c.generators[-1].uid] == c.count - 1
    assert pages(c).collapse_page >= 1
    del c
    gc.collect()
    assert ref() is None


def test_complex_is_freed_on_del_without_the_cycle_collector():
    """The memoized form and tables hold the generators and params, not the
    complex, so plain reference counting frees it."""
    from fcx.invariants import q_decomposition

    c = random_complex(3, P4, max_gens=10, max_jump=2)[0]
    gc.disable()
    try:
        pages(c).page(1)
        pages(c).differentials
        canonical_form(c).barcode
        q_decomposition(c)
        ref = weakref.ref(c)
        del c
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "failing_call, witness",
    [
        (0, "dipole column of 'x' (target 'y')"),
        (1, "target slot 'y' is not closed"),
        (2, "free slot 'z' is not closed"),
    ],
)
def test_canonical_form_self_check_names_its_witness(monkeypatch, failing_call, witness):
    """The self-check reads delta B from the substitution that inverts B:
    one wrong column of it, in the check's order x, y, z, names that slot."""
    import fcx.engine

    c = complex_of(P4_ALG, [("x", 0), ("y", 1), ("z", 3)], [("x", "y")])
    validate(c)
    slot = index_map(c)["xyz"[failing_call]]

    def corrupted(cols, order, through):
        inverse, image = fcx.gf2.invert_columns(cols, order, through)
        image[slot] ^= 1
        return inverse, image

    monkeypatch.setattr(fcx.engine, "invert_columns", corrupted)
    with pytest.raises(EngineConsistencyError) as info:
        canonical_form(c)
    assert witness in str(info.value)


def test_the_inverse_and_the_self_check_share_one_walk(monkeypatch):
    """The reduction inverts its change of basis once, through delta's
    columns, and the self-check applies no map of its own."""
    import fcx.engine

    c, _ = random_complex(30, P4_ALG, max_gens=40, max_jump=2)
    applied, inverted = [], []
    invert = fcx.engine.invert_columns

    def spy(cols, order, through):
        inverted.append(list(through))
        return invert(cols, order, through)

    monkeypatch.setattr(fcx.engine, "invert_columns", spy)
    monkeypatch.setattr(
        fcx.engine, "apply_columns", lambda cols, v: applied.append(v) or apply_columns(cols, v)
    )
    form = canonical_form(c)
    assert form.dipoles and form.free
    assert applied == []
    assert inverted == [c.delta_columns()]


def test_role_exclusivity_check_names_a_generator_with_two_roles(monkeypatch):
    import fcx.engine

    # d(a) = b and d(b) = c, so d^2 != 0; skip validation to reach the check.
    c = complex_of(P4_ALG, [("a", 0), ("b", 1), ("c", 2)], [("a", "b"), ("b", "c")])
    assert not validate(c).ok
    monkeypatch.setattr(fcx.engine, "require_valid", lambda c: None)
    with pytest.raises(EngineConsistencyError, match="generator 'b' two roles"):
        canonical_form(c)


def test_unitriangular_check_names_the_generator_of_its_slot(monkeypatch):
    import fcx.engine

    c = complex_of(P4_ALG, [("x", 0), ("y", 1), ("z", 3)], [("x", "y")])
    y = index_map(c)["y"]

    def corrupted(cols, order, through):
        cols = list(cols)
        cols[y] ^= 1 << y  # the slot of y loses its own generator
        return fcx.gf2.invert_columns(cols, order, through)

    monkeypatch.setattr(fcx.engine, "invert_columns", corrupted)
    with pytest.raises(EngineConsistencyError) as info:
        canonical_form(c)
    assert "not unitriangular in the processing order at the slot of 'y'" in str(info.value)


# delta^2 != 0 on two complexes that pass every other check: the reduction
# meets a generator with two roles (b) on the first, and a target slot that
# is not closed (q) on the second.
SQUARE_CASES = {
    "two-roles": (
        [("a", 0), ("b", 1), ("c", 2)],
        [("a", "b"), ("b", "c")],
        "canonical reduction assigned generator 'b' two roles",
    ),
    "open-target": (
        [("a", 0), ("b", 1), ("p", 1), ("q", 1), ("c", 2)],
        [("a", "b"), ("a", "q"), ("b", "c")],
        "canonical form self-check failed: target slot 'q' is not closed",
    ),
}
SQUARE_WITNESS = "differential does not square to zero: starting at 'a' it reaches 'c' twice"


@pytest.mark.parametrize("case", sorted(SQUARE_CASES))
def test_the_reduction_refuses_a_nonzero_square_with_the_walks_witness(case):
    """With no ``validate`` before it, the reduction's checks find delta^2 !=
    0, and the walk they then run words the error."""
    gens, delta, _ = SQUARE_CASES[case]
    for call in (pages, canonical_form, collapse_page):
        c = complex_of(P4_ALG, gens, delta)
        with pytest.raises(InvalidComplexError) as info:
            call(c)
        assert str(info.value) == f"invalid complex: {SQUARE_WITNESS}"
        assert info.value.report is validate(c)


@pytest.mark.parametrize("case", sorted(SQUARE_CASES))
def test_a_failed_check_that_the_walk_cannot_explain_is_an_engine_error(monkeypatch, case):
    import fcx.model

    gens, delta, message = SQUARE_CASES[case]
    monkeypatch.setattr(fcx.model, "_square_errors", lambda c: ())
    c = complex_of(P4_ALG, gens, delta)
    with pytest.raises(EngineConsistencyError) as info:
        pages(c)
    assert message in str(info.value)


def test_the_reduction_proves_a_zero_square_for_validate(monkeypatch, scrambled):
    """A reduced complex is validated without the walk, to the same report;
    one that fails the structural checks is refused before any reduction."""
    import fcx.engine
    import fcx.model

    built = scrambled(250, 4, 9)
    c = FloerComplexData(built.params, built.generators, built.delta)
    twin = FloerComplexData(built.params, built.generators, built.delta)
    walked = []
    walk = fcx.model._square_errors
    monkeypatch.setattr(fcx.model, "_square_errors", lambda c: walked.append(id(c)) or walk(c))
    pages(c)
    assert walked == [] and validate(c) == validate(twin) and walked == [id(twin)]
    assert validate(c).ok and z_graded_cohomology(c) == z_graded_cohomology(twin)
    assert walked == [id(twin)]

    monkeypatch.setattr(fcx.engine, "echelon", None)  # any reduction fails
    bad = complex_of(P4_ALG, [("x", 0), ("y", 2)], [("x", "y")])
    with pytest.raises(InvalidComplexError) as info:
        pages(bad)
    assert info.value.report is validate(bad) and "degree jump 2" in str(info.value)
    assert walked == [id(twin)]


def test_subquotient_oracle_names_the_page_and_cell_of_an_escaped_denominator(monkeypatch):
    import fcx.engine
    from fcx.gf2 import Gf2Subspace

    c = complex_of(P4_ALG, [("x", 0), ("y", 5)], [("x", "y")])
    everything = Gf2Subspace.from_vectors(c.count, [1 << i for i in range(c.count)])
    monkeypatch.setattr(fcx.engine, "_delta_span", lambda c, cols, space: everything)
    with pytest.raises(EngineConsistencyError) as info:
        subquotient_pages_oracle(c, 1)
    assert "escaped its numerator on page 1 at (n=0, j=0)" in str(info.value)


def test_pages_single_dipole():
    c = complex_of(P4_ALG, [("x", 0), ("y", 5)], [("x", "y")])
    table = pages(c)
    assert table.page(1) == {(0, 0): 1, (5, 1): 1}
    assert table.differentials[(1, 0, 0)].rank() == 1
    assert table.page(2) == {}
    assert table.collapse_page == 2


def test_pages_single_free_generator():
    c = complex_of(P4_ALG, [("x", 2)])
    table = pages(c)
    for k in range(1, 6):
        assert table.page(k) == {(2, 2): 1}
    assert table.collapse_page == 1


def test_pages_three_generator_example():
    table = pages(THREE_GEN)
    assert table.page(1) == {(0, 0): 1, (4, 0): 1, (5, 1): 1}
    assert table.page(2) == {(4, 0): 1}
    assert table.page(3) == {(4, 0): 1}
    assert table.collapse_page == 2


def test_pages_rejects_out_of_range_page_index():
    table = pages(THREE_GEN)
    for k in (-1, 0):
        with pytest.raises(ValueError):
            table.page(k)
    assert table.page(table.max_page + 1) == table.page(table.collapse_page) == {(4, 0): 1}


def test_pages_upto_controls_materialization():
    c = complex_of(P4_ALG, [("x", 0), ("y", 5)], [("x", "y")])
    table = pages(c)
    assert table.max_page == table.collapse_page + 1 == 3
    assert table.page(6) == {}


def test_pages_past_the_collapse_page_are_served_by_the_stable_page():
    """Dimensions and polynomials are kept through the collapse page only, so
    reading a far page costs neither time nor memory."""
    from fcx.invariants import poincare_laurent

    table = pages(THREE_GEN)
    stable = table.collapse_page
    start = time.perf_counter()
    for k in range(stable, stable + 11):
        assert table.page(k) == table.page(stable) == {(4, 0): 1}
        assert poincare_laurent(table, k) == poincare_laurent(table, stable)
    assert table.page(10**6) == table.page(stable)
    assert poincare_laurent(table, 10**6) == poincare_laurent(table, stable)
    assert time.perf_counter() - start < 0.5


def test_masked_jump_collapse_exceeds_entry_jump_bound():
    form = canonical_form(MASKED_JUMP)
    uid = [g.uid for g in MASKED_JUMP.generators]
    assert sorted(
        (uid[s], uid[t], form.jump_of((s, t))) for s, t in form.dipoles
    ) == [("x1", "b", 2), ("x2", "a", 0)]
    degree = {g.uid: g.degree for g in MASKED_JUMP.generators}
    max_entry_jump = max(
        (degree[t] - degree[s] - 1) // MASKED_JUMP.params.maslov_period
        for s, t in MASKED_JUMP.delta
    )
    assert max_entry_jump == 1
    assert collapse_page(MASKED_JUMP) == 3  # strictly above 1 + max entry jump
    table = pages(MASKED_JUMP)
    assert table.page(2) == {(0, 0): 1, (9, 1): 1}
    assert table.differentials[(2, 0, 0)].rank() == 1
    assert table.page(3) == {}
    # the independent subquotient route agrees with the reduction
    assert subquotient_pages_oracle(MASKED_JUMP, 2) == {(0, 0): 1, (9, 1): 1}
    assert subquotient_pages_oracle(MASKED_JUMP, 3) == {}


def test_subquotient_oracle_examples():
    degree_one = complex_of(P4_ALG, [("x", 0), ("y", 1)], [("x", "y")])
    assert subquotient_pages_oracle(degree_one, 1) == {}

    jumping = complex_of(P4_ALG, [("x", 0), ("y", 5)], [("x", "y")])
    assert subquotient_pages_oracle(jumping, 1) == {(0, 0): 1, (5, 1): 1}
    assert subquotient_pages_oracle(jumping, 2) == {}

    free = complex_of(P4_ALG, [("x", 2)])
    for k in range(1, 5):
        assert subquotient_pages_oracle(free, k) == {(2, 2): 1}


def test_collapse_page_examples():
    assert collapse_page(complex_of(P4_ALG, [("a", 0), ("b", 2)])) == 1
    assert collapse_page(complex_of(P4_ALG, [("x", 0), ("y", 5)], [("x", "y")])) == 2
    both = build_from_normal_form(
        NormalFormSpec(P4_ALG, dipoles=((0, 0), (1, 3)))
    )
    assert collapse_page(both) == 4


def test_limit_single_free_generator():
    c = complex_of(P4_ALG, [("x", 2)])
    report = limit_and_filtration(c)
    assert report.hf() == {2: 1}
    assert report.einf() == {(2, 2): 1}


def test_limit_acyclic_dipole():
    c = complex_of(P4_ALG, [("x", 0), ("y", 5)], [("x", "y")])
    report = limit_and_filtration(c)
    assert report.hf() == {}
    assert report.einf() == {}


def test_limit_three_generator_example():
    report = limit_and_filtration(THREE_GEN)
    assert report.hf() == {0: 1}
    assert report.einf() == {(4, 0): 1}
    filt = dict(report.filtration_dims)
    assert filt[(4, 0)] == 1
    assert (8, 0) not in filt  # the class is not representable above level 4


def test_change_of_basis_is_filtered_unitriangular():
    for seed in range(15):
        c, _ = random_complex(seed, P4)
        form = canonical_form(c)
        gens = c.generators
        order_rank = {
            i: pos
            for pos, i in enumerate(
                sorted(range(c.count), key=lambda i: (-gens[i].degree, gens[i].uid))
            )
        }
        res = [c.params.residue(g.degree) for g in gens]
        for i, col in enumerate(form.change_of_basis):
            assert col & (1 << i)
            for b in range(c.count):
                if b != i and col & (1 << b):
                    assert order_rank[b] < order_rank[i]
                    assert res[b] == res[i]


def test_conjugated_differential_is_exactly_the_dipoles():
    for seed in range(15):
        c, _ = random_complex(seed, P4)
        form = canonical_form(c)
        cols = c.delta_columns()
        dipole_of = dict(form.dipoles)
        for i in range(c.count):
            image = form.to_canonical(
                apply_columns(cols, form.change_of_basis[i])
            )
            expected = 1 << dipole_of[i] if i in dipole_of else 0
            assert image == expected


@pytest.mark.parametrize("n, period, seed", [(100, 3, 1), (250, 4, 2), (400, 6, 3)])
def test_stored_inverse_undoes_the_change_of_basis_on_scrambled_complexes(
    scrambled, n, period, seed
):
    form = canonical_form(scrambled(n, period, seed))
    for i, col in enumerate(form.change_of_basis):
        assert apply_columns(form.inverse, col) == 1 << i
        assert apply_columns(form.change_of_basis, form.inverse[i]) == 1 << i


# Digests of the canonical forms (dipoles, free slots, change of basis and its
# inverse) of each case's complexes, hashed in turn.  The three scrambled
# complexes were recorded when the pivot was found by scanning every bit of a
# column, the random draws and the tensor products (sparse columns, many of
# them zero) when the reduction ran its own elimination loop; the reduction
# must give the same forms bit for bit.
CANONICAL_DIGESTS = {
    "250-3-1": "c470f47487b5f1b83206048e6022ce5f49d7abc6ca932733eb36be51cd5a8f02",
    "500-6-2": "2eda54a545ac95f44acb4c5f923b21ea426c95f88e4f226b92084ed14f58d158",
    "1000-4-3": "b6ea3a671069f2ad645756f51f6f034a2b3f800a3f73c10523c91daa8ea55033",
    "random-200": "a724fb371b2f3c90ee73eaeb2492aebc6f6aa436d0c7ef743afea71ee0c899cf",
    "products": "9ab05e1740799e0796d252960ccee60bcde397e6c1b0966a89a0c9b14f638d46",
}


def _pinned_complexes(scrambled, case):
    if case == "random-200":  # periods 3..6, up to 65 generators
        return [
            random_complex(seed, MonotoneParams(3 + seed % 4, 0.5), 12 + seed % 54)[0]
            for seed in range(200)
        ]
    if case == "products":
        return [
            tensor_product(scrambled(na, period, seed), scrambled(nb, period, seed + 1)).complex
            for seed, (na, nb, period) in enumerate(((12, 12, 3), (24, 20, 6), (40, 30, 4)))
        ]
    n, period, seed = map(int, case.split("-"))
    return [scrambled(n, period, seed)]


@pytest.mark.parametrize("case", sorted(CANONICAL_DIGESTS))
def test_canonical_forms_of_scrambled_complexes_are_pinned(scrambled, case):
    digest = hashlib.sha256()
    for c in _pinned_complexes(scrambled, case):
        f = canonical_form(c)
        digest.update(repr((f.dipoles, f.free, f.change_of_basis, f.inverse)).encode())
    assert digest.hexdigest() == CANONICAL_DIGESTS[case]


@pytest.mark.parametrize("n, period, seed", [(250, 3, 4), (400, 4, 5)])
def test_oracle_triple_agrees_with_the_engine_at_scale(
    scrambled, scrambled_spec, n, period, seed
):
    """The three oracles judge the engine beyond the acceptance size: every
    page through collapse + 2 from the normal form's count and from the
    subquotient route, and the stable page and HF from the image
    filtration."""
    c = scrambled(n, period, seed)
    spec = scrambled_spec(n, period)
    table = pages(c)
    oracle = normal_form_pages_oracle(spec)
    assert table.collapse_page == oracle.collapse_page
    for k in range(1, table.collapse_page + 3):
        dims = table.page(k)
        assert dims == subquotient_pages_oracle(c, k), f"page {k}"
        assert dims == oracle.page(k), f"page {k}"
    limit = limit_and_filtration(c)
    assert limit.einf() == oracle.page(oracle.collapse_page)
    free_by_residue: dict[int, int] = {}
    for level in spec.free:
        free_by_residue[level % period] = free_by_residue.get(level % period, 0) + 1
    assert limit.hf() == free_by_residue

@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_reduction_and_subquotient_routes_agree(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5))
    table = pages(c)
    for k in range(1, table.max_page + 3):
        assert table.page(k) == subquotient_pages_oracle(c, k)


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_first_page_is_degree_graded_cohomology(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5))
    z = z_graded_cohomology(c)
    expected = {(n, c.params.residue(n)): d for n, d in z.dims}
    assert pages(c).page(1) == expected


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_limit_page_matches_filtration_quotients(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5))
    table = pages(c)
    report = limit_and_filtration(c)
    stable = table.page(table.collapse_page)
    assert stable == report.einf()
    # residue totals of the stable page recover the periodic cohomology
    per_residue: dict[int, int] = {}
    for (n, j), d in stable.items():
        per_residue[j] = per_residue.get(j, 0) + d
    assert per_residue == report.hf()


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_rank_bookkeeping_between_consecutive_pages(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5))
    table = pages(c)
    p = c.params.maslov_period
    for k in range(1, table.max_page):
        for (n, j), dim in table.page(k).items():
            out = table.differentials.get((k, n, j))
            into = table.differentials.get((k, n - k * p - 1, (j - 1) % p))
            r_out = out.rank() if out else 0
            r_in = into.rank() if into else 0
            assert table.page(k + 1).get((n, j), 0) == dim - r_out - r_in
    # dims never increase cellwise
    for k in range(1, table.max_page):
        nxt = table.page(k + 1)
        for cell, dim in table.page(k).items():
            assert nxt.get(cell, 0) <= dim


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_page_differentials_compose_to_zero(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5), max_jump=3)
    table = pages(c)
    p = c.params.maslov_period
    for (k, n, j), mat in table.differentials.items():
        nxt = table.differentials.get((k, n + k * p + 1, (j + 1) % p))
        if nxt is not None:
            assert nxt.mat_mul(mat).is_zero()


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_cells_respect_residue_of_level(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5))
    table = pages(c)
    form = table.form
    dims: dict[int, dict[tuple[int, int], int]] = {}
    for (k, n, j), slots in page_cells(table).items():
        assert n % period == j
        dims.setdefault(k, {})[(n, j)] = len(slots)
    pages_1_to_max = range(1, table.max_page + 1)
    assert [dims.get(k, {}) for k in pages_1_to_max] == [table.page(k) for k in pages_1_to_max]
    assert len(table.layouts) == len(table.starts)
    for start, (cells, row, alive, dead_sources) in zip(table.starts, table.layouts):
        assert list(cells) == sorted(cells)
        assert all(list(slots) == sorted(slots) for slots in cells.values())
        assert row == {s: r for slots in cells.values() for r, s in enumerate(slots)}
        assert alive == sum(1 << s for slots in cells.values() for s in slots)
        assert dead_sources == sum(
            1 << s for s, t in form.dipoles if form.jump_of((s, t)) < start
        )


def _table_digest(table, last_page=None) -> bytes:
    """Every cell's (key, dim, slots, representatives), in the order of
    ``page_cells``, and every differential's (key, n_rows, n_cols, rows), in
    the table's own order; only the keys of pages 1..``last_page`` when it is
    given."""
    last_page = last_page or table.max_page
    basis = table.form.change_of_basis
    out = hashlib.sha256()
    for key, slots in page_cells(table).items():
        if key[0] <= last_page:
            reps = tuple(basis[i] for i in slots)
            out.update(repr((key, len(slots), slots, reps)).encode())
    for key, mat in table.differentials.items():
        if key[0] <= last_page:
            out.update(repr((key, mat.n_rows, mat.n_cols, mat.rows)).encode())
    return out.digest()


# sha256 over ``_table_digest`` of the tables below, recorded when every
# cell and differential was built eagerly with the table; the tables built on
# demand from the barcode must give the same mappings bit for bit.
PAGE_TABLES_SHA256 = (
    "1bc545e5ce490ce648af0f27d2c98cba5b557caa5ce3b7b58c4a220412964e7a"
)


def test_cells_and_differentials_are_pinned(scrambled):
    digest = hashlib.sha256()
    for seed in range(40):
        params = MonotoneParams((3, 4, 6)[seed % 3], 0.5)
        c, _ = random_complex(seed, params, max_gens=40, max_jump=3)
        digest.update(_table_digest(pages(c)))
        digest.update(_table_digest(pages(c), last_page=2))
    for n, period, seed in ((120, 3, 1), (250, 4, 2), (400, 6, 3)):
        digest.update(_table_digest(pages(scrambled(n, period, seed))))
    assert digest.hexdigest() == PAGE_TABLES_SHA256, digest.hexdigest()


def test_kernel_is_the_reduced_null_space_of_the_cut_columns():
    """``_kernel`` on seeded random columns, sources and masks: rank plus
    nullity is the source count, every kernel vector lies on the sources and
    its image misses the mask, the basis is in reduced echelon form, and for
    at most 8 sources it spans exactly the brute-force kernel."""
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(0, 12)
        c = FloerComplexData(P4_ALG, [LiftedGenerator(f"g{i}", 0) for i in range(n)])
        cols = [rng.getrandbits(n) for _ in range(n)]
        for i in range(n):  # repeat some columns, so that kernels are large
            if rng.random() < 0.3:
                cols[i] = cols[rng.randrange(n)]
        src = sorted(rng.sample(range(n), rng.randint(0, n)))
        mask = rng.getrandbits(n)
        ker = _kernel(c, cols, src, mask)
        rank = Gf2Subspace.from_vectors(n, [cols[s] & mask for s in src]).dim
        assert rank + ker.dim == len(src)
        assert ker == Gf2Subspace.from_vectors(n, ker.basis)
        support = sum(1 << s for s in src)
        for v in ker.basis:
            assert v & ~support == 0 and apply_columns(cols, v) & mask == 0
        if len(src) <= 8:
            members = {0}
            for b in ker.basis:
                members |= {x ^ b for x in members}
            brute = set()
            for pick in range(1 << len(src)):
                v = sum(1 << s for b, s in enumerate(src) if pick >> b & 1)
                if apply_columns(cols, v) & mask == 0:
                    brute.add(v)
            assert members == brute
