"""Tests for polynomial invariants, rank decomposition, rebasing, and bounds."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcx.engine import collapse_page, limit_and_filtration, pages
from fcx.invariants import (
    LaurentPoly,
    betti_compare,
    collapse_bound_from_energy,
    collapse_bound_from_jumps,
    euler_number,
    poincare_laurent,
    q_decomposition,
    rebase,
)
from fcx.model import (
    DifferentialEntry,
    EngineConsistencyError,
    FcxError,
    FloerComplexData,
    LiftedGenerator,
    MonotoneParams,
)
from fcx.synth import NormalFormSpec, build_from_normal_form, random_complex

P4 = MonotoneParams(4, 0.5)
P4_ALG = MonotoneParams(4, 0.0)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
periods = st.sampled_from([3, 4, 6])
exponents = st.integers(min_value=-12, max_value=12)
poly_dicts = st.dictionaries(exponents, st.integers(min_value=1, max_value=9), max_size=6)


def complex_of(params, gens, delta=()):
    lifted = tuple(
        LiftedGenerator(g[0], g[1], g[2] if len(g) > 2 else None) for g in gens
    )
    return FloerComplexData(
        params, lifted, tuple(DifferentialEntry(s, t) for s, t in delta)
    )


def entry_jumps(c):
    """(src, dst, jump index) of each entry, in delta order, by a uid -> degree
    lookup per entry."""
    degree = {g.uid: g.degree for g in c.generators}
    period = c.params.maslov_period
    return [(s, t, (degree[t] - degree[s] - 1) // period) for s, t in c.delta]


DIPOLE = complex_of(P4_ALG, [("x", 0), ("y", 5)], [("x", "y")])
THREE_GEN = complex_of(P4_ALG, [("x", 0), ("xp", 4), ("y", 5)], [("x", "y")])


def test_laurent_poly_canonical_form_and_algebra():
    p = LaurentPoly.from_dict({2: 1, 5: 0, -1: 3})
    assert p.as_dict() == {2: 1, -1: 3}
    assert LaurentPoly.monomial(1).mul(LaurentPoly.monomial(2, 3)).as_dict() == {3: 3}
    assert LaurentPoly().is_zero


@pytest.mark.parametrize(
    "coeffs, message",
    [
        (((1, 2), (1, 3)), "exponent 1 is repeated"),
        (((0, 1), (1, 0), (1, 4)), "exponent 1 is repeated"),
        (((0, 1), (1, -1)), "coefficients must be nonnegative integers"),
    ],
)
def test_laurent_poly_refuses_a_repeated_exponent_or_a_negative_coefficient(coeffs, message):
    with pytest.raises(ValueError, match=message):
        LaurentPoly(coeffs)


def test_laurent_poly_refuses_exponents_and_coefficients_that_are_not_integers():
    """A ``bool`` is not an integer, and neither is a float of any value."""
    for coeffs, message in [
        (((1, True),), "coefficients must be nonnegative integers, got True"),
        (((1, 2.5),), "coefficients must be nonnegative integers, got 2.5"),
        (((0.5, 1),), "exponents must be integers, got 0.5"),
        (((True, 1),), "exponents must be integers, got True"),
    ]:
        with pytest.raises(ValueError, match=message):
            LaurentPoly(coeffs)
    p = LaurentPoly(((3, 2), (-1, 1), (0, 0)))
    assert p.coeffs == ((-1, 1), (3, 2))
    assert p.serialize() == "-1:1 3:2"


def test_laurent_poly_serialization():
    p = LaurentPoly.from_dict({-5: 1, 0: 2, 4: 1})
    assert p.serialize() == "-5:1 0:2 4:1"
    assert LaurentPoly().serialize() == ""
    assert LaurentPoly.from_dict({-2: 1, 0: 2}).display() == "t^-2 + 2*t^0"
    assert LaurentPoly().display() == "0"


@given(poly_dicts)
def test_laurent_poly_serialize_lists_nonzero_terms_by_exponent(d):
    p = LaurentPoly.from_dict(d)
    assert p.serialize() == " ".join(f"{e}:{c}" for e, c in sorted(d.items()))


@given(poly_dicts, poly_dicts)
def test_laurent_poly_mul_is_the_coefficient_convolution(da, db):
    expected: dict[int, int] = {}
    for e1, c1 in da.items():
        for e2, c2 in db.items():
            expected[e1 + e2] = expected.get(e1 + e2, 0) + c1 * c2
    product = LaurentPoly.from_dict(da).mul(LaurentPoly.from_dict(db))
    assert product.as_dict() == {e: c for e, c in expected.items() if c}


def test_poincare_polynomials_of_small_complexes():
    free = complex_of(P4_ALG, [("x", 2)])
    assert poincare_laurent(pages(free), 1).as_dict() == {2: 1}

    table = pages(DIPOLE)
    assert poincare_laurent(table, 1).as_dict() == {0: 1, 5: 1}
    assert poincare_laurent(table, 2).is_zero

    table3 = pages(THREE_GEN)
    assert poincare_laurent(table3, 1).as_dict() == {0: 1, 4: 1, 5: 1}
    assert poincare_laurent(table3, 2).as_dict() == {4: 1}


def test_poincare_rejects_unmaterialized_page():
    table = pages(DIPOLE)
    for k in (-1, 0):
        with pytest.raises(FcxError):
            poincare_laurent(table, k)
    for k in range(table.collapse_page, table.collapse_page + 11):
        assert poincare_laurent(table, k) == poincare_laurent(table, table.collapse_page)
    assert poincare_laurent(table, table.max_page + 1).is_zero


def test_euler_numbers_of_small_complexes():
    assert euler_number(pages(complex_of(P4_ALG, [("x", 2)])), 1).chi == 1
    table = pages(DIPOLE)
    assert euler_number(table, 1).chi == 0
    assert euler_number(table, 2).chi == 0
    table3 = pages(THREE_GEN)
    assert euler_number(table3, 1).chi == 1
    assert euler_number(table3, 2).chi == 1


def test_euler_warns_for_odd_period():
    odd = complex_of(MonotoneParams(5, 0.0), [("x", 2)])
    report = euler_number(pages(odd), 1)
    assert report.warnings and "odd" in report.warnings[0]
    even = euler_number(pages(DIPOLE), 1)
    assert even.warnings == ()


def test_q_decomposition_empty_differential():
    c = complex_of(P4_ALG, [("a", 0), ("b", 3)])
    report = q_decomposition(c)
    assert report.k_max == 0
    assert report.qbars == ()
    assert report.hf_poly == poincare_laurent(pages(c), 1)


def test_q_decomposition_single_dipole():
    report = q_decomposition(DIPOLE)
    assert report.k_max == 1
    assert [q.as_dict() for q in report.qbars] == [{5: 1}]
    assert report.hf_poly.is_zero
    # the defining identity at l=1: 1 + t^5 = (1 + t^-5) * t^5
    factor = LaurentPoly.from_dict({0: 1, -5: 1})
    assert factor.mul(report.qbars[0]).as_dict() == {0: 1, 5: 1}


def test_q_decomposition_two_jump_levels():
    c = build_from_normal_form(
        NormalFormSpec(P4_ALG, dipoles=((0, 1), (1, 2)))
    )
    report = q_decomposition(c)
    assert report.k_max == 2
    assert report.qbars[0].as_dict() == {5: 1}
    assert report.qbars[1].as_dict() == {10: 1}
    assert report.hf_poly.is_zero


@pytest.mark.parametrize("bad_page, page_poly, decomposition", [
    (1, "0:1 1:1 5:1 10:1 99:1", "0:1 1:1 5:1 10:1"),
    (2, "1:1 10:1 99:1", "1:1 10:1"),
])
def test_q_decomposition_checks_the_identity_on_every_page(
    monkeypatch, bad_page, page_poly, decomposition
):
    import fcx.invariants

    c = build_from_normal_form(NormalFormSpec(P4_ALG, dipoles=((0, 1), (1, 2))))

    def corrupted(table, k):
        poly = poincare_laurent(table, k)
        return LaurentPoly(poly.coeffs + ((99, 1),)) if k == bad_page else poly

    monkeypatch.setattr(fcx.invariants, "poincare_laurent", corrupted)
    with pytest.raises(EngineConsistencyError) as info:
        q_decomposition(c)
    assert str(info.value) == (
        f"rank decomposition identity failed at page {bad_page}: page polynomial "
        f"{page_poly} != decomposition {decomposition}"
    )


def test_q_decomposition_grades_limit_by_filtration_level():
    report = q_decomposition(THREE_GEN)
    assert report.hf_poly.as_dict() == {4: 1}


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_q_decomposition_identity_on_random_complexes(seed, period):
    c, spec = random_complex(seed, MonotoneParams(period, 0.5), max_jump=3)
    report = q_decomposition(c)  # identity re-verified internally
    assert report.k_max == collapse_page(c) - 1
    assert sum(report.hf_poly.as_dict().values()) == len(spec.free)
    for i, q in enumerate(report.qbars, start=1):
        expected = sum(1 for _, k in spec.dipoles if k == i)
        assert sum(q.as_dict().values()) == expected


@given(seeds, st.sampled_from([4, 6]))
@settings(max_examples=40, deadline=None)
def test_euler_number_is_page_independent_for_even_periods(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5), max_jump=3)
    table = pages(c)
    values = {euler_number(table, k).chi for k in range(1, table.max_page + 1)}
    assert len(values) == 1
    hf = limit_and_filtration(c).hf()
    assert values == {sum((-1) ** j * d for j, d in hf.items())}


def act_complex():
    return complex_of(P4, [("x", 0, 0.25), ("y", 5, 1.75)], [("x", "y")])


def test_rebase_by_full_period_shifts_degrees():
    c = act_complex()
    out = rebase(c, 2.0)
    assert {(g.uid, g.degree, g.action) for g in out.generators} == {
        ("x", -4, 2.25),
        ("y", 1, 3.75),
    }
    assert out.params.window_base == 2.0
    # polynomial shift law: P_new(t) * t^period = P_old(t)
    p_old = poincare_laurent(pages(c), 1)
    p_new = poincare_laurent(pages(out), 1)
    assert p_new.mul(LaurentPoly.monomial(4)) == p_old


def test_rebase_without_crossing_changes_nothing_but_the_base():
    c = act_complex()
    out = rebase(c, 0.1)
    assert out.generators == c.generators
    assert out.delta == c.delta
    assert out.params.window_base == 0.1
    assert poincare_laurent(pages(out), 1) == poincare_laurent(pages(c), 1)


def test_rebase_crossing_one_action_moves_one_lift():
    c = complex_of(P4, [("x", 0, 0.4), ("y", 5, 1.9)], [("x", "y")])
    out = rebase(c, 0.5)
    got = {(g.uid, g.degree, round(g.action, 9)) for g in out.generators}
    assert got == {("x", -4, 2.4), ("y", 5, 1.9)}
    e = out.delta[0]
    degree = {g.uid: g.degree for g in out.generators}
    assert degree[e.dst] - degree[e.src] == 9
    assert entry_jumps(out) == [("x", "y", 2)]
    assert poincare_laurent(pages(out), 1).as_dict() == {-4: 1, 5: 1}


def test_rebase_round_trip_is_exact_on_dyadic_actions():
    c = act_complex()
    there = rebase(c, 2.0)
    back = rebase(there, 0.0)
    assert back == c


def test_rebase_rejects_seam_and_missing_preconditions():
    c = act_complex()
    with pytest.raises(FcxError, match="not regular"):
        rebase(c, 0.25)
    with pytest.raises(FcxError, match="not regular"):
        rebase(c, 2.25)  # the same seam, one period up
    no_actions = complex_of(P4, [("x", 0)])
    with pytest.raises(FcxError, match="requires an action"):
        rebase(no_actions, 0.5)
    algebraic = complex_of(P4_ALG, [("x", 0)])
    with pytest.raises(FcxError, match="monotonicity"):
        rebase(algebraic, 0.5)


@pytest.mark.parametrize("r_new", [math.inf, -math.inf, math.nan])
def test_rebase_refuses_a_non_finite_window_base(r_new):
    with pytest.raises(FcxError, match="finite"):
        rebase(act_complex(), r_new)


def test_collapse_bound_from_jumps_examples():
    assert collapse_bound_from_jumps(complex_of(P4_ALG, [("a", 0), ("b", 3)])) == 1
    assert collapse_bound_from_jumps(DIPOLE) == 2
    c = build_from_normal_form(NormalFormSpec(P4_ALG, dipoles=((0, 0), (1, 2))))
    assert collapse_bound_from_jumps(c) == 3


def test_collapse_bound_from_jumps_can_undershoot_the_true_collapse():
    # entry jumps are all <= 1 but the canonical form hides a jump-2 dipole
    masked = complex_of(
        P4_ALG,
        [("x1", 0), ("x2", 4), ("a", 5), ("b", 9)],
        [("x1", "a"), ("x2", "a"), ("x2", "b")],
    )
    assert collapse_bound_from_jumps(masked) == 2
    assert collapse_page(masked) == 3


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_collapse_bound_from_jumps_is_one_plus_the_largest_entry_jump(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5), max_jump=3)
    expected = 1 + max((k for _, _, k in entry_jumps(c)), default=0)
    assert collapse_bound_from_jumps(c) == expected
    empty = dataclasses.replace(c, delta=())
    assert collapse_bound_from_jumps(empty) == 1


def test_collapse_bound_from_energy_lists_the_entries_over_budget():
    p = P4  # a jump-0 entry implies a drop of -0.5, a jump-1 entry 1.5
    normal_forms = [
        build_from_normal_form(NormalFormSpec(p, free=(2,), dipoles=dipoles))
        for dipoles in (((0, 0), (4, 1)), ((-3, 1), (0, 0), (1, 1), (4, 0), (5, 1)))
    ]
    # uid order differs from generator order, for sources and for targets
    crossed = complex_of(
        p,
        [("z", 0, 0.25), ("c", 1, 0.3), ("b", 5, 1.75), ("y", 6, 1.8), ("a", 13, 1.75)],
        [("z", "b"), ("z", "a"), ("c", "y")],
    )
    counts = set()
    for c in normal_forms + [crossed]:
        assert all(g.action is not None for g in c.generators)
        for energy in (0.25, 1.5, 3.0):
            expected = [
                f"entry ({s} -> {t}) of jump index {k} implies an action drop "
                f"{k * p.action_period - p.monotonicity}, at or above the budget {energy}"
                for s, t, k in entry_jumps(c)
                if k * p.action_period - p.monotonicity >= energy - p.action_tolerance
            ]
            report = collapse_bound_from_energy(c, energy)
            assert report.infeasible_entries == tuple(expected)
            counts.add(len(expected))
    assert counts == {0, 1, 3}


def test_collapse_bound_from_energy_thresholds():
    c = act_complex()  # action period 2.0
    assert collapse_bound_from_energy(c, 1.0).bound == 1
    assert collapse_bound_from_energy(c, 3.0).bound == 2
    # the jump-1 entry implies a drop of 1.5 >= the 1.0 budget, so the small
    # budget is flagged; the larger budget is consistent with the complex
    assert collapse_bound_from_energy(c, 1.0).infeasible_entries != ()
    assert collapse_bound_from_energy(c, 3.0).infeasible_entries == ()
    chekanov = complex_of(P4, [("x", 0, 1.0), ("y", 1, 0.5)], [("x", "y")])
    small = collapse_bound_from_energy(chekanov, 1.0)
    assert small.bound == 1 and small.infeasible_entries == ()


def test_collapse_bound_from_energy_flags_infeasible_budget():
    c = complex_of(P4, [("x", 0, 1.0), ("v", 9, 0.5)], [("x", "v")])
    report = collapse_bound_from_energy(c, 3.0)
    assert report.bound == 2
    assert len(report.infeasible_entries) == 1
    assert "jump index 2" in report.infeasible_entries[0]


def test_collapse_bound_from_energy_skips_check_without_actions():
    c = complex_of(P4, [("x", 0), ("v", 9)], [("x", "v")])
    report = collapse_bound_from_energy(c, 3.0)
    assert report.bound == 2
    assert report.infeasible_entries == ()


def test_collapse_bound_from_energy_preconditions():
    with pytest.raises(FcxError, match="monotonicity"):
        collapse_bound_from_energy(DIPOLE, 1.0)
    with pytest.raises(FcxError, match="positive"):
        collapse_bound_from_energy(act_complex(), 0.0)


@pytest.mark.parametrize("energy", [math.inf, -math.inf, math.nan])
def test_collapse_bound_from_energy_refuses_non_finite_energy(energy):
    with pytest.raises(FcxError, match="finite"):
        collapse_bound_from_energy(act_complex(), energy)


def test_betti_compare_point():
    for m in (0, 2):
        c = complex_of(P4_ALG, [("pt", -m)])
        betti = (1,) + (0,) * m
        report = betti_compare(c, betti, m)
        assert report.matches and report.floer_bound_holds
        assert report.generator_count == 1 and report.betti_sum == 1


def test_betti_compare_torus():
    c = complex_of(P4_ALG, [("a", -2), ("b", -1), ("c", -1), ("d", 0)])
    report = betti_compare(c, (1, 2, 1), 2)
    assert report.matches
    assert report.floer_bound_holds
    assert report.generator_count == 4 == report.betti_sum


def test_betti_compare_mismatch():
    c = complex_of(P4_ALG, [("x", 0), ("y", 1)], [("x", "y")])
    report = betti_compare(c, (1,), 0)
    assert not report.matches
    assert any("degree 0" in msg for msg in report.mismatches)
    assert report.floer_bound_holds  # 2 generators >= 1


def test_betti_compare_input_errors():
    c = complex_of(P4_ALG, [("x", 0)])
    with pytest.raises(FcxError, match="expected 3 Betti numbers"):
        betti_compare(c, (1,), 2)
    with pytest.raises(FcxError, match="half-dimension m must be at least 0, got -2"):
        betti_compare(c, (1,), -2)
    with pytest.raises(FcxError, match=r"Betti numbers must be at least 0, got b_1 = -1$"):
        betti_compare(c, (1, -1, 0), 2)
    with pytest.raises(FcxError, match=r"got b_0 = -2$"):
        betti_compare(c, (-2, 3), 1)
    declared = complex_of(
        MonotoneParams(4, 0.0, half_dim=3), [("x", 0)]
    )
    with pytest.raises(FcxError, match="half-dimension mismatch"):
        betti_compare(declared, (1,), 0)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_rebase_round_trip_on_synthesized_actions(seed):
    c, _ = random_complex(seed, P4, max_jump=1)
    base = build_from_normal_form(random_complex(seed, P4, max_jump=1)[1])
    if any(g.action is None for g in base.generators):
        return
    sigma = base.params.action_period
    there = rebase(base, base.params.window_base + sigma)
    assert all(
        g.degree == base.generators[i].degree - base.params.maslov_period
        for i, g in enumerate(there.generators)
    )
    back = rebase(there, base.params.window_base)
    assert back == base
