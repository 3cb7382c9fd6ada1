"""Tests for tensor products and the page-wise product formula checks."""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcx.engine import collapse_page, pages
from fcx.invariants import euler_number
from fcx.io import serialize
from fcx.kunneth import kunneth_check, power_poincare_check, tensor_product
from fcx.model import (
    DifferentialEntry,
    EngineConsistencyError,
    FcxError,
    FloerComplexData,
    LiftedGenerator,
    MonotoneParams,
    PageIndexError,
    SizeGuardError,
    validate,
)
from fcx.synth import (
    NormalFormSpec,
    build_from_normal_form,
    random_complex,
    random_filtered_automorphism,
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


DIPOLE = complex_of(P4_ALG, [("x", 0), ("y", 5)], [("x", "y")])
FREE_Z = complex_of(P4_ALG, [("z", 2)])


def test_tensor_of_two_free_generators():
    a = complex_of(P4_ALG, [("x", 2)])
    b = complex_of(P4_ALG, [("z", 3)])
    t = tensor_product(a, b)
    assert [(g.uid, g.degree) for g in t.complex.generators] == [("x*z", 5)]
    assert t.complex.delta == ()
    assert t.factor_ids == (("x*z", "x", "z"),)


def test_tensor_square_of_dipole_follows_leibniz():
    t = tensor_product(DIPOLE, DIPOLE).complex
    assert sorted(g.degree for g in t.generators) == [0, 5, 5, 10]
    arrows = {}
    for e in t.delta:
        arrows.setdefault(e.src, set()).add(e.dst)
    assert arrows == {
        "x*x": {"y*x", "x*y"},
        "x*y": {"y*y"},
        "y*x": {"y*y"},
    }
    assert validate(t).ok


def test_tensor_dipole_with_free_generator():
    t = tensor_product(DIPOLE, FREE_Z).complex
    assert {(g.uid, g.degree) for g in t.generators} == {("x*z", 2), ("y*z", 7)}
    assert [(e.src, e.dst) for e in t.delta] == [("x*z", "y*z")]


def test_tensor_drops_actions():
    a = FloerComplexData(P4, (LiftedGenerator("x", 0, 0.25),), ())
    t = tensor_product(a, a).complex
    assert all(g.action is None for g in t.generators)
    assert t.params.window_base == 0.0


def test_a_product_has_the_sum_of_its_factors_half_dimensions():
    """``m`` of a product is the sum of its factors' ``m``, and unset if
    either factor leaves it unset."""
    with_m = {m: complex_of(dataclasses.replace(P4_ALG, half_dim=m), [("z", 0)]) for m in (1, 2)}
    assert tensor_product(with_m[1], with_m[2]).complex.params.half_dim == 3
    assert tensor_product(with_m[2], with_m[2]).complex.params.half_dim == 4
    assert tensor_product(with_m[2], FREE_Z).complex.params.half_dim is None
    assert tensor_product(FREE_Z, with_m[1]).complex.params.half_dim is None


def test_tensor_rejects_mismatched_parameters():
    other_period = complex_of(MonotoneParams(3, 0.0), [("z", 0)])
    with pytest.raises(FcxError, match="share the period"):
        tensor_product(DIPOLE, other_period)
    other_lambda = complex_of(MonotoneParams(4, 1.0), [("z", 0)])
    with pytest.raises(FcxError, match="monotonicity"):
        tensor_product(DIPOLE, other_lambda)


def test_tensor_accepts_monotonicity_equal_up_to_float_rounding():
    assert 0.1 + 0.2 != 0.3
    a = complex_of(MonotoneParams(4, 0.1 + 0.2), [("x", 0), ("y", 5)], [("x", "y")])
    b = complex_of(MonotoneParams(4, 0.3), [("z", 2)])
    t = tensor_product(a, b).complex
    assert t.params.monotonicity == 0.1 + 0.2
    assert [(e.src, e.dst) for e in t.delta] == [("x*z", "y*z")]
    assert kunneth_check(b, a).passed


def test_tensor_rejects_monotonicity_beyond_the_action_tolerance():
    a = complex_of(MonotoneParams(4, 0.25), [("x", 0)])
    b = complex_of(MonotoneParams(4, 0.2500001), [("z", 0)])
    with pytest.raises(FcxError) as info:
        tensor_product(a, b)
    assert str(info.value) == (
        "tensor factors must share the monotonicity constant: 0.25 != 0.2500001"
    )


def test_kunneth_free_times_free_passes():
    a = complex_of(P4_ALG, [("x", 2)])
    report = kunneth_check(a, a)
    assert report.passed
    assert report.cells == ((1, 4, 0, 1, 1),)


def test_kunneth_dipole_squared():
    report = kunneth_check(DIPOLE, DIPOLE)
    assert report.passed
    assert report.max_page_checked == 2
    page1 = {(n, j): (got, want) for k, n, j, got, want in report.cells if k == 1}
    assert page1 == {(0, 0): (1, 1), (5, 1): (2, 2), (10, 2): (1, 1)}
    assert all(got == 0 for k, n, j, got, _ in report.cells if k == 2)


def test_kunneth_dipole_times_free():
    report = kunneth_check(DIPOLE, FREE_Z)
    assert report.passed
    page1 = {(n, j): got for k, n, j, got, _ in report.cells if k == 1}
    assert page1 == {(2, 2): 1, (7, 3): 1}


def test_kunneth_upto_caps_the_page_range():
    report = kunneth_check(DIPOLE, DIPOLE, upto=1)
    assert report.max_page_checked == 1


@pytest.mark.parametrize("upto", [0, -3])
def test_kunneth_upto_below_page_one_is_refused(upto):
    """A cap is a page index, so it obeys the page table's rule instead of
    being raised to page 1."""
    with pytest.raises(PageIndexError, match=f"indexed from 1, got {upto}"):
        kunneth_check(DIPOLE, DIPOLE, upto=upto)


def test_power_of_free_generator():
    a = complex_of(P4_ALG, [("x", 2)])
    report = power_poincare_check(a, 3, 1)
    assert report.passed
    assert report.product_poly.as_dict() == {6: 1}


def test_power_of_dipole_page_one_and_two():
    r1 = power_poincare_check(DIPOLE, 2, 1)
    assert r1.passed
    assert r1.product_poly.as_dict() == {0: 1, 5: 2, 10: 1}
    r2 = power_poincare_check(DIPOLE, 2, 2)
    assert r2.passed
    assert r2.product_poly.is_zero and r2.factor_poly_power.is_zero


def test_power_refuses_page_zero_before_building_a_product(monkeypatch):
    import fcx.kunneth

    built = []
    tensor = fcx.kunneth._tensor
    monkeypatch.setattr(fcx.kunneth, "_tensor", lambda a, b: built.append(1) or tensor(a, b))
    with pytest.raises(PageIndexError):
        power_poincare_check(DIPOLE, 4, 0)
    assert built == []
    assert power_poincare_check(DIPOLE, 4, 1).passed and len(built) == 3


def test_power_guards():
    with pytest.raises(SizeGuardError):
        power_poincare_check(DIPOLE, 5, 1)
    with pytest.raises(FcxError, match="at least 2"):
        power_poincare_check(DIPOLE, 1, 1)
    with pytest.raises(FcxError, match="indexed from 1"):
        power_poincare_check(DIPOLE, 2, 0)
    big = build_from_normal_form(
        NormalFormSpec(P4_ALG, free=tuple(range(-16, 17)))
    )
    assert big.count == 33
    with pytest.raises(SizeGuardError):
        power_poincare_check(big, 2, 1)


@given(seeds, seeds, periods)
@settings(max_examples=25, deadline=None)
def test_kunneth_passes_on_random_pairs(seed_a, seed_b, period):
    params = MonotoneParams(period, 0.5)
    a, _ = random_complex(seed_a, params, max_gens=6)
    b, _ = random_complex(seed_b, params, max_gens=6)
    report = kunneth_check(a, b)
    assert report.passed


@given(seeds, seeds, periods)
@settings(max_examples=25, deadline=None)
def test_product_collapse_is_max_when_both_limits_survive(seed_a, seed_b, period):
    # a factor with zero stable page annihilates every page of the product,
    # so the max rule needs both limits nonzero; one free generator per
    # factor guarantees that
    params = MonotoneParams(period, 0.5)
    _, spec_a = random_complex(seed_a, params, max_gens=6, max_jump=3)
    _, spec_b = random_complex(seed_b, params, max_gens=6, max_jump=3)
    a = build_from_normal_form(
        NormalFormSpec(params, spec_a.free + (0,), spec_a.dipoles)
    )
    b = build_from_normal_form(
        NormalFormSpec(params, spec_b.free + (0,), spec_b.dipoles)
    )
    product = tensor_product(a, b).complex
    assert collapse_page(product) == max(collapse_page(a), collapse_page(b))


def test_product_collapse_can_drop_below_max_for_acyclic_factors():
    killed = build_from_normal_form(NormalFormSpec(P4_ALG, dipoles=((0, 0),)))
    slow = build_from_normal_form(NormalFormSpec(P4_ALG, dipoles=((0, 2),)))
    assert collapse_page(killed) == 1
    assert collapse_page(slow) == 3
    product = tensor_product(killed, slow).complex
    # the degree-graded cohomology of the product is already zero, so the
    # product collapses immediately despite the slow factor
    assert collapse_page(product) == 1
    assert kunneth_check(killed, slow).passed


@given(seeds, seeds, st.sampled_from([4, 6]))
@settings(max_examples=20, deadline=None)
def test_euler_multiplicativity_for_even_periods(seed_a, seed_b, period):
    params = MonotoneParams(period, 0.5)
    a, _ = random_complex(seed_a, params, max_gens=6)
    b, _ = random_complex(seed_b, params, max_gens=6)
    product = tensor_product(a, b).complex
    ta, tb, tp = pages(a), pages(b), pages(product)
    for k in (1, tp.collapse_page):
        chi_a, chi_b, chi_p = (euler_number(t, k).chi for t in (ta, tb, tp))
        assert chi_p == chi_a * chi_b


def test_tensor_product_document_is_pinned():
    # Digest recorded when each product entry was found by rescanning both
    # factors' differentials; grouping them by source must not change it.
    def scrambled(seed, n):
        dipoles = tuple((d % 9 - 4, d % 3) for d in range(n // 3))
        free = tuple(f % 9 - 4 for f in range(n - 2 * len(dipoles)))
        spec = NormalFormSpec(P4, free, dipoles)
        return random_filtered_automorphism(seed, build_from_normal_form(spec))

    product = tensor_product(scrambled(7, 24), scrambled(8, 18)).complex
    assert (product.count, len(product.delta)) == (432, 702)
    assert hashlib.sha256(serialize(product).encode()).hexdigest() == (
        "2217f7db3c749dff7c25956a0b1537218468e6807a131b40f5fbead1d1594080"
    )


def test_factor_ids_whose_products_collide_are_refused_as_input_errors():
    """Ids may hold ``*``, so two valid factors can join to one product id
    twice; that is a fault of the input, not of the engine."""
    a = complex_of(P4_ALG, [("p", 0), ("p*q", 1)])
    b = complex_of(P4_ALG, [("q*r", 0), ("r", 1)])
    with pytest.raises(FcxError) as info:
        tensor_product(a, b)
    assert not isinstance(info.value, EngineConsistencyError)
    assert str(info.value) == (
        "tensor product id 'p*q*r' joins two factor pairs: 'p' * 'q*r' and 'p*q' * 'r'"
    )
    with pytest.raises(FcxError, match="'p\\*q\\*r' joins two factor pairs"):
        kunneth_check(a, b)


def test_a_power_whose_ids_collide_is_refused_as_an_input_error():
    c = complex_of(P4_ALG, [("x", 0), ("x*x", 2)])
    with pytest.raises(FcxError) as info:
        power_poincare_check(c, 2, 1)
    assert not isinstance(info.value, EngineConsistencyError)
    assert str(info.value) == (
        "tensor product id 'x*x*x' joins two factor pairs: 'x' * 'x*x' and 'x*x' * 'x'"
    )


def leibniz_product(a, b):
    """The product of ``a`` and ``b`` built from its Leibniz entries by id:
    (s*y, t*y) for each entry (s, t) of ``a`` and generator y of ``b``, and
    (x*u, x*v) for each generator x of ``a`` and entry (u, v) of ``b``.  No
    index arithmetic: the entries resolve by id."""
    pa, pb = a.params, b.params
    params = dataclasses.replace(pa, window_base=pa.window_base + pb.window_base)
    gens = [
        LiftedGenerator(f"{x.uid}*{y.uid}", x.degree + y.degree)
        for x in a.generators
        for y in b.generators
    ]
    entries = [(f"{s}*{y}", f"{t}*{y}") for s, t in a.delta for y in b.uids]
    entries += [(f"{x}*{u}", f"{x}*{v}") for x in a.uids for u, v in b.delta]
    return FloerComplexData(params, gens, entries)


def _factor(rng, params):
    """A small factor of 1 to 9 generators, sometimes without its
    differential, sometimes with ``*`` in every id (both factors may have
    one: no two pairs then join to one id)."""
    max_gens = rng.choice([1, 2, 5, 9])
    c, _ = random_complex(rng.getrandbits(32), params, max_gens=max_gens, max_jump=3)
    if rng.random() < 0.2:
        c = FloerComplexData(params, c.generators)  # an empty differential
    if rng.random() < 0.3:
        c = FloerComplexData(
            params,
            (LiftedGenerator(f"s*{g.uid}", g.degree) for g in c.generators),
            ((f"s*{s}", f"s*{t}") for s, t in c.delta),
        )
    return c


def test_tensor_product_equals_the_product_built_from_its_entries(monkeypatch):
    """On 240 seeded factor pairs, the product built in canonical order is
    the complex built from its Leibniz entries by id, its provenance comes in
    factor order, and no column is moved after the build."""
    import fcx.model

    moved = []
    move = fcx.model._moved
    monkeypatch.setattr(fcx.model, "_moved", lambda *args: moved.append(args) or move(*args))
    rng = random.Random(20261020)
    seen = {"star": 0, "empty": 0, "single": 0, "tie": 0}
    for _ in range(240):
        params = MonotoneParams(rng.choice([3, 4, 6]), 0.0)
        a, b = _factor(rng, params), _factor(rng, params)
        moved.clear()
        tensor = tensor_product(a, b)
        assert moved == []
        assert tensor.complex == leibniz_product(a, b)
        assert tensor.factor_ids == tuple(
            (f"{x}*{y}", x, y) for x in a.uids for y in b.uids
        )
        sums = [x.degree + y.degree for x in a.generators for y in b.generators]
        seen["star"] += any("*" in uid for uid in a.uids) != any("*" in uid for uid in b.uids)
        seen["empty"] += not a.delta or not b.delta
        seen["single"] += a.count == 1 or b.count == 1
        seen["tie"] += len(set(sums)) < len(sums)
    assert min(seen.values()) >= 30, seen
