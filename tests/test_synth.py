"""Tests for normal-form synthesis, the closed-form page oracle, and scrambling."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcx.synth
from conftest import page_cells
from fcx.engine import collapse_page, pages
from fcx.model import MonotoneParams, validate
from fcx.synth import (
    DEGREE_SPAN,
    NormalFormSpec,
    build_from_normal_form,
    normal_form_pages_oracle,
    random_complex,
    random_filtered_automorphism,
    random_normal_form,
)

P4 = MonotoneParams(4, 0.5)
P4_ALG = MonotoneParams(4, 0.0)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
periods = st.sampled_from([3, 4, 6])


def page_dims(c):
    table = pages(c)
    return {key: len(slots) for key, slots in page_cells(table).items()}, table.collapse_page


def test_spec_is_order_insensitive():
    a = NormalFormSpec(P4, free=(3, 1), dipoles=((2, 1), (0, 0)))
    b = NormalFormSpec(P4, free=(1, 3), dipoles=((0, 0), (2, 1)))
    assert a == b


def test_build_single_free_generator():
    c = build_from_normal_form(NormalFormSpec(P4, free=(2,)))
    assert [g.degree for g in c.generators] == [2]
    assert c.delta == ()
    assert validate(c).ok
    # monotone parameters are positive, so an in-window action is synthesized
    assert c.generators[0].action is not None


def test_build_single_dipole_jump_one():
    c = build_from_normal_form(NormalFormSpec(P4, dipoles=((0, 1),)))
    assert sorted(g.degree for g in c.generators) == [0, 5]
    assert len(c.delta) == 1
    e = c.delta[0]
    degree = {g.uid: g.degree for g in c.generators}
    assert degree[e.src] == 0 and degree[e.dst] == 5
    assert all(g.action is not None for g in c.generators)


def test_build_three_generator_example():
    c = build_from_normal_form(NormalFormSpec(P4, free=(4,), dipoles=((0, 1),)))
    assert sorted(g.degree for g in c.generators) == [0, 4, 5]
    assert len(c.delta) == 1


def test_build_omits_actions_for_large_jumps():
    c = build_from_normal_form(NormalFormSpec(P4, dipoles=((0, 2),)))
    assert all(g.action is None for g in c.generators)
    assert validate(c).ok


def test_build_omits_actions_in_algebraic_mode():
    c = build_from_normal_form(NormalFormSpec(P4_ALG, free=(0, 1)))
    assert all(g.action is None for g in c.generators)


def test_oracle_single_free_generator():
    oracle = normal_form_pages_oracle(NormalFormSpec(P4, free=(2,)))
    assert oracle.collapse_page == 1
    assert oracle.as_dict() == {(1, 2, 2): 1, (2, 2, 2): 1}
    assert oracle.page(1) == {(2, 2): 1}


def test_oracle_dipole_jump_one():
    oracle = normal_form_pages_oracle(NormalFormSpec(P4, dipoles=((0, 1),)))
    assert oracle.collapse_page == 2
    assert oracle.page(1) == {(0, 0): 1, (5, 1): 1}
    assert oracle.page(2) == {}
    assert oracle.page(3) == {}


def test_oracle_serves_the_stable_page_past_the_last_page_counted():
    oracle = normal_form_pages_oracle(NormalFormSpec(P4, free=(2,), dipoles=((0, 2),)))
    assert oracle.collapse_page == 3
    stable = {(2, 2): 1}
    assert oracle.page(2) == {(0, 0): 1, (9, 1): 1, (2, 2): 1}
    assert oracle.page(3) == oracle.page(4) == oracle.page(10**6) == stable
    for k in (0, -1):
        with pytest.raises(ValueError, match="pages are indexed from 1"):
            oracle.page(k)


def test_oracle_dipole_jump_zero():
    oracle = normal_form_pages_oracle(NormalFormSpec(P4, dipoles=((0, 0),)))
    assert oracle.collapse_page == 1
    assert oracle.as_dict() == {}


@given(seeds, periods)
@settings(max_examples=60, deadline=None)
def test_oracle_matches_engine_on_scrambled_complexes(seed, period):
    c, spec = random_complex(seed, MonotoneParams(period, 0.5))
    assert validate(c).ok
    dims, collapse = page_dims(c)
    oracle = normal_form_pages_oracle(spec)
    assert dims == oracle.as_dict()
    assert collapse == oracle.collapse_page


@given(seeds, periods)
@settings(max_examples=30, deadline=None)
def test_dipole_free_complexes_have_constant_pages(seed, period):
    rng = random.Random(seed)
    params = MonotoneParams(period, 0.5)
    free = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 6)))
    c = build_from_normal_form(NormalFormSpec(params, free=free))
    table = pages(c)
    assert table.page(1) == table.page(2) == table.page(3) == table.page(4)
    assert collapse_page(c) == 1


def test_random_complex_is_deterministic():
    a, spec_a = random_complex(12345, P4)
    b, spec_b = random_complex(12345, P4)
    assert a == b
    assert spec_a == spec_b


def test_random_complex_respects_size_bounds():
    for seed in range(30):
        c, spec = random_complex(seed, P4, max_gens=8, max_jump=1)
        assert 1 <= c.count <= 8
        assert all(k <= 1 for _, k in spec.dipoles)
        assert all(-DEGREE_SPAN <= n <= DEGREE_SPAN for n in spec.free)


def test_automorphism_is_identity_when_no_mixing_is_possible():
    # distinct residues and a single generator per degree leave no freedom
    c = build_from_normal_form(NormalFormSpec(P4_ALG, free=(0, 1, 2)))
    for seed in range(10):
        assert random_filtered_automorphism(seed, c) == c


def test_automorphism_changes_delta_but_not_pages():
    from fcx.model import DifferentialEntry, FloerComplexData, LiftedGenerator

    # both x(0) and xp(4) hit y, so the tail x -> x + xp cancels one arrow
    c = FloerComplexData(
        P4_ALG,
        (
            LiftedGenerator("x", 0),
            LiftedGenerator("xp", 4),
            LiftedGenerator("y", 5),
        ),
        (DifferentialEntry("x", "y"), DifferentialEntry("xp", "y")),
    )
    base_dims, base_collapse = page_dims(c)
    changed = 0
    for seed in range(20):
        out = random_filtered_automorphism(seed, c)
        assert validate(out).ok
        assert page_dims(out) == (base_dims, base_collapse)
        if out.delta != c.delta:
            changed += 1
    assert changed > 0


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_automorphism_preserves_all_page_dims(seed):
    base, _ = random_complex(99, P4, max_gens=12)
    out = random_filtered_automorphism(seed, base)
    assert page_dims(out) == page_dims(base)


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_random_normal_form_respects_bounds(seed, period):
    rng = random.Random(seed)
    spec = random_normal_form(rng, MonotoneParams(period, 0.5), max_gens=10, max_jump=3)
    n_gens = len(spec.free) + 2 * len(spec.dipoles)
    assert 1 <= n_gens <= 10
    assert all(0 <= k <= 3 for _, k in spec.dipoles)
    assert all(-DEGREE_SPAN <= n <= DEGREE_SPAN for n in spec.free)
    assert all(-DEGREE_SPAN <= n <= DEGREE_SPAN for n, _ in spec.dipoles)


class _CountingRandom(random.Random):
    """Records every value ``random()`` returns."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def random(self):
        value = super().random()
        self.draws.append(value)
        return value


@pytest.mark.parametrize("period", [3, 4, 6])
def test_scramble_draws_once_per_candidate_pair_in_ascending_index(
    monkeypatch, scrambled_spec, period
):
    """``random()`` is called once per (generator, same-residue generator of
    strictly higher degree) pair, in ascending index, and a draw below 0.35
    puts the pair's entry into the upward change of basis."""
    c = build_from_normal_form(scrambled_spec(90, period))
    gens = c.generators
    pairs = [
        (i, h)
        for i in range(c.count)
        for h in range(c.count)
        if gens[h].degree > gens[i].degree
        and gens[h].degree % period == gens[i].degree % period
    ]
    upward = []
    invert = fcx.synth.invert_columns

    def spy(cols, order, through):
        upward.append(list(cols))
        return invert(cols, order, through)

    monkeypatch.setattr(fcx.synth, "invert_columns", spy)
    rng = _CountingRandom(5)
    fcx.synth._scramble(rng, c)
    assert len(rng.draws) == len(pairs) > 400
    expected = [1 << i for i in range(c.count)]
    for (i, h), value in zip(pairs, rng.draws):
        if value < 0.35:
            expected[i] |= 1 << h
    assert upward == [expected]
