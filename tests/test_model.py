"""Unit tests for the complex data model, validation, and base cohomologies.

The degree-graded cohomology is eliminated by ``z_graded_cohomology``; the
periodic cohomology HF has dimensions only, counted from the barcode and
computed independently from the image filtration by ``limit_and_filtration``.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import index_map
from fcx.engine import limit_and_filtration, pages
from fcx.io import FcxParseError, parse, serialize
from fcx.model import (
    CupClass,
    DifferentialEntry,
    FloerComplexData,
    InvalidComplexError,
    LiftedGenerator,
    MonotoneParams,
    require_valid,
    validate,
    z_graded_cohomology,
)
from fcx.synth import NormalFormSpec, build_from_normal_form, random_complex

P4 = MonotoneParams(maslov_period=4, monotonicity=0.5)
P4_ALG = MonotoneParams(maslov_period=4, monotonicity=0.0)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
periods = st.sampled_from([3, 4, 6])


def complex_of(params, gens, delta=()):
    """Build a complex from (uid, degree[, action]) tuples and (src, dst) pairs."""
    lifted = tuple(
        LiftedGenerator(g[0], g[1], g[2] if len(g) > 2 else None) for g in gens
    )
    return FloerComplexData(
        params, lifted, tuple(DifferentialEntry(s, t) for s, t in delta)
    )


def test_params_derived_quantities():
    assert P4.action_period == 2.0
    assert P4.action_tolerance == pytest.approx(2e-9)
    assert P4.residue(5) == 1
    assert P4.residue(-1) == 3
    assert P4.residue(8) == 0
    # tolerance floor: small action periods still get the absolute floor
    tiny = MonotoneParams(3, 0.1)
    assert tiny.action_tolerance == pytest.approx(1e-9)


def test_canonical_ordering_of_generators_and_delta():
    c = complex_of(
        P4_ALG,
        [("b", 5), ("a", 5), ("z", 0)],
        [("z", "b"), ("a", "b")],
    )
    assert [g.uid for g in c.generators] == ["z", "a", "b"]
    assert [(e.src, e.dst) for e in c.delta] == [("a", "b"), ("z", "b")]
    assert index_map(c)["z"] == 0 and c.generators[index_map(c)["b"]].degree == 5


def test_validate_minimal_dipole_is_valid():
    c = complex_of(P4_ALG, [("x", 0), ("y", 1)], [("x", "y")])
    report = validate(c)
    assert report.ok and not report.warnings


def test_validate_rejects_jump_not_of_required_form():
    c = complex_of(P4_ALG, [("x", 0), ("y", 2)], [("x", "y")])
    report = validate(c)
    assert not report.ok
    assert any("x -> y" in e and "jump 2" in e for e in report.errors)


def test_validate_rejects_nonpositive_degree_jump():
    c = complex_of(P4_ALG, [("x", 5), ("y", 0)], [("x", "y")])
    report = validate(c)
    assert any("jump -5" in e for e in report.errors)


def test_validate_accepts_consistent_action_linkage():
    # odd jump index: the in-window action difference is period - monotonicity
    params = MonotoneParams(4, 0.5, window_base=0.75)
    c = complex_of(params, [("x", 0, 1.0), ("y", 5, 2.5)], [("x", "y")])
    assert validate(c).ok


def test_validate_rejects_inconsistent_action_linkage():
    c = complex_of(P4, [("x", 0, 0.25), ("y", 5, 0.75)], [("x", "y")])
    report = validate(c)
    assert any("inconsistent with jump index 1" in e for e in report.errors)


def test_validate_even_jump_action_linkage():
    # jump index 0: difference must be exactly -monotonicity
    ok = complex_of(P4, [("x", 0, 1.0), ("y", 1, 0.5)], [("x", "y")])
    assert validate(ok).ok
    bad = complex_of(P4, [("x", 0, 1.0), ("y", 1, 1.5)], [("x", "y")])
    assert any("inconsistent with jump index 0" in e for e in validate(bad).errors)


def test_validate_small_period_needs_override():
    small = MonotoneParams(2, 0.0)
    c = complex_of(small, [("x", 0)])
    report = validate(c)
    assert any("below 3" in e for e in report.errors)

    allowed = MonotoneParams(2, 0.0, allow_small_period=True)
    c2 = complex_of(allowed, [("x", 0)])
    report2 = validate(c2)
    assert report2.ok
    assert any("below 3" in w for w in report2.warnings)


def test_validate_rejects_nonpositive_period():
    c = complex_of(MonotoneParams(0, 0.0), [("x", 0)])
    assert any("positive integer" in e for e in validate(c).errors)


def test_validate_rejects_negative_monotonicity():
    c = complex_of(MonotoneParams(4, -0.5), [("x", 0)])
    assert any("nonnegative" in e for e in validate(c).errors)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "params, degree, message",
    [
        (MonotoneParams(4, NAN), 0, "monotonicity constant must be a finite number, got nan"),
        (MonotoneParams(4, INF), 0, "monotonicity constant must be a finite number, got inf"),
        (MonotoneParams(4, 0.0, NAN), 0, "window base must be a finite number, got nan"),
        (MonotoneParams(4, 0.0, INF), 0, "window base must be a finite number, got inf"),
        (MonotoneParams(4, 0.0, half_dim=-3), 0, "half-dimension must be a nonnegative integer, got -3"),
        (MonotoneParams(4, 0.0, half_dim=2.5), 0, "half-dimension must be a nonnegative integer, got 2.5"),
        (MonotoneParams(4.5, 0.0), 0, "maslov period must be a positive integer, got 4.5"),
        (P4_ALG, 0.5, "generator 'a' lifted degree must be an integer, got 0.5"),
        (P4_ALG, True, "generator 'a' lifted degree must be an integer, got True"),
    ],
)
def test_validate_refuses_what_the_grammar_refuses(params, degree, message):
    """Each complex serializes to a document the parser refuses, and
    validation refuses it with that error alone."""
    c = complex_of(params, [("a", degree), ("x", 0)])
    assert validate(c).errors == (message,)
    with pytest.raises(FcxParseError):
        parse(serialize(c))


def test_a_valid_complex_with_m_and_r_round_trips():
    params = MonotoneParams(4, 0.5, window_base=0.75, half_dim=2)
    c = complex_of(params, [("x", 0, 1.0), ("y", 5, 2.5), ("z", 4, 1.25)], [("x", "y")])
    assert validate(c).ok
    text = serialize(c)
    assert "r 0.75\nm 2\n" in text
    assert parse(text) == c


def test_validate_rejects_duplicate_ids():
    c = complex_of(P4_ALG, [("x", 0), ("x", 1)])
    assert any("duplicate generator id 'x'" in e for e in validate(c).errors)


def test_validate_rejects_actions_in_algebraic_mode():
    c = complex_of(P4_ALG, [("x", 0, 0.5)])
    assert any("algebraic mode" in e for e in validate(c).errors)


def test_validate_rejects_action_outside_window():
    c = complex_of(P4, [("x", 0, 2.5)])
    assert any("outside the open window" in e for e in validate(c).errors)
    # the window is open: the endpoints themselves are rejected
    at_base = complex_of(P4, [("x", 0, 0.0)])
    assert any("outside the open window" in e for e in validate(at_base).errors)
    at_top = complex_of(P4, [("x", 0, 2.0)])
    assert any("outside the open window" in e for e in validate(at_top).errors)


def test_validate_rejects_unknown_references():
    c = complex_of(P4_ALG, [("x", 0)], [("x", "ghost")])
    assert any("unknown target 'ghost'" in e for e in validate(c).errors)
    c2 = complex_of(P4_ALG, [("y", 1)], [("ghost", "y")])
    assert any("unknown source 'ghost'" in e for e in validate(c2).errors)


def test_validate_rejects_duplicate_entries():
    c = FloerComplexData(
        P4_ALG,
        (LiftedGenerator("x", 0), LiftedGenerator("y", 1)),
        (DifferentialEntry("x", "y"), DifferentialEntry("x", "y")),
    )
    assert any("duplicate differential entry" in e for e in validate(c).errors)


def test_validate_rejects_nonzero_delta_square():
    c = complex_of(
        P4_ALG,
        [("a", 0), ("b", 1), ("c", 2)],
        [("a", "b"), ("b", "c")],
    )
    report = validate(c)
    assert any("does not square to zero" in e and "'a'" in e for e in report.errors)


def test_delta_square_zero_by_cancellation_is_accepted():
    # two paths a -> c cancel mod 2
    c = complex_of(
        P4_ALG,
        [("a", 0), ("b1", 1), ("b2", 1), ("c", 2)],
        [("a", "b1"), ("a", "b2"), ("b1", "c"), ("b2", "c")],
    )
    assert validate(c).ok


def test_require_valid_raises_with_report():
    c = complex_of(P4_ALG, [("x", 0), ("y", 2)], [("x", "y")])
    with pytest.raises(InvalidComplexError) as exc:
        require_valid(c)
    assert not exc.value.report.ok


def xor_of_resolved_entries(c):
    """delta as columns by a plain XOR over the entries whose ids both resolve."""
    idx = index_map(c)
    cols = [0] * c.count
    for src, dst in c.delta:
        if src in idx and dst in idx:
            cols[idx[src]] ^= 1 << idx[dst]
    return cols


def test_delta_columns_of_invalid_complexes_xor_the_resolved_entries():
    xy = [("x", 0), ("y", 1)]
    cases = {
        "unknown source": complex_of(P4_ALG, xy, [("ghost", "y"), ("x", "y")]),
        "unknown target": complex_of(P4_ALG, xy, [("x", "ghost"), ("x", "y")]),
        "repeated entry": complex_of(
            P4_ALG, xy + [("z", 1)], [("x", "y"), ("x", "y"), ("x", "z")]
        ),
        "bad degree jump": complex_of(
            P4_ALG, [("x", 0), ("y", 3), ("z", 1)], [("x", "y"), ("x", "z")]
        ),
        "period 0": complex_of(MonotoneParams(0, 0.0), xy, [("x", "y")]),
        "duplicate id": complex_of(P4_ALG, xy + [("x", 0)], [("x", "y")]),
    }
    for name, c in cases.items():
        assert not validate(c).ok, name
        cols = c.delta_columns()
        assert type(cols) is list, name
        assert cols == xor_of_resolved_entries(c), name
    assert cases["repeated entry"].delta_columns() == [0b100, 0, 0]
    assert cases["bad degree jump"].delta_columns() == [0b110, 0, 0]


def jump_zero_columns(c):
    """The jump-0 part of delta as columns, read off its entries: each entry
    whose target lies one degree above its source."""
    idx = index_map(c)
    degree = {g.uid: g.degree for g in c.generators}
    cols = [0] * c.count
    for src, dst in c.delta:
        if degree[dst] == degree[src] + 1:
            cols[idx[src]] ^= 1 << idx[dst]
    return cols


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_the_degree_graded_cohomology_reads_only_the_jump_zero_entries(seed, period):
    """The cohomology cuts each column to its jump-0 part itself: the complex
    of the jump-0 entries alone (its square is the jump-0 part of delta^2, so
    zero) has the same table, representatives included."""
    c, _ = random_complex(seed, MonotoneParams(period, 0.5), max_jump=3)
    jump0 = FloerComplexData.from_columns(c.params, c.generators, jump_zero_columns(c))
    assert z_graded_cohomology(jump0) == z_graded_cohomology(c)
    assert c.delta_columns() == xor_of_resolved_entries(c)


def test_z_graded_cohomology_requires_a_valid_complex():
    unknown = complex_of(P4_ALG, [("x", 0), ("y", 1)], [("x", "zz")])
    bad_jump = complex_of(P4_ALG, [("x", 0), ("y", 2)], [("x", "y")])
    for c in (unknown, bad_jump):
        with pytest.raises(InvalidComplexError) as exc:
            z_graded_cohomology(c)
        assert exc.value.report is validate(c)


def test_differential_entry_is_a_named_pair():
    e = DifferentialEntry("x", "y")
    assert DifferentialEntry._fields == ("src", "dst")
    assert (e.src, e.dst) == ("x", "y")
    assert repr(e) == "DifferentialEntry(src='x', dst='y')"
    with pytest.raises(AttributeError):
        e.src = "z"  # type: ignore[misc]
    assert {e: 1}[DifferentialEntry("x", "y")] == 1
    assert e == ("x", "y") and hash(e) == hash(("x", "y"))
    entries = [("b", "a"), ("a", "c"), ("a", "b"), ("ab", "a")]
    assert sorted(DifferentialEntry(s, t) for s, t in entries) == sorted(entries)
    assert sorted(entries) == [("a", "b"), ("a", "c"), ("ab", "a"), ("b", "a")]


def test_lifted_generator_is_a_frozen_record_with_a_pinned_repr_and_hash():
    """The ``repr`` and the hash are those the generator had as a frozen
    dataclass, so every digest over generators holds."""
    g = LiftedGenerator("a*b", 3)
    assert repr(g) == "LiftedGenerator(uid='a*b', degree=3, action=None)"
    assert repr(LiftedGenerator("x", -2, 0.75)) == (
        "LiftedGenerator(uid='x', degree=-2, action=0.75)"
    )
    assert hash(g) == hash((g.uid, g.degree, g.action))
    assert g == LiftedGenerator("a*b", 3, None) and {g: 1}[LiftedGenerator("a*b", 3)] == 1
    assert g != LiftedGenerator("a*b", 3, 0.5)
    with pytest.raises(AttributeError):
        g.degree = 4  # type: ignore[misc]
    assert g.degree == 3


def test_complex_sorts_unsorted_entries_into_the_same_complex():
    gens = [("a", 0), ("b", 1), ("c", 1), ("d", 2)]
    delta = [("b", "d"), ("a", "c"), ("c", "d"), ("a", "b")]
    unsorted = complex_of(P4_ALG, gens, delta)
    assert unsorted == complex_of(P4_ALG, gens, sorted(delta))
    assert unsorted.delta == tuple(sorted(unsorted.delta))
    assert all(type(e) is DifferentialEntry for e in unsorted.delta)


def test_complex_from_columns_equals_the_complex_from_its_entries():
    gens = [LiftedGenerator(u, n) for u, n in [("d", 2), ("a", 0), ("c", 1), ("b", 1)]]
    cols = [0, 0b1100, 0b0001, 0b0001]  # a -> c, b and c, b -> d, in the order given
    c = FloerComplexData.from_columns(P4_ALG, gens, cols)
    entries = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    built = complex_of(P4_ALG, [(g.uid, g.degree) for g in gens], entries)
    assert [g.uid for g in c.generators] == ["a", "b", "c", "d"]
    assert c.delta_columns() == [0b0110, 0b1000, 0b1000, 0]
    assert "delta" not in vars(c) and validate(c).ok and "delta" not in vars(c)
    assert c == built and hash(c) == hash(built) and c.delta is c.delta
    with pytest.raises(ValueError):
        FloerComplexData.from_columns(P4_ALG, gens, cols[:3])


@pytest.mark.parametrize("cols, bad", [((1 << 7, 0), 0), ((0, 0b100), 1), ((0b10, 0b1000), 1)])
def test_a_column_out_of_range_is_refused_naming_it(cols, bad):
    gens = [LiftedGenerator("a", 0), LiftedGenerator("b", 1)]
    message = f"column {bad} is negative or has a bit at 2 or beyond"
    with pytest.raises(ValueError, match=message):
        FloerComplexData.from_columns(P4_ALG, gens, cols)
    with pytest.raises(ValueError, match=message):
        CupClass.from_columns("x", 0, ("a", "b"), cols)


def test_a_negative_column_is_refused_in_bounded_time_and_memory():
    """A negative column once made validation run without end, so the
    builds and their validation run in a child limited to 10 s and 1 GiB of
    address space."""
    script = (
        "from fcx.model import *\n"
        "gens = [LiftedGenerator('a', 0), LiftedGenerator('b', 1)]\n"
        "for cols in ([-2, 0], [0, -1]):\n"
        "    try:\n"
        "        validate(FloerComplexData.from_columns(MonotoneParams(4, 0.0), gens, cols))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "    try:\n"
        "        CupClass.from_columns('x', 0, ('a', 'b'), cols).entries\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(validate.__code__.co_filename).parents[1])}

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=limit_memory,
    )
    refusals = [f"column {i} is negative or has a bit at 2 or beyond" for i in (0, 0, 1, 1)]
    assert (proc.returncode, proc.stderr, proc.stdout.splitlines()) == (0, "", refusals)


def test_a_canonical_generator_order_is_kept_and_any_other_is_sorted():
    gens = tuple(LiftedGenerator(u, n) for u, n in [("a", 0), ("b", 1), ("c", 1), ("d", 2)])
    cols = [0b0110, 0b1000, 0b1000, 0]
    c = FloerComplexData.from_columns(P4_ALG, gens, cols)
    assert c.generators is gens and c.delta_columns() == cols
    for seed in range(5):
        perm = list(range(4))
        random.Random(seed).shuffle(perm)
        shuffled = [gens[i] for i in perm]
        moved = [0] * 4  # column perm[j] of cols, re-indexed as positions in shuffled
        for j, i in enumerate(perm):
            moved[j] = sum(1 << perm.index(t) for t in range(4) if cols[i] >> t & 1)
        d = FloerComplexData.from_columns(P4_ALG, shuffled, moved)
        assert d.generators == gens and d.delta_columns() == cols and d == c


def test_z_graded_single_free_generator():
    c = complex_of(P4_ALG, [("x", 2)])
    table = z_graded_cohomology(c)
    assert table.as_dict() == {2: 1}


def test_z_graded_acyclic_dipole():
    c = complex_of(P4_ALG, [("x", 0), ("y", 1)], [("x", "y")])
    assert z_graded_cohomology(c).as_dict() == {}


def test_z_graded_ignores_higher_jump_entries():
    c = complex_of(P4_ALG, [("x", 0), ("y", 5)], [("x", "y")])
    table = z_graded_cohomology(c)
    assert table.as_dict() == {0: 1, 5: 1}
    reps = dict(table.representatives)
    assert reps[0] == (1 << index_map(c)["x"],)
    assert reps[5] == (1 << index_map(c)["y"],)


def barcode_dims(c):
    """(degree-graded dims by level, HF dims by residue) read from the page
    table: page 1, and the stable page summed by residue."""
    table = pages(c)
    hf: dict[int, int] = {}
    for (_n, j), d in table.page(table.collapse_page).items():
        hf[j] = hf.get(j, 0) + d
    return {n: d for (n, _j), d in table.page(1).items()}, hf


def hf_dims(c):
    """HF by residue from the barcode, checked against the image filtration."""
    hf = barcode_dims(c)[1]
    assert hf == limit_and_filtration(c).hf()
    return hf


def test_periodic_single_free_generator():
    c = complex_of(P4_ALG, [("x", 2)])
    assert hf_dims(c) == {2: 1}


def test_periodic_sees_higher_jump_entries():
    c = complex_of(P4_ALG, [("x", 0), ("y", 5)], [("x", "y")])
    assert hf_dims(c) == {}


def test_periodic_survivor_in_three_generator_complex():
    c = complex_of(P4_ALG, [("x", 0), ("xp", 4), ("y", 5)], [("x", "y")])
    assert hf_dims(c) == {0: 1}


def assert_coordinates_decode(c, seed):
    """``coordinates`` of the degree-graded cohomology: each representative
    decodes to its unit vector, also after adding a random sum of the
    degree's image rows (the jump-0 columns that land in it); an image sum
    decodes to 0; a vector that is not a cocycle of the degree decodes to
    None."""
    rng = random.Random(seed)
    table = z_graded_cohomology(c)
    cols = jump_zero_columns(c)
    piece = [g.degree for g in c.generators]
    reps = dict(table.representatives)
    for key in set(piece):
        image = [
            cols[s]
            for s in range(c.count)
            if cols[s] and c.generators[s].degree + 1 == key
        ]

        def image_sum():
            out = 0
            for b in image:
                if rng.random() < 0.5:
                    out ^= b
            return out

        assert table.coordinates(key, image_sum()) == 0
        basis = reps.get(key, ())
        total = 0
        for i, r in enumerate(basis):
            assert table.coordinates(key, r) == 1 << i
            assert table.coordinates(key, r ^ image_sum()) == 1 << i
            total ^= r
        assert table.coordinates(key, total ^ image_sum()) == (1 << len(basis)) - 1
        for s in range(c.count):
            if piece[s] != key or cols[s]:  # off the piece, or delta(e_s) != 0
                assert table.coordinates(key, total ^ 1 << s) is None


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_cohomology_coordinates_decode_cocycles_on_random_complexes(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5), max_gens=16, max_jump=3)
    assert_coordinates_decode(c, seed)


def test_cohomology_coordinates_decode_cocycles_on_scrambled_complexes(scrambled):
    for n, period, seed in ((120, 3, 1), (250, 4, 2)):
        assert_coordinates_decode(scrambled(n, period, seed), seed)


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_z_graded_dominates_periodic(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5))
    z = z_graded_cohomology(c)
    assert sum(z.as_dict().values()) >= sum(hf_dims(c).values())


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_euler_count_matches_generators(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5))
    z = z_graded_cohomology(c)
    from_gens = sum((-1) ** g.degree for g in c.generators)
    from_cohomology = sum((-1) ** n * d for n, d in z.dims)
    assert from_gens == from_cohomology


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_periodic_total_matches_rank_count(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5))
    from fcx.gf2 import Gf2Subspace

    rank = Gf2Subspace.from_vectors(c.count, c.delta_columns()).dim
    assert sum(hf_dims(c).values()) == c.count - 2 * rank


@given(seeds, periods, st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_periodic_of_delta_free_complex_counts_generators(seed, period, n_free):
    import random as _random

    rng = _random.Random(seed)
    params = MonotoneParams(period, 0.5)
    free = tuple(rng.randint(-6, 6) for _ in range(n_free))
    c = build_from_normal_form(NormalFormSpec(params, free=free))
    expected: dict[int, int] = {}
    for n in free:
        expected[n % period] = expected.get(n % period, 0) + 1
    assert hf_dims(c) == expected


def test_validation_report_is_cached_per_object():
    c = complex_of(P4_ALG, [("x", 0), ("y", 1)], [("x", "y")])
    assert validate(c) is validate(c)


def test_barcode_counts_both_cohomologies(scrambled):
    """The barcode's page-1 count is the eliminated degree-graded cohomology,
    and its free count by residue is the HF of the image filtration: on 240
    random complexes at periods 1-6 (1-2 in algebraic mode under the
    small-period override) and on the scrambled fixtures."""
    cases = []
    for seed in range(240):
        period = 1 + seed % 6
        small = period < 3
        params = MonotoneParams(period, 0.0 if small else 0.5, allow_small_period=small)
        cases.append(random_complex(seed, params, max_gens=6 + seed % 25, max_jump=3)[0])
    cases += [scrambled(*args) for args in ((120, 3, 1), (250, 4, 2), (400, 6, 3))]
    for c in cases:
        z, hf = barcode_dims(c)
        assert z == z_graded_cohomology(c).as_dict()
        assert hf == limit_and_filtration(c).hf()


# sha256 over repr((dims, representatives)) of the degree-graded cohomology
# of every complex below.  Re-expressed for that cohomology alone when the
# periodic one became dimensions only, and recorded with the implementation
# of that time; the earlier local-matrix one gave the same representatives.
COHOMOLOGY_AT_SCALE_SHA256 = (
    "131d2491331b887955f6ff32321834b0f44f9702047acd00149a424fa418c9c9"
)


def test_cohomology_at_scale_is_pinned_and_matches_the_pages(scrambled):
    digest = hashlib.sha256()
    for seed in range(40):
        params = MonotoneParams((3, 4, 6)[seed % 3], 0.5)
        c, _ = random_complex(seed, params, max_gens=40, max_jump=3)
        z = z_graded_cohomology(c)
        digest.update(repr((z.dims, z.representatives)).encode())
    for n, period, seed in ((120, 3, 1), (250, 4, 2), (400, 6, 3)):
        c = scrambled(n, period, seed)
        z = z_graded_cohomology(c)
        digest.update(repr((z.dims, z.representatives)).encode())
        table = pages(c)
        assert z.as_dict() == {level: d for (level, _), d in table.page(1).items()}
        assert barcode_dims(c)[1] == limit_and_filtration(c).hf()
    assert digest.hexdigest() == COHOMOLOGY_AT_SCALE_SHA256, digest.hexdigest()


def _mutated_complexes(count: int):
    """Seeded complexes built directly from entries, most of them invalid.

    Half are drawn raw: a few generators (an id may repeat, actions may sit
    outside the window), periods 0-6 with and without the small-period
    override, and entries that may name unknown ids, repeat or jump badly.
    The other half take a valid complex (with synthesized actions when the
    normal form allows them) and break one thing: an extra entry of a valid
    jump, a repeated or an unknown entry, a dropped entry, two composable
    entries (d^2 seldom vanishes then), a moved degree or a shifted action.
    """
    rng = random.Random(17)
    pool = "abcdefg"
    for i in range(count):
        if i % 2 == 0:
            period = rng.choice([0, 1, 2, 3, 3, 4, 4, 6])
            params = MonotoneParams(
                period, rng.choice([0.0, 0.5]), allow_small_period=rng.random() < 0.5
            )
            actions = [None, None, 0.25, 0.5, 1.5, 2.5]
            gens = [
                (rng.choice(pool), rng.randint(-3, 6), rng.choice(actions))
                for _ in range(rng.randint(1, 7))
            ]
            names = [g[0] for g in gens] + ["ghost"]
            delta = [
                (rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 9))
            ]
            if delta and rng.random() < 0.3:
                delta.append(rng.choice(delta))
            yield complex_of(params, gens, delta)
            continue
        params = MonotoneParams(rng.choice([3, 4, 6]), 0.5)
        if rng.random() < 0.5:
            spec = NormalFormSpec(
                params,
                tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 3))),
                tuple((rng.randint(-4, 4), rng.randint(0, 1)) for _ in range(rng.randint(1, 4))),
            )
            c = build_from_normal_form(spec)
        else:
            c = random_complex(rng.getrandbits(32), params, max_gens=10, max_jump=3)[0]
        gens = [(g.uid, g.degree, g.action) for g in c.generators]
        delta = list(c.delta)
        uids = [g[0] for g in gens]
        pairs = [  # the entries of a valid jump
            (s, t)
            for s, ds, _ in gens
            for t, dt, _ in gens
            if dt > ds and (dt - ds - 1) % params.maslov_period == 0
        ]
        kind = rng.randrange(7)
        if kind == 0 and pairs:
            delta.append(rng.choice(pairs))
        elif kind == 6:  # two composable entries: d^2 seldom vanishes
            chains = [(s, t, u) for s, t in pairs for t2, u in pairs if t2 == t]
            if chains:
                s, t, u = rng.choice(chains)
                delta += [e for e in ((s, t), (t, u)) if e not in delta]
        elif kind == 1 and delta:
            delta.append(rng.choice(delta))
        elif kind == 2:
            delta.append(rng.choice([(rng.choice(uids), "zz"), ("ghost", rng.choice(uids))]))
        elif kind == 3 and delta:
            delta.remove(rng.choice(delta))
        elif kind == 4:
            j = rng.randrange(len(gens))
            shift = rng.choice([-1, 1, params.maslov_period])
            gens[j] = (gens[j][0], gens[j][1] + shift, gens[j][2])
        else:
            j = rng.randrange(len(gens))
            action = gens[j][2]
            gens[j] = (gens[j][0], gens[j][1], None if action is None else action + 0.25)
        yield complex_of(params, gens, delta)


# sha256 over repr((errors, warnings)) of ``validate`` on every complex of
# ``_mutated_complexes(400)``, then on each one's serialized document after
# a parse (or the parse error's text), then on ``tests/golden/bad_jump.fcx``.
# Recorded when validation still resolved every entry one at a time.
VALIDATION_REPORTS_SHA256 = (
    "c5fff5a58e7f66f84ff35ee561bfe0eed22c5fc6d35042607af57c8a65e01a54"
)


def test_validation_reports_are_pinned():
    digest = hashlib.sha256()
    phrases = (
        "unknown source",
        "unknown target",
        "duplicate differential entry",
        "has degree jump",
        "inconsistent with jump index",
        "does not square to zero",
        "outside the open",
        "duplicate generator id",
    )
    seen = set()
    for c in _mutated_complexes(400):
        report = validate(c)
        digest.update(repr((report.errors, report.warnings)).encode())
        seen.update(p for p in phrases for e in report.errors if p in e)
        try:
            parsed = parse(serialize(c), allow_small_sigma=c.params.allow_small_period)
        except FcxParseError as exc:
            digest.update(str(exc).encode())
            continue
        report = validate(parsed)
        digest.update(repr((report.errors, report.warnings)).encode())
    golden = Path(__file__).parent / "golden" / "bad_jump.fcx"
    report = validate(parse(golden.read_text()))
    digest.update(repr((report.errors, report.warnings)).encode())
    assert seen == set(phrases)
    assert digest.hexdigest() == VALIDATION_REPORTS_SHA256, digest.hexdigest()
