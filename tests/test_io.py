"""Tests for the FCX text format: grammar diagnostics and canonical round-trips."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import tracemalloc
from collections.abc import Sequence
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcx.cup import CupClass, RingTable
from fcx.invariants import rebase
from fcx.io import FcxParseError, format_decimal, parse, serialize
from fcx.kunneth import tensor_product
from fcx.model import (
    DifferentialEntry,
    FloerComplexData,
    LiftedGenerator,
    MonotoneParams,
    validate,
)
from fcx.synth import (
    NormalFormSpec,
    build_from_normal_form,
    random_complex,
    random_filtered_automorphism,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
periods = st.sampled_from([3, 4, 6])

DIPOLE_TEXT = "fcx 1\nsigma 4\nlambda 0.5\ngen x 0\ngen y 5\nd x y\n"


def test_parse_dipole_document():
    c = parse(DIPOLE_TEXT)
    assert c.params.maslov_period == 4
    assert c.params.monotonicity == 0.5
    assert c.params.window_base == 0.0
    assert c.params.half_dim is None
    assert [(g.uid, g.degree, g.action) for g in c.generators] == [
        ("x", 0, None),
        ("y", 5, None),
    ]
    assert c.delta == (DifferentialEntry("x", "y"),)
    assert type(c.delta[0]) is DifferentialEntry
    assert validate(c).ok


def test_parse_ignores_comments_and_blank_lines():
    text = "# header comment\n\nfcx 1  # trailing\nsigma 3\n\nlambda 0\ngen x 2 # deg two\n"
    c = parse(text)
    assert c.generators[0].degree == 2
    assert c.params.maslov_period == 3


def test_parse_missing_sigma_names_the_directive():
    with pytest.raises(FcxParseError, match="'sigma'"):
        parse("fcx 1\nlambda 0.5\ngen x 0\n")


def test_parse_missing_version_line():
    with pytest.raises(FcxParseError, match="fcx 1"):
        parse("sigma 4\nlambda 0.5\n")
    with pytest.raises(FcxParseError, match="fcx 1"):
        parse("")
    with pytest.raises(FcxParseError, match="version"):
        parse("fcx 2\n")


def test_parse_duplicate_generator_cites_both_lines():
    text = "fcx 1\nsigma 4\nlambda 0.5\ngen x 0\ngen x 4\n"
    with pytest.raises(FcxParseError) as exc:
        parse(text)
    assert exc.value.line_no == 5
    assert "line 4" in str(exc.value)


def test_parse_duplicate_header_and_delta_lines():
    with pytest.raises(FcxParseError, match="duplicate 'sigma'"):
        parse("fcx 1\nsigma 4\nsigma 4\nlambda 0.5\n")
    with pytest.raises(FcxParseError, match=r"duplicate differential entry"):
        parse("fcx 1\nsigma 4\nlambda 0.5\ngen x 0\ngen y 5\nd x y\nd x y\n")


def test_parse_duplicate_version_and_cup_lines_cite_both_lines():
    with pytest.raises(FcxParseError) as exc:
        parse("fcx 1\nsigma 4\nfcx 1\nlambda 0.5\n")
    assert (exc.value.line_no, str(exc.value)) == (
        3, "line 3: duplicate 'fcx' line (first on line 1)"
    )
    with pytest.raises(FcxParseError) as exc:
        parse("fcx 1\nsigma 3\nlambda 0\ngen u 0\ncup q 0\nc q u u\ncup q 2\n")
    assert (exc.value.line_no, str(exc.value)) == (
        7, "line 7: duplicate cup class 'q' (first declared on line 5)"
    )


def test_parse_unknown_directive_carries_line_number():
    with pytest.raises(FcxParseError) as exc:
        parse("fcx 1\nsigma 4\nlambda 0.5\nfrobnicate 1\n")
    assert exc.value.line_no == 4
    assert "frobnicate" in str(exc.value)


def test_parse_token_shape_diagnostics():
    with pytest.raises(FcxParseError, match="integer"):
        parse("fcx 1\nsigma four\n")
    with pytest.raises(FcxParseError, match=">= 1"):
        parse("fcx 1\nsigma 0\n")
    with pytest.raises(FcxParseError, match="plain decimal"):
        parse("fcx 1\nsigma 4\nlambda 1e-3\n")
    with pytest.raises(FcxParseError, match="argument"):
        parse("fcx 1\nsigma 4\nlambda 0.5\ngen x\n")
    with pytest.raises(FcxParseError, match=r"\[A-Za-z0-9_\*\]"):
        parse("fcx 1\nsigma 4\nlambda 0.5\ngen x-y 0\n")


@pytest.mark.parametrize(
    "what, line_no, lines",
    [
        ("lambda", 3, ["lambda 1" + "0" * 400]),
        ("r", 4, ["lambda 0.5", "r -1" + "0" * 400]),
        ("action", 4, ["lambda 0.5", "gen x 0 1" + "0" * 400 + ".5"]),
    ],
)
def test_decimals_must_be_finite(what, line_no, lines):
    with pytest.raises(FcxParseError) as info:
        parse("\n".join(["fcx 1", "sigma 4", *lines]) + "\n")
    assert str(info.value).startswith(f"line {line_no}: {what} must be a finite number")


def test_parse_dangling_references():
    with pytest.raises(FcxParseError, match="unknown generator 'y'"):
        parse("fcx 1\nsigma 4\nlambda 0.5\ngen x 0\nd x y\n")
    with pytest.raises(FcxParseError, match="unknown cup class 'b'"):
        parse("fcx 1\nsigma 4\nlambda 0.5\ngen x 0\ncup a 0\nring a a b\n")
    with pytest.raises(FcxParseError, match="unknown cup class 'q'"):
        parse("fcx 1\nsigma 4\nlambda 0.5\ngen x 0\nc q x x\n")


def test_parse_cup_and_ring_bodies():
    text = (
        "fcx 1\nsigma 3\nlambda 0\ngen u 0\ngen v 2\n"
        "cup q 2\nc q u v\ncup 1 0\nc 1 u u\nc 1 v v\n"
        "ring 1 1 1\nring 1 q q\nring q q 0\n"
    )
    c = parse(text)
    by_name = {cls.name: cls for cls in c.cup_classes}
    assert by_name["q"].degree == 2 and by_name["q"].entries == (("u", "v"),)
    assert by_name["1"].entries == (("u", "u"), ("v", "v"))
    assert c.ring is not None
    products = dict(c.ring.products)
    assert products[("q", "q")] is None
    assert products[("1", "q")] == "q"


def test_cup_entries_may_precede_their_cup_line():
    text = (
        "fcx 1\nsigma 4\nlambda 0\ngen a 0\ngen b 0\n"
        "c e a b\nc e b a\ncup e 0\nc e a a\n"
    )
    c = parse(text)
    (e,) = c.cup_classes
    assert (e.name, e.degree) == ("e", 0)
    assert e.entries == (("a", "a"), ("a", "b"), ("b", "a"))
    out = serialize(c)
    assert out.splitlines()[-4:] == ["cup e 0", "c e a a", "c e a b", "c e b a"]
    assert parse(out) == c and serialize(parse(out)) == out


@pytest.mark.parametrize(
    "body, line_no, first",
    [
        # both copies resolve as they are read, on either side of 'cup'
        ("gen a 0\ngen b 0\nc e a b\ncup e 0\nc e a b\n", 8, 6),
        # the first copy waits for its 'gen' line
        ("gen a 0\nc e a b\ngen b 0\ncup e 0\nc e a b\n", 8, 5),
        # both wait
        ("c e a b\ncup e 0\nc e a b\ngen a 0\ngen b 0\n", 6, 4),
    ],
)
def test_a_duplicate_cup_entry_across_its_cup_line_cites_its_first_line(body, line_no, first):
    with pytest.raises(FcxParseError) as info:
        parse("fcx 1\nsigma 4\nlambda 0\n" + body)
    assert str(info.value) == (
        f"line {line_no}: duplicate entry (a -> b) for class 'e' (first on line {first})"
    )


def test_parse_duplicate_ring_row_is_order_insensitive():
    text = (
        "fcx 1\nsigma 3\nlambda 0\ngen u 0\n"
        "cup a 0\ncup b 0\nring a b 0\nring b a 0\n"
    )
    with pytest.raises(FcxParseError, match="duplicate ring row"):
        parse(text)


def test_parse_allow_small_sigma_passthrough():
    text = "fcx 1\nsigma 2\nlambda 0\ngen x 0\n"
    assert not validate(parse(text)).ok  # period too small without the flag
    report = validate(parse(text, allow_small_sigma=True))
    assert report.ok and report.warnings


def test_the_small_period_flag_is_a_reading_option_not_part_of_the_document():
    params = MonotoneParams(2, 0.0, allow_small_period=True)
    c = FloerComplexData(params, (LiftedGenerator("x", 0),), ())
    assert validate(c).ok
    text = serialize(c)
    assert parse(text, allow_small_sigma=True) == c
    again = parse(text)
    assert not again.params.allow_small_period and again != c and not validate(again).ok


def test_serialize_dipole_produces_the_canonical_document():
    c = parse(DIPOLE_TEXT)
    assert serialize(c) == "fcx 1\nsigma 4\nlambda 0.5\nr 0\ngen x 0\ngen y 5\nd x y\n"


def test_serialize_orders_canonically():
    c = FloerComplexData(
        MonotoneParams(4, 0.0),
        (
            LiftedGenerator("y", 5),
            LiftedGenerator("b", 0),
            LiftedGenerator("a", 0),
        ),
        (DifferentialEntry("b", "y"), DifferentialEntry("a", "y")),
    )
    text = serialize(c)
    gen_lines = [l for l in text.splitlines() if l.startswith("gen ")]
    d_lines = [l for l in text.splitlines() if l.startswith("d ")]
    assert gen_lines == ["gen a 0", "gen b 0", "gen y 5"]
    assert d_lines == ["d a y", "d b y"]


def test_serialize_actions_use_twelve_significant_digits():
    c = FloerComplexData(
        MonotoneParams(4, 0.5, window_base=0.0),
        (
            LiftedGenerator("x", 0, 0.123456789012345),
            LiftedGenerator("y", 5, 1.5),
        ),
        (DifferentialEntry("x", "y"),),
    )
    text = serialize(c)
    assert "gen x 0 0.123456789012" in text
    assert "gen y 5 1.5" in text


def test_format_decimal_has_no_exponent_form():
    assert format_decimal(2.0) == "2"
    assert format_decimal(-0.0) == "0"
    assert format_decimal(0.5) == "0.5"
    assert format_decimal(1e-13) == "0.0000000000001"
    assert format_decimal(-1.25) == "-1.25"
    for x in (2.0, 0.5, 1e-13, -1.25, 0.123456789012):
        assert float(format_decimal(x)) == x


def test_roundtrip_with_cup_and_ring_data():
    c = FloerComplexData(
        MonotoneParams(3, 0.0, half_dim=2),
        (LiftedGenerator("u", 0), LiftedGenerator("v", 2)),
        (),
        cup_classes=(
            CupClass("1", 0, (("u", "u"), ("v", "v"))),
            CupClass("q", 2, (("u", "v"),)),
        ),
        ring=RingTable(products=((("1", "1"), "1"), (("q", "q"), None))),
    )
    again = parse(serialize(c))
    assert again == c
    assert serialize(again) == serialize(c)


def test_parse_serialize_idempotent_on_messy_input():
    messy = (
        "# a messy file\nfcx 1\nlambda 0.5\nsigma 4\n"
        "gen y 5 2.5\ngen x 0 1.0\nd x y\nr 0.75\n"
    )
    canonical = serialize(parse(messy))
    assert parse(canonical) == parse(messy)
    assert serialize(parse(canonical)) == canonical
    assert canonical.index("sigma") < canonical.index("lambda") < canonical.index("r ")


@given(seeds, periods)
@settings(max_examples=40, deadline=None)
def test_roundtrip_of_generated_complexes_is_exact(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5), max_jump=3)
    assert parse(serialize(c)) == c


def test_roundtrip_preserves_synthesized_actions():
    spec = NormalFormSpec(
        params=MonotoneParams(4, 0.5, window_base=0.25),
        dipoles=((0, 0), (1, 1)),
        free=(0, 3),
    )
    c = build_from_normal_form(spec)
    assert all(g.action is not None for g in c.generators)
    again = parse(serialize(c))
    assert again == c


def sha256_of(c: FloerComplexData) -> str:
    return hashlib.sha256(serialize(c).encode()).hexdigest()


# Digests of synthesized documents, recorded before the scrambler inverted its
# two factors separately; a change to the random draws or to the conjugation
# shows up here as a different document.
SYNTH_DIGESTS = {
    (0, 3): "bb43ad8831405ee8a7a9de7463bcfd48cb11584d9622adceb6b91ec237e6547a",
    (1, 4): "9c64dc58c5e9ed8745f1fd39369fc13487821125e4de63219eac64eac2c9881e",
    (7, 6): "f17ee879b45491a54a89f7647e27225119bce1a2b2ac0dbfe0087a852a36faba",
    (42, 4): "51d5caf02d82619f75967a01ccb3c498002a98d0c2a49dc3e411df4d24c5bb2d",
    (2024, 3): "bcb2cd4d2b09545dd1568b18cf230de257bbcaa2d5b1d9aa19b7f5d032b842c9",
}


@pytest.mark.parametrize("seed, period", sorted(SYNTH_DIGESTS))
def test_random_complex_documents_are_pinned(seed, period):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5))
    assert sha256_of(c) == SYNTH_DIGESTS[(seed, period)]


def test_random_filtered_automorphism_document_is_pinned():
    params = MonotoneParams(4, 0.0)
    spec = NormalFormSpec(
        params,
        tuple(range(-30, 30)),
        tuple(((n % 41) - 20, n % 3) for n in range(120)),
    )
    c = random_filtered_automorphism(5, build_from_normal_form(spec))
    assert (c.count, len(c.delta)) == (300, 5130)
    assert sha256_of(c) == (
        "b30da711d3f72536999478356705cf546cc9c682d9f56cd74e96bf5c6d928277"
    )


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff13", "1.0", "0x1", "-", "+"])
def test_integers_must_be_ascii_digits(token):
    text = f"fcx 1\nsigma 4\nlambda 0.5\ngen x {token}\n"
    with pytest.raises(FcxParseError, match="line 4: .*must be an integer") as info:
        parse(text)
    assert info.value.line_no == 4


def test_integer_header_fields_must_be_ascii_digits():
    with pytest.raises(FcxParseError, match="line 2: ") as info:
        parse("fcx 1\nsigma \uff14\nlambda 0.5\n")
    assert info.value.line_no == 2


D_HEAD = "fcx 1\nsigma 4\nlambda 0.5\ngen a 0\ngen b 1\n"  # lines 1-5


@pytest.mark.parametrize(
    "body, line_no, message",
    [
        ("d a$ b\n", 6, "source id must match [A-Za-z0-9_*]+, got 'a$'"),
        ("d a b$\n", 6, "target id must match [A-Za-z0-9_*]+, got 'b$'"),
        ("d a b # first\nd b a\nd a b\n", 8,
         "duplicate differential entry (a -> b) (first on line 6)"),
        ("d a\n", 6, "directive 'd' takes 2 argument(s), got 1"),
        ("d a b a\n", 6, "directive 'd' takes 2 argument(s), got 3"),
        # ids that passed the check once are remembered; a bad partner is not
        ("d a b\nd a c$\n", 7, "target id must match [A-Za-z0-9_*]+, got 'c$'"),
        ("d a b\nd b$ b\n", 7, "source id must match [A-Za-z0-9_*]+, got 'b$'"),
        ("d a b\nd a b\n", 7, "duplicate differential entry (a -> b) (first on line 6)"),
    ],
)
def test_differential_line_diagnostics(body, line_no, message):
    with pytest.raises(FcxParseError) as info:
        parse(D_HEAD + body)
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: {message}"


def test_differential_lines_before_the_version_line_are_refused():
    with pytest.raises(FcxParseError) as info:
        parse("d a b\nfcx 1\nsigma 4\nlambda 0.5\ngen a 0\ngen b 1\n")
    assert str(info.value) == "line 1: first directive must be 'fcx 1'"


def test_reused_ids_and_commented_differential_lines_parse():
    c = parse(D_HEAD + "gen c 5\nd\ta  c # a comment\n  d b c\t\nd a b#\n")
    assert [(e.src, e.dst) for e in c.delta] == [("a", "b"), ("a", "c"), ("b", "c")]
    assert all(type(e) is DifferentialEntry for e in c.delta)


CUP_HEAD = "fcx 1\nsigma 4\nlambda 0.5\ngen a 0\ngen b 1\ncup e 0\n"  # lines 1-6


@pytest.mark.parametrize(
    "body, line_no, message",
    [
        ("c e a$ b\n", 7, "source id must match [A-Za-z0-9_*]+, got 'a$'"),
        ("c e a b$\n", 7, "target id must match [A-Za-z0-9_*]+, got 'b$'"),
        ("c e$ a$ b$\n", 7, "class name must match [A-Za-z0-9_*]+, got 'e$'"),
        ("c e a b # first\nc e b a\nc e a b\n", 9,
         "duplicate entry (a -> b) for class 'e' (first on line 7)"),
        ("c e a\n", 7, "directive 'c' takes 3 argument(s), got 2"),
        # ids that passed the check once, on a 'd' or 'c' line, are
        # remembered; a bad id raises where it first occurs
        ("d a b\nc e a b$\n", 8, "target id must match [A-Za-z0-9_*]+, got 'b$'"),
        ("c e a b\nd a b$\n", 8, "target id must match [A-Za-z0-9_*]+, got 'b$'"),
        ("c e a b\nc e b$ a\nd b$ a\n", 8, "source id must match [A-Za-z0-9_*]+, got 'b$'"),
        ("d a b\nc e b a\nc e a zz\n", 9, "unknown generator 'zz'"),
    ],
)
def test_cup_entry_line_diagnostics(body, line_no, message):
    with pytest.raises(FcxParseError) as info:
        parse(CUP_HEAD + body)
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize(
    "body, line_no, message",
    [
        # a later 'd' line does not hide an earlier 'ring' or 'c' line
        ("ring e zz e\nd a yy\n", 7, "unknown cup class 'zz'"),
        ("c e a a\nc e a yy\nd yy a\n", 8, "unknown generator 'yy'"),
        # ... nor the other way round
        ("d a b\nd a yy\nring e zz e\nc q a a\n", 8, "unknown generator 'yy'"),
        # entries are looked up in line order, not in (src, dst) order
        ("d b yy\nd a zz\n", 7, "unknown generator 'yy'"),
        # source before target, class before generators, product before factors
        ("d xx yy\n", 7, "unknown generator 'xx'"),
        ("c q xx a\n", 7, "unknown cup class 'q'"),
        ("ring q e r\n", 7, "unknown cup class 'r'"),
        # references may point forward
        ("d a yy\ngen yy 5\nring e r e\ncup r 0\nc s a a\n", 11, "unknown cup class 's'"),
    ],
)
def test_unknown_references_report_the_earliest_line(body, line_no, message):
    with pytest.raises(FcxParseError) as info:
        parse(CUP_HEAD + body)
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: {message}"


def test_differential_lines_may_name_generators_declared_later():
    body = "".join(f"d x{i} y{i}\n" for i in range(5))
    gens = "".join(f"gen x{i} 0\ngen y{i} 1\n" for i in range(5))
    c = parse("fcx 1\nsigma 4\nlambda 0\n" + body + gens)
    assert [(e.src, e.dst) for e in c.delta] == [(f"x{i}", f"y{i}") for i in range(5)]
    assert validate(c).ok


def _resolved_one_entry_at_a_time(text):
    """The document's generators in canonical order, its entries and its
    delta columns, resolving each 'd' line's ids on its own (an entry with
    an unknown id left out, the last generator taken for a repeated id)."""
    gens, entries = [], []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] == ["gen"]:
            gens.append(LiftedGenerator(tokens[1], int(tokens[2])))
        elif tokens[:1] == ["d"]:
            entries.append(DifferentialEntry(tokens[1], tokens[2]))
    gens.sort(key=lambda g: (g.degree, g.uid))
    idx = {g.uid: i for i, g in enumerate(gens)}
    cols = [0] * len(gens)
    for src, dst in entries:
        if src in idx and dst in idx:
            cols[idx[src]] ^= 1 << idx[dst]
    return gens, entries, cols


# Entries that do not resolve cleanly, with the errors ``validate`` words for
# them: the parser refuses them, a complex built from them keeps them.
UNRESOLVED_BODIES = {
    "gen a 0\ngen b 1\nd a b\nd a b\n": ("duplicate differential entry (a -> b)",),
    "gen a 0\ngen b 1\nd a b\nd a zz\n": (
        "differential entry references unknown target 'zz'",
    ),
    "gen a 0\ngen b 1\ngen a 0\nd a b\n": ("duplicate generator id 'a'",),
}


@pytest.mark.parametrize(
    "body",
    [
        # 'd' lines before the 'gen' lines they name
        "d b c\nd a b\nd a b2\nd b2 c\ngen a 0\ngen b 1\ngen b2 1\ngen c 2\n",
        # 'gen' lines out of canonical order: z, b, a at degrees 0, 1, 1
        "gen z 0\ngen c 2\ngen b 1\ngen a 1\nd z a\nd z b\nd a c\nd b c\n",
        # both, with comments, and the first 'd' line naming both kinds
        "gen q 1 # out of order\nd p q\nd q r\ngen p 0\n# gen x 9\nd p s\n"
        "gen s 1\nd s r\ngen r 2\n",
        # entries in shuffled order
        "gen a 0\ngen b 1\ngen c 1\ngen d 2\nd c d\nd a c\nd b d\nd a b\n",
        *UNRESOLVED_BODIES,
    ],
)
def test_out_of_order_documents_resolve_like_their_entries(body):
    text = "fcx 1\nsigma 4\nlambda 0\n" + body
    gens, entries, cols = _resolved_one_entry_at_a_time(text)
    built = FloerComplexData(MonotoneParams(4, 0.0), tuple(gens), tuple(entries))
    assert built.delta_columns() == cols
    if body in UNRESOLVED_BODIES:
        with pytest.raises(FcxParseError):
            parse(text)
        again = FloerComplexData(MonotoneParams(4, 0.0), gens[::-1], entries[::-1])
        assert again == built and hash(again) == hash(built)
        assert again.delta == built.delta == tuple(sorted(entries))
        assert serialize(again) == serialize(built)
        assert validate(built).errors == UNRESOLVED_BODIES[body]
        return
    c = parse(text)
    assert list(c.generators) == gens
    assert c.delta_columns() == cols
    assert c == built and hash(c) == hash(built)
    assert repr(c) == repr(built)
    assert serialize(c) == serialize(built)
    assert validate(c).ok


def test_shuffled_large_document_resolves_like_its_entries():
    spec = NormalFormSpec(
        MonotoneParams(4, 0.0), (0, 1, 2) * 30, tuple((d % 9, d % 3) for d in range(60))
    )
    c = random_filtered_automorphism(5, build_from_normal_form(spec))
    lines = serialize(c).splitlines()
    head, body = lines[:4], lines[4:]
    random.Random(1).shuffle(body)
    text = "\n".join(head + body) + "\n"
    parsed = parse(text)
    gens, _entries, cols = _resolved_one_entry_at_a_time(text)
    assert list(parsed.generators) == gens == list(c.generators)
    assert parsed.delta_columns() == cols == c.delta_columns()
    assert parsed == c and hash(parsed) == hash(c)
    copy = dataclasses.replace(parsed, ring=None)  # carries the columns across
    assert copy == c and copy.delta_columns() == cols


LINE_ORDER_CASES = [
    # the first copy waited for its 'gen' line, the second resolves
    ("d a c\ngen c 2\nd a c\n", 8,
     "duplicate differential entry (a -> c) (first on line 6)"),
    # both copies wait
    ("d c a\nd b c\nd c a # again\ngen c 2\n", 8,
     "duplicate differential entry (c -> a) (first on line 6)"),
    # both resolve, with a waiting entry in between
    ("d a b\nd a c\nd a b\ngen c 2\n", 8,
     "duplicate differential entry (a -> b) (first on line 6)"),
    # a repeat is found where it occurs, before any unknown reference
    ("d a zz\nd b a\nd a zz\n", 8,
     "duplicate differential entry (a -> zz) (first on line 6)"),
    # forward references resolve; the earliest unknown one is reported
    ("d a yy\nd zz b\ngen yy 3\n", 7, "unknown generator 'zz'"),
    ("d xx yy\ngen xx 0\nd a b\n", 6, "unknown generator 'yy'"),
    ("d yy a\nd b qq\nd a b\ngen yy 4\nd qq a\n", 7, "unknown generator 'qq'"),
    ("d yy a\ngen yy 4\nd yy b\nd b qq\nd qq a\n", 9, "unknown generator 'qq'"),
]


@pytest.mark.parametrize("body, line_no, message", LINE_ORDER_CASES)
def test_forward_references_and_repeats_are_diagnosed_in_line_order(body, line_no, message):
    with pytest.raises(FcxParseError) as info:
        parse(D_HEAD + body)
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("body, line_no, message", LINE_ORDER_CASES)
def test_class_entries_are_diagnosed_in_line_order_like_differential_ones(
    body, line_no, message
):
    """The same table as ``c e`` lines: the same lines are cited, with the
    class's wording for a repeat."""
    lines = ["c e " + line[2:] if line.startswith("d ") else line for line in body.splitlines()]
    body = "\n".join(lines + ["cup e 1"]) + "\n"
    message = message.replace("differential entry", "entry").replace(
        " (first", " for class 'e' (first"
    )
    with pytest.raises(FcxParseError) as info:
        parse(D_HEAD + body)
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: {message}"


SHARED_ENTRY_LINES = ["d a b", "c p a b", "c q a b"]


@pytest.mark.parametrize("gens_first", [True, False])
def test_one_pair_is_an_entry_of_each_owner_and_a_repeat_cites_its_own(gens_first):
    """``(a -> b)`` in the differential and in two classes: three entries,
    none a repeat of another; with the generators declared after the entry
    lines, all three wait for them under their own owner."""
    gens = ["gen a 0", "gen b 1"]
    body = gens + SHARED_ENTRY_LINES if gens_first else SHARED_ENTRY_LINES + gens
    lines = ["fcx 1", "sigma 4", "lambda 0.5"] + body + ["cup p 1", "cup q 1"]
    c = parse("\n".join(lines) + "\n")
    assert [tuple(e) for e in c.delta] == [("a", "b")]
    assert {cls.name: cls.entries for cls in c.cup_classes} == {
        "p": (("a", "b"),), "q": (("a", "b"),)
    }
    for entry in SHARED_ENTRY_LINES:
        first = lines.index(entry) + 1
        owner = entry.split()[1] if entry.startswith("c ") else None
        wording = (
            "duplicate differential entry (a -> b)"
            if owner is None
            else f"duplicate entry (a -> b) for class '{owner}'"
        )
        with pytest.raises(FcxParseError) as info:
            parse("\n".join(lines + [entry]) + "\n")
        assert info.value.line_no == len(lines) + 1
        assert str(info.value) == (
            f"line {len(lines) + 1}: {wording} (first on line {first})"
        )


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        # a repeat, then an unknown directive: the repeat is the earlier fault
        (D_HEAD + "d a b\nd a b\nfrob 1\n", 7,
         "duplicate differential entry (a -> b) (first on line 6)"),
        # an unknown directive, then a repeat
        (D_HEAD + "d a b\nfrob 1\nd a b\n", 7, "unknown directive 'frob'"),
        # a repeat before the end-of-document check for the headers
        ("fcx 1\nlambda 0.5\ngen a 0\ngen b 1\nd a b\n\nd a b # again\n", 7,
         "duplicate differential entry (a -> b) (first on line 5)"),
        # a repeat after an entry that waits for its generator forever
        (D_HEAD + "d a zz\nd b a\nd b a\n", 8,
         "duplicate differential entry (b -> a) (first on line 7)"),
        # a class entry repeated, then a bad 'gen' line
        (CUP_HEAD + "c e a b\nc e a b\ngen q$ 0\n", 8,
         "duplicate entry (a -> b) for class 'e' (first on line 7)"),
        # the same, the first copy waiting for its generator
        (CUP_HEAD + "c e a q\ngen q 2\n# note\nc e a q\ngen q$ 0\n", 10,
         "duplicate entry (a -> q) for class 'e' (first on line 7)"),
    ],
)
def test_a_repeat_and_another_fault_cite_the_earlier_line(text, line_no, message):
    """Repeats are found after the last line read, yet a repeat before
    another fault is still the one cited, as is a fault before a repeat."""
    with pytest.raises(FcxParseError) as info:
        parse(text)
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: {message}"


# Lines that are faults wherever they stand after the version line.
FAULT_LINES = {
    "frob 1": "unknown directive 'frob'",
    "gen q$ 0": "generator id must match [A-Za-z0-9_*]+, got 'q$'",
    "d x0": "directive 'd' takes 2 argument(s), got 1",
    "c e x0 x1 x2": "directive 'c' takes 3 argument(s), got 4",
    "d x$ x0": "source id must match [A-Za-z0-9_*]+, got 'x$'",
    "cup e$ 0": "class name must match [A-Za-z0-9_*]+, got 'e$'",
    "ring e": "directive 'ring' takes 3 argument(s), got 1",
}


def _with_class_copy(c: FloerComplexData) -> list[str]:
    """The lines of ``c``'s document, its entries again as the class 'e'."""
    lines = serialize(c).splitlines()
    return lines + ["cup e 0"] + ["c e" + line[1:] for line in lines if line.startswith("d ")]


def test_a_copied_entry_and_a_fault_are_diagnosed_in_line_order():
    """One entry line copied and one fault line inserted at random places
    after the version line: the error cites whichever comes first."""
    rnd = random.Random(24)
    # the entries again as the class 'e', so that 'c' lines are copied too
    documents = [
        _with_class_copy(random_complex(seed, MonotoneParams(4, 0.5), max_gens=20)[0])
        for seed in range(8)
    ]
    cases = 0
    for lines in documents * 80:
        entries = [i for i, line in enumerate(lines) if line[:2] in ("d ", "c ")]
        if not entries:
            continue
        original = rnd.choice(entries)
        fault = rnd.choice(sorted(FAULT_LINES))
        body = [(line, i == original) for i, line in enumerate(lines)]
        body.insert(rnd.randrange(1, len(body) + 1), (lines[original] + " # copy", True))
        body.insert(rnd.randrange(1, len(body) + 1), (fault, False))
        text = "\n".join(line for line, _ in body) + "\n"
        first, repeat = [n for n, (_, copy) in enumerate(body, start=1) if copy]
        fault_no = [line for line, _ in body].index(fault) + 1
        tokens = lines[original].split()
        if tokens[0] == "d":
            entry = f"differential entry ({tokens[1]} -> {tokens[2]})"
        else:
            entry = f"entry ({tokens[2]} -> {tokens[3]}) for class 'e'"
        expected = (
            f"line {repeat}: duplicate {entry} (first on line {first})"
            if repeat < fault_no
            else f"line {fault_no}: {FAULT_LINES[fault]}"
        )
        with pytest.raises(FcxParseError) as info:
            parse(text)
        assert str(info.value) == expected, text
        cases += 1
    assert cases >= 500


def test_entry_lines_off_the_fast_path_parse_like_the_plain_ones():
    """An id never holds '#': a comment glued to the last id is stripped,
    one glued to the first leaves too few tokens.  Ids may be named 'd' and
    'c', and '\\f' and '\\v' separate tokens like a space."""
    assert parse(D_HEAD + "d a b#x\n") == parse(D_HEAD + "d a b\n")
    with pytest.raises(FcxParseError) as info:
        parse(D_HEAD + "d a#x b\n")
    assert str(info.value) == "line 6: directive 'd' takes 2 argument(s), got 1"
    named = "fcx 1\nsigma 4\nlambda 0.5\ngen c 0\ngen d 1\ncup c 0\n"
    c = parse(named + "d d c\nc c d c\nc c c d\n")
    assert [tuple(e) for e in c.delta] == [("d", "c")]
    assert [tuple(e) for e in c.cup_classes[0].entries] == [("c", "d"), ("d", "c")]
    with pytest.raises(FcxParseError) as info:
        parse(named + "d d c\nc c d c\nc c d c\n")
    assert str(info.value) == "line 9: duplicate entry (d -> c) for class 'c' (first on line 8)"
    spaced = "d\fa\vb\nc\ve\fa \vb\n"
    assert parse(CUP_HEAD + spaced) == parse(CUP_HEAD + "d a b\nc e a b\n")
    with pytest.raises(FcxParseError) as info:
        parse(CUP_HEAD + spaced + "d\va\fb\n")
    assert str(info.value) == "line 9: duplicate differential entry (a -> b) (first on line 7)"


def test_well_formed_documents_never_reach_the_repeat_locator(monkeypatch, scrambled):
    """The line scan that words a repeat runs only when the document holds
    one: never on the golden fixtures, a shuffled document with forward
    references and comments, or a 1000-generator scrambled document."""
    import fcx.io

    def locator(lines):
        raise AssertionError("the repeat locator ran")

    monkeypatch.setattr(fcx.io, "_first_repeat", locator)
    texts = [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.fcx"))]
    assert len(texts) == 8
    first, *rest = serialize(random_complex(3, MonotoneParams(4, 0.5), max_gens=30)[0]).splitlines()
    random.Random(1).shuffle(rest)
    texts.append("\n".join([first, "# shuffled"] + [line + " # x" for line in rest]))
    texts.append(serialize(scrambled(1000, 4, 1)))
    for text in texts:
        parse(text, allow_small_sigma=True)
    with pytest.raises(AssertionError, match="the repeat locator ran"):
        parse(D_HEAD + "d a b\nd a b\n")


def test_unknown_reference_on_the_last_line_of_a_long_document():
    n = 400
    gens = "".join(f"gen x{i} 0\ngen y{i} 1\n" for i in range(n))
    body = "".join(f"d x{i} y{j}\n" for i in range(n) for j in range(i, i + 3) if j < n)
    head = "fcx 1\nsigma 4\nlambda 0\n" + gens + body
    last = head.count("\n") + 1
    parse(head)  # well-formed without the last line
    with pytest.raises(FcxParseError) as info:
        parse(head + "d x0 zz\n")
    assert info.value.line_no == last
    assert str(info.value) == f"line {last}: unknown generator 'zz'"


CUP_DOCUMENT = (
    "fcx 1\nsigma 3\nlambda 0\n# two classes\ngen u 0\ngen v 2\n\n"
    "d u v\ncup q 2\nc q u v\ncup 1 0\nc 1 u u\nc 1 v v\nring 1 q q\n"
)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_lone_cr_documents_parse_like_newline_ones(newline):
    assert parse(CUP_DOCUMENT.replace("\n", newline)) == parse(CUP_DOCUMENT)
    bad = CUP_DOCUMENT + "d u zz\n"  # line 15
    with pytest.raises(FcxParseError, match="^line 15: unknown generator 'zz'$"):
        parse(bad.replace("\n", newline))


@pytest.mark.parametrize("char", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_newlines_end_a_line(char):
    """``str.splitlines`` also breaks at these; the parser reads them as
    whitespace inside their line, so later lines keep their numbers."""
    text = f"fcx 1\nsigma 4\nlambda 0.5\ngen a 0 {char}\ngen b{char}1\nd a b\nd a zz\n"
    with pytest.raises(FcxParseError) as info:
        parse(text)
    assert str(info.value) == "line 7: unknown generator 'zz'"
    assert parse(text.replace("d a zz\n", "")) == parse(D_HEAD + "d a b\n")


@given(seeds, periods, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_roundtrip_survives_line_order_whitespace_and_comments(seed, period, rnd):
    c, _ = random_complex(seed, MonotoneParams(period, 0.5), max_jump=3)
    first, *rest = serialize(c).splitlines()
    rnd.shuffle(rest)  # every directive but the version line is order-free
    lines = [first]
    for line in rest:
        if rnd.random() < 0.2:
            lines.append(rnd.choice(["", "   ", "# note", "\t# d x y"]))
        text = rnd.choice(["", " ", "\t"]) + rnd.choice([" ", "\t", " \t "]).join(line.split())
        text += rnd.choice(["", " ", "#", " # d x y", "\t#gen q 0"])
        lines.append(text)
    messy = "\n".join(lines) + rnd.choice(["", "\n"])
    assert parse(messy) == c
    assert serialize(parse(messy)) == serialize(c)


GOLDEN = Path(__file__).parent / "golden"


def _entry_twin(c: FloerComplexData) -> FloerComplexData:
    """The complex built from ``c``'s entries (reads ``c.delta``)."""
    return FloerComplexData(c.params, c.generators, c.delta, c.cup_classes, c.ring)


def _column_built_complexes():
    """(label, complex) pairs built from columns, none of whose ``delta``
    views was read."""
    for path in sorted(GOLDEN.glob("*.fcx")):
        yield path.name, parse(path.read_text(encoding="utf-8"), allow_small_sigma=True)
    shuffled = serialize(random_complex(3, MonotoneParams(4, 0.5), max_gens=30)[0])
    first, *rest = shuffled.splitlines()
    random.Random(1).shuffle(rest)
    yield "shuffled", parse("\n".join([first] + rest) + "\n")
    for seed, period in sorted(SYNTH_DIGESTS):
        yield f"random {seed}", random_complex(seed, MonotoneParams(period, 0.5))[0]
    spec = NormalFormSpec(
        MonotoneParams(4, 0.0),
        tuple(range(-30, 30)),
        tuple(((n % 41) - 20, n % 3) for n in range(120)),
    )
    a = random_filtered_automorphism(5, build_from_normal_form(spec))
    b, _ = random_complex(11, MonotoneParams(4, 0.5), max_gens=20)
    yield "scrambled", a
    yield "tensor", tensor_product(b, random_complex(12, MonotoneParams(4, 0.5))[0]).complex
    with_actions = build_from_normal_form(
        NormalFormSpec(MonotoneParams(3, 0.5), (0, 4), ((0, 0), (1, 1), (-2, 1)))
    )
    yield "rebased", rebase(with_actions, 1.25)
    yield "rebased golden", rebase(parse((GOLDEN / "actions.fcx").read_text()), 2.75)


def test_serialize_from_columns_equals_serialize_of_the_entry_twin():
    """The serializer reads the columns without building the ``delta`` view,
    and writes the bytes of the complex built from the same entries."""
    labels = []
    for label, c in _column_built_complexes():
        assert c._columns is not None and "delta" not in vars(c), label
        text = serialize(c)
        assert "delta" not in vars(c), label
        assert text == serialize(_entry_twin(c)), label
        assert "delta" in vars(c) and serialize(c) == text, label  # view read
        labels.append(label)
    assert len(labels) == 18


def test_serialize_from_columns_merges_the_targets_of_a_repeated_id():
    # Two generators named 's': in generator order their targets read
    # b, y, d, y, c, y, while the sorted entries read b, c, d, y, y, y.
    gens = [
        LiftedGenerator("s", 0),
        LiftedGenerator("b", 1),
        LiftedGenerator("y", 1),
        LiftedGenerator("s", 4),
        LiftedGenerator("c", 5),
        LiftedGenerator("d", 5),
        LiftedGenerator("y", 5),
    ]
    cols = [0b1100110, 0, 0, 0b1010000, 0, 0, 0]
    c = FloerComplexData.from_columns(MonotoneParams(4, 0.0), gens, cols)
    text = serialize(c)
    assert "delta" not in vars(c)
    assert [line for line in text.splitlines() if line.startswith("d ")] == [
        "d s b",
        "d s c",
        "d s d",
        "d s y",
        "d s y",
        "d s y",
    ]
    assert text == serialize(_entry_twin(c))


# ---------------------------------------------------------------------------
# Block-wise reading and one string per source
# ---------------------------------------------------------------------------


def _block_starts(text: str, block: int) -> list[int]:
    """The 0-based indices of the lines that begin a block of ``parse``
    after the first: each block ends at the first '\\n' at least ``block``
    characters past its start."""
    starts, pos, line = [], 0, 0
    while (cut := text.find("\n", pos + block)) >= 0:
        line += text.count("\n", pos, cut + 1)
        pos = cut + 1
        starts.append(line)
    return starts


def _outcome(text: str):
    """The parsed complex, or the error's text and line number."""
    try:
        return parse(text, allow_small_sigma=True)
    except FcxParseError as error:
        return str(error), error.line_no


def _mutations(lines: list[str], block: int, rnd: random.Random):
    """(kind, lines, line number of the fault or None, (a, b)) for a
    document's lines, where a block begins at a 0-based line in (a, b]: a
    repeated entry whose copy begins a block, a fault that begins a block,
    and an entry naming a generator declared in a later block."""
    starts = [k for k in _block_starts("\n".join(lines), block) if k > 1]
    if not starts:
        return
    k = rnd.choice(starts)
    earlier = [i for i in range(k) if lines[i][:2] in ("d ", "c ")]
    if earlier:
        # a line inserted at a block's first line begins that block
        yield "repeat", lines[:k] + [lines[rnd.choice(earlier)]] + lines[k:], k + 1, (k - 1, k)
    yield "fault", lines[:k] + [rnd.choice(sorted(FAULT_LINES))] + lines[k:], k + 1, (k - 1, k)
    before = max([s for s in starts if s < k] + [1])
    src = rnd.choice([line.split()[1] for line in lines if line.startswith("gen ")])
    entry = rnd.choice([f"d {src} zfwd", f"c e {src} zfwd"])
    forward = lines[:k] + ["gen zfwd 9"] + lines[k:]
    yield "forward", forward[:before] + [entry] + forward[before:], None, (before, k + 1)


def _dressed(lines: list[str], rnd: random.Random) -> str:
    """The lines with comment lines and comments added, an optional final
    newline or trailing blank lines, and '\\r\\n' or a lone '\\r' for '\\n'."""
    out = [lines[0]]
    for line in lines[1:]:
        if rnd.random() < 0.1:
            out.append(rnd.choice(["# note", "  # d a b", ""]))
        out.append(line + (" # x" if rnd.random() < 0.1 else ""))
    text = "\n".join(out) + rnd.choice(["", "\n", "\n\n  \n\n"])
    return text.replace("\n", rnd.choice(["\n", "\n", "\r\n", "\r"]))


def test_blocks_are_the_lines_of_the_text(monkeypatch):
    """The blocks joined by '\\n' are the text, and each block but the
    last ends before the first '\\n' at least ``_BLOCK`` characters past
    its start."""
    import fcx.io

    rnd = random.Random(5)
    texts = ["", "\n", "\n\n", "a", "a\n", "ab\ncd", "\nab\n\ncd\n\n"]
    texts += ["".join(rnd.choice("ab\n") for _ in range(rnd.randrange(200))) for _ in range(200)]
    for block in (1, 2, 7, 64, fcx.io._BLOCK):
        monkeypatch.setattr(fcx.io, "_BLOCK", block)
        for text in texts:
            blocks = list(fcx.io._blocks(text))
            assert "\n".join(blocks) == text, text
            pos = 0
            for b in blocks[:-1]:
                pos += len(b)
                assert text[pos] == "\n" and "\n" not in b[block:], (block, text)
                pos += 1
            assert "\n" not in blocks[-1][block:], (block, text)


def test_any_block_size_parses_like_a_single_block(monkeypatch, scrambled):
    """Golden fixtures and seeded mutated documents parse to the same
    complex, or fail with the same error on the same line, whether read in
    blocks of 1, 7 or 64 characters, of the default size, or in one block."""
    import fcx.io

    default = fcx.io._BLOCK
    rnd = random.Random(37)
    texts = [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.fcx"))]
    small = [
        _with_class_copy(random_complex(seed, MonotoneParams(4, 0.5), max_gens=40)[0])
        for seed in range(6)
    ]
    large = [_with_class_copy(scrambled(400, 4, seed)) for seed in (1, 2)]
    kinds = []
    for block in (1, 7, 64, default):
        monkeypatch.setattr(fcx.io, "_BLOCK", block)
        for lines in small if block < default else large:
            for kind, mutated, fault_line, (a, b) in _mutations(lines, block, rnd):
                text = "\n".join(mutated) + "\n"
                assert any(a < s <= b for s in _block_starts(text, block)), kind
                outcome = _outcome(text)
                if fault_line is None:
                    assert "zfwd" in outcome.uids, kind
                else:
                    assert outcome[1] == fault_line, kind
                texts += [text, _dressed(mutated, rnd)]
                kinds.append((kind, block))
            texts.append(_dressed(lines, rnd))
    assert set(kinds) == {
        (kind, block) for kind in ("repeat", "fault", "forward") for block in (1, 7, 64, default)
    }
    for block in (1, 7, 64, default):
        for text in texts:
            monkeypatch.setattr(fcx.io, "_BLOCK", 1 << 40)
            expected = _outcome(text)
            monkeypatch.setattr(fcx.io, "_BLOCK", block)
            assert _outcome(text) == expected, (block, text)


# A document whose 'd' lines fill several blocks of the default size: 100
# generators and a generator named 'd', and every entry g_i -> g_j, i < j.
BULK_HEAD = ["fcx 1", "sigma 4", "lambda 0.5", "gen d 1"] + [f"gen g{i} 0" for i in range(100)]
BULK_ENTRIES = [f"d g{i} g{j}" for i in range(100) for j in range(i + 1, 100)]
MID = len(BULK_ENTRIES) // 2  # the trap goes before or in place of this entry line
TRAP_LINE = len(BULK_HEAD) + MID + 1  # the line number of the (first) trap line
CLASS_LINES = ["cup e 0"] + ["c e" + line[1:] for line in BULK_ENTRIES[:3000]]
CLASS_END = len(BULK_HEAD) + len(BULK_ENTRIES) + len(CLASS_LINES)  # its last line


def _bulk_text(at_mid: list[str], replace: bool = False, tail: Sequence[str] = ()) -> str:
    """The document with ``at_mid`` inserted before (or put in place of)
    its middle entry line, and ``tail`` appended."""
    entries = BULK_ENTRIES[:MID] + at_mid + BULK_ENTRIES[MID + replace :]
    return "\n".join(BULK_HEAD + entries + list(tail)) + "\n"


PLAIN, PARSES = "the plain document", "a complex"
# case -> (text, its outcome: PLAIN, PARSES, or an error and its line)
BULK_TRAPS = {
    "a generator named d": (_bulk_text(["d d g1", "d g2 d", "d d d"]), PARSES),
    # the tokens of the two canonical lines 'd g97 g3' and 'd g98 g4'
    "a line split after a 'd'": (
        _bulk_text(["d g97 g3 d", "g98 g4"]),
        (f"line {TRAP_LINE}: directive 'd' takes 2 argument(s), got 3", TRAP_LINE),
    ),
    "a tab": (_bulk_text([BULK_ENTRIES[MID].replace(" ", "\t", 1)], True), PLAIN),
    "a double space": (_bulk_text([BULK_ENTRIES[MID].replace(" ", "  ")], True), PLAIN),
    "a trailing space": (_bulk_text([BULK_ENTRIES[MID] + " "], True), PLAIN),
    "an undeclared id": (
        _bulk_text(["d g5 zz"]),
        (f"line {TRAP_LINE}: unknown generator 'zz'", TRAP_LINE),
    ),
    "an id declared later": (_bulk_text(["d g5 late"], tail=["gen late 2"]), PARSES),
    "a repeated entry": (
        _bulk_text([BULK_ENTRIES[MID - 3]]),  # 'd g29 g37'
        (
            f"line {TRAP_LINE}: duplicate differential entry (g29 -> g37) "
            f"(first on line {TRAP_LINE - 3})",
            TRAP_LINE,
        ),
    ),
    "blocks of c lines": (_bulk_text([], tail=CLASS_LINES), PARSES),
    "a repeated c line": (
        _bulk_text([], tail=CLASS_LINES + [CLASS_LINES[2000]]),  # 'c e g22 g75'
        (
            f"line {CLASS_END + 1}: duplicate entry (g22 -> g75) for class 'e' "
            f"(first on line {CLASS_END - len(CLASS_LINES) + 2001})",
            CLASS_END + 1,
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(BULK_TRAPS))
def test_lines_near_the_bulk_form_parse_like_a_single_block(monkeypatch, case):
    """A line in a block of canonical 'd' lines that is not one of them, or
    names an id not declared yet, or repeats an entry: read in blocks of 1,
    7 or 64 characters or of the default size, the document parses as in
    one block (line by line), to the expected complex or error."""
    import fcx.io

    default = fcx.io._BLOCK
    text, expected = BULK_TRAPS[case]
    monkeypatch.setattr(fcx.io, "_BLOCK", 1 << 40)
    single = _outcome(text)
    if expected == PLAIN:
        assert single == _outcome(_bulk_text([])), case
    elif expected == PARSES:
        assert isinstance(single, FloerComplexData), single
    else:
        assert single == expected, case
    for block in (1, 7, 64, default):
        monkeypatch.setattr(fcx.io, "_BLOCK", block)
        assert _outcome(text) == single, (case, block)


def _block_of(text: str, pos: int) -> int:
    """The index of the block of ``parse`` that holds ``text[pos]``."""
    import fcx.io

    end = 0
    for i, block in enumerate(fcx.io._blocks(text)):
        end += len(block) + 1
        if pos < end:
            return i
    raise IndexError(pos)


def _per_line_blocks(monkeypatch, text: str) -> tuple[list[int], int]:
    """The indices of the blocks of ``text`` that ``parse`` reads line by
    line (it splits them at '\\n'), and the number of blocks."""
    import fcx.io

    blocks = fcx.io._blocks
    per_line: list[int] = []
    count = 0

    class Block(str):
        def split(self, sep=None, maxsplit=-1):
            if sep == "\n":
                per_line.append(self.index)
            return str.split(self, sep, maxsplit)

    def spy(text):
        nonlocal count
        for count, block in enumerate(blocks(text), start=1):
            spied = Block(block)
            spied.index = count - 1
            yield spied

    monkeypatch.setattr(fcx.io, "_blocks", spy)
    _outcome(text)
    monkeypatch.setattr(fcx.io, "_blocks", blocks)
    return per_line, count


def test_only_the_leading_blocks_of_a_serialized_document_are_read_line_by_line(
    monkeypatch, scrambled
):
    """Of the seed-1 1000-generator scrambled document, the blocks that hold
    the header and the 'gen' lines are read line by line and every later
    block in bulk.  With a trap line, so is the block that holds it, unless
    the line is of the bulk form (a generator named 'd', a repeat)."""
    text = serialize(scrambled(1000, 4, 1))
    per_line, count = _per_line_blocks(monkeypatch, text)
    leading = _block_of(text, text.rindex("\ngen ") + 1) + 1
    assert count > 40 and per_line == list(range(leading)), (per_line, count)

    assert _per_line_blocks(monkeypatch, _bulk_text([])) == ([0], 4)
    plain = _bulk_text([])
    trap_block = _block_of(plain, plain.index(f"\n{BULK_ENTRIES[MID]}\n") + 1)
    assert trap_block >= 1
    for case, (text, _) in BULK_TRAPS.items():
        per_line, _ = _per_line_blocks(monkeypatch, text)
        if case in ("a generator named d", "a repeated entry"):
            assert per_line == [0], case
        elif "c line" in case:
            assert per_line[:1] == [0] and len(per_line) >= 3, case
        else:
            assert per_line[:2] == [0, trap_block], case


def test_parse_and_serialize_hold_memory_in_proportion_to_the_text(scrambled):
    """Neither holds one string per line of a large document: the traced
    peak of ``parse`` stays within 1.5 times the text, and that of
    ``serialize`` within 3 times (1.1-1.3 and 2.1 on CPython 3.10-3.13).
    The tokens of a block read in bulk, and the regular-expression engine's
    stack for its guard, grow with the block: at 64 KiB blocks ``parse``
    read 3.1-3.5 times the text."""
    c = scrambled(1000, 4, 1)
    text = serialize(c)  # also fills the complex's lazy caches
    tracemalloc.start()
    try:
        parse(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        again = serialize(c)
        serialize_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert again == text
    assert parse_peak <= 1.5 * len(text)
    assert serialize_peak <= 3 * len(text)


def _reference_serialize(c: FloerComplexData) -> str:
    """The FCX text of ``c`` from the ``fcx.io`` contract alone, one line
    per entry: fixed header order, generators by (degree, id), differential
    entries by (src, dst), cup data by class name, 12-digit decimals."""
    p = c.params
    lines = ["fcx 1", f"sigma {p.maslov_period}"]
    lines += [f"lambda {format_decimal(p.monotonicity)}", f"r {format_decimal(p.window_base)}"]
    if p.half_dim is not None:
        lines.append(f"m {p.half_dim}")
    for g in sorted(c.generators, key=lambda g: (g.degree, g.uid)):
        action = "" if g.action is None else f" {format_decimal(g.action)}"
        lines.append(f"gen {g.uid} {g.degree}{action}")
    lines += [f"d {src} {dst}" for src, dst in sorted(c.delta)]
    for cls in sorted(c.cup_classes, key=lambda cls: cls.name):
        lines.append(f"cup {cls.name} {cls.degree}")
        lines += [f"c {cls.name} {src} {dst}" for src, dst in sorted(cls.entries)]
    if c.ring is not None:
        lines += [f"ring {a} {b} {result or 0}" for (a, b), result in sorted(c.ring.products)]
    return "".join(line + "\n" for line in lines)


def _prefix_complex(seed: int) -> FloerComplexData:
    """Ids that share prefixes (f1, f10, f1_, f1*f10, ...), random entries,
    cup classes and ring rows."""
    rnd = random.Random(seed)
    pool = [f"f{i}" for i in range(12)] + [f"f{i}_" for i in range(3)]
    pool += [f"f{i}*f{j}" for i in (1, 10) for j in (0, 1, 10)]
    uids = rnd.sample(pool, rnd.randrange(6, len(pool)))
    gens = [
        LiftedGenerator(uid, rnd.randrange(-3, 4), rnd.choice([None, 0.5, -1.25, 3.0]))
        for uid in uids
    ]
    pairs = [(a, b) for a in uids for b in uids]
    names = sorted(rnd.sample(["1", "a1", "a10", "a1_", "a1*a10", "q"], rnd.randrange(0, 4)))
    classes = [
        CupClass(name, rnd.randrange(3), rnd.sample(pairs, rnd.randrange(len(pairs) // 3)))
        for name in names
    ]
    rows = {
        tuple(sorted(rnd.sample(names, 2))): rnd.choice([None, *names])
        for _ in range(len(names))
        if len(names) >= 2
    }
    return FloerComplexData(
        MonotoneParams(rnd.choice([3, 4, 6]), 0.5, half_dim=rnd.choice([None, 2])),
        gens,
        rnd.sample(pairs, rnd.randrange(len(pairs) // 2)),
        classes,
        RingTable(products=tuple(rows.items())) if rows else None,
    )


def test_serialize_writes_the_bytes_of_an_entry_by_entry_reference():
    complexes = [_prefix_complex(seed) for seed in range(30)]
    complexes += [random_complex(seed, MonotoneParams(4, 0.5), max_gens=30)[0] for seed in range(5)]
    a, _ = random_complex(11, MonotoneParams(4, 0.5), max_gens=12)
    complexes.append(tensor_product(a, random_complex(12, MonotoneParams(4, 0.5))[0]).complex)
    complexes += [parse(path.read_text(), allow_small_sigma=True) for path in GOLDEN.glob("*.fcx")]
    ids = {uid for c in complexes for uid in c.uids}
    assert {"f1", "f10", "f1_", "f10*f1"} <= ids and any("*" in uid for uid in ids)
    assert sum(bool(c.cup_classes) for c in complexes) >= 10
    assert sum(c.ring is not None for c in complexes) >= 5
    for c in complexes:
        text = serialize(c)
        assert text == _reference_serialize(c)
        assert parse(text, allow_small_sigma=c.params.allow_small_period) == c
