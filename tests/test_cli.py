"""End-to-end tests of the fcx command line: exit codes, schemas, determinism."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fcx
from fcx.cli import _build_parser, main
from fcx.engine import pages
from fcx.invariants import LaurentPoly, betti_compare, poincare_laurent, rebase
from fcx.io import FcxParseError, parse, serialize
from fcx.model import GEN_MAX_GENERATORS, validate
from fcx.synth import random_complex

DIPOLE_TEXT = "fcx 1\nsigma 4\nlambda 0.5\ngen x 0\ngen y 5\nd x y\n"
THREE_TEXT = "fcx 1\nsigma 4\nlambda 0.5\ngen x 0\ngen x2 4\ngen y 5\nd x y\n"
BAD_JUMP_TEXT = "fcx 1\nsigma 4\nlambda 0.5\ngen x 0\ngen y 2\nd x y\n"
HUGE_JUMP_TEXT = "fcx 1\nsigma 4\nlambda 0\ngen a 0\ngen b 1000000000000000001\nd a b\n"
ACT_TEXT = "fcx 1\nsigma 4\nlambda 0.5\nr 0.75\ngen x 0 1\ngen y 5 2.5\nd x y\n"
RING_TEXT = (
    "fcx 1\nsigma 3\nlambda 0\ngen u 0\ngen v 2\n"
    "cup 1 0\nc 1 u u\nc 1 v v\ncup q 2\nc q u v\n"
    "ring 1 1 1\nring 1 q q\nring q q 0\n"
)


@pytest.fixture
def run(tmp_path, capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def write_doc(tmp_path):
    def _write(text, name="doc.fcx"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return _write


def test_pages_tsv_schema_for_dipole(run, write_doc):
    code, out, _ = run("pages", write_doc(DIPOLE_TEXT), "--format", "tsv")
    assert code == 0
    assert out.splitlines() == [
        "page\t1\t0\t0\t1",
        "page\t1\t5\t1\t1",
        "collapse\t2",
    ]


def test_euler_is_zero_on_every_dipole_page(run, write_doc):
    code, out, _ = run("euler", write_doc(DIPOLE_TEXT), "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["chi\t1\t0", "chi\t2\t0", "chi\t3\t0"]
    code, out, _ = run("euler", write_doc(DIPOLE_TEXT))
    assert code == 0
    assert set(out.splitlines()) == {"chi 0"}


def test_euler_is_an_integer_on_negative_levels(run, write_doc):
    doc = "fcx 1\nsigma 4\nlambda 0\ngen a -3\ngen b -7\ngen c 2\ngen x -5\ngen y 0\nd x y\n"
    code, out, _ = run("euler", write_doc(doc), "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["chi\t1\t-1", "chi\t2\t-1", "chi\t3\t-1"]
    code, out, _ = run("euler", write_doc(doc))
    assert code == 0
    assert set(out.splitlines()) == {"chi -1"}


def test_euler_warns_for_odd_period(run, write_doc):
    doc = "fcx 1\nsigma 3\nlambda 0\ngen x 0\ngen y 4\nd x y\n"
    code, out, _ = run("euler", write_doc(doc), "--format", "tsv")
    assert code == 0
    assert any(line.startswith("warning\t") and "odd" in line for line in out.splitlines())


def test_validate_names_the_offending_entry(run, write_doc):
    code, out, _ = run("validate", write_doc(BAD_JUMP_TEXT))
    assert code == 1
    assert "x -> y" in out
    assert out.splitlines()[-1] == "invalid"


def test_validate_ok_document(run, write_doc):
    code, out, _ = run("validate", write_doc(DIPOLE_TEXT), "--format", "tsv")
    assert code == 0
    assert out.splitlines()[-1] == "status\tok"


def test_validate_includes_cup_commutation_errors(run, write_doc):
    doc = (
        "fcx 1\nsigma 3\nlambda 0\n"
        "gen u 0\ngen t 1\ngen v 2\ngen w 3\nd u t\nd v w\n"
        "cup q 2\nc q u v\n"
    )
    code, out, _ = run("validate", write_doc(doc))
    assert code == 1
    assert "witness" in out


def test_parse_error_exits_two_with_line_number(run, write_doc):
    code, out, err = run("pages", write_doc("fcx 1\nsigma 4\nwobble\n"))
    assert code == 2
    assert out == ""
    assert "fcx: line 3" in err


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff13"])
def test_non_ascii_or_underscored_integer_exits_two(run, write_doc, token):
    code, out, err = run("pages", write_doc(f"fcx 1\nsigma 4\nlambda 0\ngen x {token}\n"))
    assert code == 2
    assert out == ""
    assert "fcx: line 4: lifted degree must be an integer" in err


def test_missing_file_exits_two(run, tmp_path):
    code, _, err = run("pages", str(tmp_path / "absent.fcx"))
    assert code == 2
    assert "cannot read" in err


def test_a_document_that_is_not_utf8_exits_two(run, tmp_path):
    path = tmp_path / "latin1.fcx"
    path.write_bytes(b"fcx 1\nsigma 4\nlambda 0.5\ngen a\xff 0\n")
    code, out, err = run("pages", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"fcx: cannot read '{path}': ")


def test_a_byte_order_mark_is_read_as_the_same_document(run, tmp_path):
    """A UTF-8 byte-order mark, as some editors write one, is not part of the
    document: the command prints and exits as it does without it.  ``parse``
    itself still refuses text that starts with the mark."""
    text = "fcx 1\nsigma 4\nlambda 0.5\ngen a 0\n"
    plain, marked = tmp_path / "plain.fcx", tmp_path / "marked.fcx"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    expected = run("report", str(plain))
    assert expected[0] == 0
    assert run("report", str(marked)) == expected
    with pytest.raises(FcxParseError, match="line 1: first directive must be 'fcx 1'"):
        parse("\ufeff" + text)


@pytest.mark.parametrize("target", ["missing/x.fcx", "."])
@pytest.mark.parametrize(
    "command", [("gen",), ("rebase", None, "--delta-r", "2.0")], ids=["gen", "rebase"]
)
def test_an_output_path_that_cannot_be_written_exits_two(run, write_doc, tmp_path, command, target):
    out_path = str(tmp_path / target)
    argv = [write_doc(ACT_TEXT) if arg is None else arg for arg in command]
    code, out, err = run(*argv, "-o", out_path)
    assert (code, out) == (2, "")
    assert err.startswith(f"fcx: cannot write '{out_path}': ")


@pytest.mark.parametrize("output", ["-o", "--output"])
def test_an_output_of_dash_writes_the_document_to_stdout(
    run, write_doc, tmp_path, monkeypatch, output
):
    """``-o -`` is standard output, as with no ``-o``: no file named '-'."""
    path = write_doc(ACT_TEXT)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for argv in [("gen", "--gens", "4"), ("rebase", path, "--delta-r", "-.5")]:
        expected = run(*argv)
        assert expected[0] == 0 and expected[1].startswith("fcx 1\n")
        assert run(*argv, output, "-") == expected
    assert list(work.iterdir()) == []


def test_invalid_complex_exits_one_for_computation_commands(run, write_doc):
    code, _, err = run("pages", write_doc(BAD_JUMP_TEXT))
    assert code == 1
    assert "jump" in err


# delta^2 != 0 on two documents that pass every other check.  The reduction
# meets a generator with two roles (b) on the first, and a target slot that
# is not closed (q) on the second.
SQUARE_TEXTS = {
    "two-roles": "fcx 1\nsigma 4\nlambda 0\ngen a 0\ngen b 1\ngen c 2\nd a b\nd b c\n",
    "open-target": (
        "fcx 1\nsigma 4\nlambda 0\ngen a 0\ngen b 1\ngen p 1\ngen q 1\ngen c 2\n"
        "d a b\nd a q\nd b c\n"
    ),
}
SQUARE_ERROR = "differential does not square to zero: starting at 'a' it reaches 'c' twice"


@pytest.mark.parametrize("name", sorted(SQUARE_TEXTS))
@pytest.mark.parametrize(
    "argv, out",
    [
        (("validate", "BAD"), f"error: {SQUARE_ERROR}\ninvalid\n"),
        (("validate", "BAD", "--format", "tsv"), f"error\t{SQUARE_ERROR}\nstatus\tinvalid\n"),
        (("report", "BAD"), f"# validate\nerror: {SQUARE_ERROR}\ninvalid\n"),
        (
            ("report", "BAD", "--format", "tsv"),
            f"# validate\nerror\t{SQUARE_ERROR}\nstatus\tinvalid\n",
        ),
        (("pages", "BAD"), ""),
        (("pages", "BAD", "--format", "tsv"), ""),
        (("decompose", "BAD"), ""),
        (("cohomology", "BAD"), ""),
        (("poincare", "BAD"), ""),
        (("collapse-bound", "BAD"), ""),
        (("betti", "BAD", "--betti", "1,1", "--m", "1"), ""),
        (("power", "BAD", "--s", "2"), ""),
        (("kunneth", "BAD", "OK"), ""),
        (("kunneth", "OK", "BAD"), ""),
    ],
)
def test_a_nonzero_delta_square_gives_the_walks_error_through_every_command(
    run, write_doc, name, argv, out
):
    """The error a document with delta^2 != 0 draws, however far a command
    gets before it is found: a report's rows from ``validate``, else the
    walk's witness on stderr, and exit code 1."""
    paths = {"BAD": write_doc(SQUARE_TEXTS[name], "square.fcx"), "OK": write_doc(DIPOLE_TEXT)}
    err = "" if out else f"fcx: invalid complex: {SQUARE_ERROR}\n"
    assert run(*(paths.get(arg, arg) for arg in argv)) == (1, out, err)


@pytest.mark.parametrize("name", sorted(SQUARE_TEXTS))
@pytest.mark.parametrize(
    "command, classes", [("cup", False), ("cup", True), ("cuplength", True)]
)
def test_cup_and_cuplength_refuse_a_nonzero_delta_square(
    run, write_doc, name, command, classes
):
    """``fcx cup`` with or without class lines, and ``fcx cuplength`` with a
    unit class and its ring row, refuse delta^2 != 0 with the walk's witness
    and print nothing."""
    text = SQUARE_TEXTS[name]
    if classes:
        ids = [line.split()[1] for line in text.splitlines() if line.startswith("gen ")]
        text += "cup 1 0\n" + "".join(f"c 1 {g} {g}\n" for g in ids) + "ring 1 1 1\n"
    path = write_doc(text, "square.fcx")
    assert run(command, path) == (1, "", f"fcx: invalid complex: {SQUARE_ERROR}\n")


def test_the_engine_commands_never_walk_delta_for_a_zero_square(
    run, write_doc, scrambled, monkeypatch
):
    """The reduction proves delta^2 = 0, so these commands never walk delta
    for it."""
    import fcx.model

    path = write_doc(serialize(scrambled(1000, 4, 3)))
    walked = []
    monkeypatch.setattr(fcx.model, "_square_errors", lambda c: walked.append(c.count))
    for argv in (
        ("pages", "--format", "tsv"),
        ("pages",),
        ("cohomology",),
        ("decompose",),
        ("collapse-bound",),
    ):
        assert run(argv[0], path, *argv[1:])[0] == 0, argv
    code, out, _ = run("betti", path, "--betti", "1,1", "--m", "1")
    assert code == 1 and "match no" in out
    assert walked == []


def test_products_walk_only_their_factors_for_a_zero_square(
    run, write_doc, scrambled, monkeypatch
):
    """``tensor_product`` validates its factors and ``fcx power`` its one
    factor; the reduction that reads a product's pages proves the product's
    delta^2 = 0, so no product or intermediate power is ever walked."""
    import fcx.model

    a = write_doc(serialize(scrambled(24, 4, 1)), "a.fcx")
    b = write_doc(serialize(scrambled(18, 4, 2)), "b.fcx")
    factor = write_doc(serialize(scrambled(12, 4, 3)), "f.fcx")
    walked = []
    walk = fcx.model._square_errors
    monkeypatch.setattr(
        fcx.model, "_square_errors", lambda c: walked.append(c.count) or walk(c)
    )
    code, out, _ = run("kunneth", a, b)
    assert code == 0 and "kunneth pass" in out
    assert walked == [24, 18]
    for s, factors in ((2, [12]), (3, [12])):
        walked.clear()
        code, out, _ = run("power", factor, "--s", str(s))
        assert code == 0 and "power pass" in out
        assert walked == factors, s


def test_a_product_column_with_an_extra_bit_is_refused_with_the_square_witness(
    run, write_doc, scrambled, monkeypatch
):
    """Built with one bit too many, a product fails delta^2 = 0; its reduction
    finds that and ``fcx kunneth`` exits 1 naming the walk's witness."""
    import fcx.kunneth
    from fcx.model import FloerComplexData, InvalidComplexError

    built = []

    class Mutant:
        @staticmethod
        def from_columns(params, gens, cols):
            # s gains a jump-0 target t whose own column is not zero, so that
            # delta^2(s) = delta(t) != 0; the structural checks still pass.
            cols = list(cols)
            s, t = next(
                (s, t)
                for s, src in enumerate(gens)
                for t, dst in enumerate(gens)
                if dst.degree == src.degree + 1 and cols[t] and not cols[s] >> t & 1
            )
            cols[s] |= 1 << t
            built.append((gens[s].uid, FloerComplexData.from_columns(params, gens, cols)))
            return built[-1][1]

    monkeypatch.setattr(fcx.kunneth, "FloerComplexData", Mutant)
    a = write_doc(serialize(scrambled(24, 4, 1)), "a.fcx")
    b = write_doc(serialize(scrambled(18, 4, 2)), "b.fcx")
    code, out, err = run("kunneth", a, b)
    [(source, product)] = built
    assert (code, out) == (1, "")
    assert err == f"fcx: {InvalidComplexError(validate(product))}\n"
    assert f"differential does not square to zero: starting at '{source}'" in err


def test_unknown_flag_and_subcommand_exit_two(run, write_doc, capsys):
    path = write_doc(DIPOLE_TEXT)
    assert run("pages", path, "--wat")[0] == 2
    assert run("frobnicate", path)[0] == 2


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: fcx [-h]"),
    (["pages", "--help"], "usage: fcx pages [-h]"),
])
def test_help_prints_usage_to_stdout_and_exits_zero(run, argv, usage):
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    assert out.startswith(usage)


def test_cohomology_lists_both_theories(run, write_doc):
    code, out, _ = run("cohomology", write_doc(THREE_TEXT), "--format", "tsv")
    assert code == 0
    assert out.splitlines() == [
        "cohomology\t0\t1",
        "cohomology\t4\t1",
        "cohomology\t5\t1",
        "hf\t0\t1",
    ]


def test_poincare_and_decompose_tsv(run, write_doc):
    path = write_doc(THREE_TEXT)
    code, out, _ = run("poincare", path, "--format", "tsv")
    assert code == 0
    assert out.splitlines() == [
        "poly\t1\t0:1 4:1 5:1",
        "poly\t2\t4:1",
        "poly\t3\t4:1",
    ]
    code, out, _ = run("decompose", path, "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["kmax\t1", "qbar\t1\t5:1", "hfpoly\t4:1"]


def test_collapse_bound_with_energy(run, write_doc):
    code, out, _ = run(
        "collapse-bound", write_doc(ACT_TEXT), "--energy", "3.0", "--format", "tsv"
    )
    assert code == 0
    lines = out.splitlines()
    assert "collapse\t2" in lines
    assert "bound-jumps\t2" in lines
    assert "bound-energy\t2" in lines
    assert not any(l.startswith("infeasible") for l in lines)


def test_collapse_bound_flags_infeasible_entries(run, write_doc):
    code, out, _ = run(
        "collapse-bound", write_doc(ACT_TEXT), "--energy", "1.0", "--format", "tsv"
    )
    assert code == 0
    assert any(l.startswith("infeasible\t") for l in out.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ("collapse-bound", "--energy", "inf"),
        ("collapse-bound", "--energy", "nan"),
        ("rebase", "--delta-r", "nan"),
        ("rebase", "--r-new", "inf"),
        ("rebase", "--r-new=-inf"),
    ],
)
def test_non_finite_numbers_are_refused_without_a_traceback(run, write_doc, argv):
    command, *flags = argv
    code, out, err = run(command, write_doc(ACT_TEXT), *flags)
    assert (code, out) == (2, "")
    assert err.startswith("fcx: ") and "finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, err",
    [
        (("power", "--s", "1"), "argument --s: must be at least 2, got 1"),
        (("power", "--s", "-3"), "argument --s: must be at least 2, got -3"),
        (
            ("collapse-bound", "--energy", "0"),
            "argument --energy: must be a positive finite number, got 0.0",
        ),
        (
            ("collapse-bound", "--energy", "-1"),
            "argument --energy: must be a positive finite number, got -1.0",
        ),
        (
            ("collapse-bound", "--energy", "nan"),
            "argument --energy: must be a positive finite number, got nan",
        ),
        (("rebase", "--delta-r", "nan"), "argument --delta-r: must be a finite number, got nan"),
        (("rebase", "--r-new", "inf"), "argument --r-new: must be a finite number, got inf"),
    ],
)
def test_argument_values_out_of_range_are_usage_errors(run, write_doc, argv, err):
    """Each is refused with exit 2, naming the argument."""
    command, *flags = argv
    assert run(command, write_doc(ACT_TEXT), *flags) == (2, "", f"fcx: {err}\n")


def test_betti_comparison_exit_codes(run, write_doc):
    torus = "fcx 1\nsigma 4\nlambda 0\nm 2\ngen a -2\ngen b -1\ngen c -1\ngen e 0\n"
    code, out, _ = run("betti", write_doc(torus), "--betti", "1,2,1", "--format", "tsv")
    assert code == 0
    assert "match\tyes" in out.splitlines()
    assert "betti-sum\t4" in out.splitlines()
    code, out, _ = run(
        "betti", write_doc(torus, "b.fcx"), "--betti", "1,0,1", "--format", "tsv"
    )
    assert code == 1
    assert any(l.startswith("mismatch\t") for l in out.splitlines())


def test_betti_requires_half_dimension(run, write_doc):
    doc = "fcx 1\nsigma 4\nlambda 0\ngen e 0\n"
    code, _, err = run("betti", write_doc(doc), "--betti", "1")
    assert code == 1
    assert "--m" in err


@pytest.mark.parametrize("m", [-1, -2])
def test_betti_m_below_zero_is_a_usage_error(run, write_doc, m):
    code, out, err = run("betti", write_doc(DIPOLE_TEXT), "--betti", "1", "--m", str(m))
    assert (code, out) == (2, "")
    assert err == f"fcx: argument --m: must be at least 0, got {m}\n"


@pytest.mark.parametrize("betti, first", [("-1,2", -1), ("1,-3", -3), ("0,-2,-5", -2)])
def test_betti_numbers_below_zero_are_a_usage_error(run, write_doc, betti, first):
    m = betti.count(",")
    code, out, err = run("betti", write_doc(DIPOLE_TEXT), f"--betti={betti}", "--m", str(m))
    assert (code, out) == (2, "")
    assert err == f"fcx: argument --betti: must be at least 0, got {first}\n"


@pytest.mark.parametrize("betti", ["1,x", ",", "1,,2"])
def test_betti_numbers_that_are_not_integers_are_a_usage_error(run, write_doc, betti):
    code, out, err = run("betti", write_doc(DIPOLE_TEXT), f"--betti={betti}", "--m", "1")
    assert (code, out) == (2, "")
    assert err == f"fcx: argument --betti: must be comma-separated integers, got '{betti}'\n"


def test_rebase_emits_reparsable_canonical_document(run, write_doc, tmp_path):
    path = write_doc(ACT_TEXT)
    code, out, _ = run("rebase", path, "--delta-r", "2.0")
    assert code == 0
    expected = serialize(rebase(parse(ACT_TEXT), 2.75))
    assert out == expected
    assert parse(out).params.window_base == 2.75

    out_file = tmp_path / "moved.fcx"
    code, stdout, _ = run("rebase", path, "--r-new", "2.75", "-o", str(out_file))
    assert code == 0 and stdout == ""
    assert out_file.read_text(encoding="utf-8") == expected


def test_rebase_without_actions_fails_cleanly(run, write_doc):
    code, _, err = run("rebase", write_doc(DIPOLE_TEXT), "--delta-r", "2.0")
    assert code == 1
    assert "action" in err


def test_rebase_seam_rejection(run, write_doc):
    code, _, err = run("rebase", write_doc(ACT_TEXT), "--r-new", "1.0")
    assert code == 1
    assert "seam" in err or "tolerance" in err


def test_cup_and_ring_commands(run, write_doc):
    path = write_doc(RING_TEXT)
    code, out, _ = run("cup", path, "--format", "tsv")
    assert code == 0
    rows = {tuple(l.split("\t")) for l in out.splitlines()}
    assert ("cupmap", "q", "0", "2", "1") in rows
    code, out, _ = run("ring", path, "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert "unit\t1" in lines
    assert "module\tpass" in lines
    assert "injective\tyes" in lines
    code, out, _ = run("cuplength", path, "--format", "tsv")
    assert code == 0
    assert "cuplength\t2" in out.splitlines()
    assert "witness\tq" in out.splitlines()


def test_ring_command_requires_ring_lines(run, write_doc):
    code, _, err = run("ring", write_doc(DIPOLE_TEXT))
    assert code == 1
    assert "ring" in err


@pytest.mark.parametrize(
    "text, fails, tail",
    [
        (
            "fcx 1\nsigma 3\nlambda 0\ngen u 0\ngen v 2\ncup 1 2\nc 1 u v\nring 1 1 0\n",
            ["unit '1' has nonzero degree 2"],
            ["injective\tyes"],
        ),
        (
            "fcx 1\nsigma 3\nlambda 0\ngen u 0\ngen v 2\ncup 1 0\nring 1 1 1\n",
            [f"unit '1' does not act as the identity at degree {n}" for n in (0, 2)],
            ["injective\tno", "kernel\t1"],
        ),
    ],
)
def test_a_unit_that_is_not_the_identity_fails_the_ring_check(run, write_doc, text, fails, tail):
    """The class ``1`` is the unit: of degree 2, or of degree 0 but the zero
    map, it fails ``module_check`` and ``fcx ring`` exits 1."""
    code, out, _ = run("ring", write_doc(text), "--format", "tsv")
    assert code == 1
    assert out.splitlines() == [
        "unit\t1", "pairs\t1", *(f"fail\t{msg}" for msg in fails), "module\tfail", *tail
    ]


def test_cuplength_requires_ring_lines(run, write_doc):
    code, out, err = run("cuplength", write_doc(DIPOLE_TEXT))
    assert (code, out) == (1, "")
    assert err == "fcx: document carries no ring table ('ring' lines)\n"


def test_kunneth_command_on_dipole_squared(run, write_doc):
    path = write_doc(DIPOLE_TEXT)
    code, out, _ = run("kunneth", path, path, "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert "page\t1\t0\t0\t1" in lines
    assert "page\t1\t5\t1\t2" in lines
    assert "page\t1\t10\t2\t1" in lines
    assert "collapse\t2" in lines
    assert "poly\t1\t0:1 5:2 10:1" in lines
    assert lines[-1] == "kunneth\tpass"


def test_a_product_cell_off_by_one_fails_the_kunneth_check(run, write_doc, monkeypatch):
    """Built with one free generator too many at level 0, the product of the
    dipole with itself differs from the convolved factors at cell (0, 0) of
    both pages, and ``fcx kunneth`` exits 1 naming each."""
    import fcx.kunneth
    from fcx.model import FloerComplexData, LiftedGenerator

    class Mutant:
        @staticmethod
        def from_columns(params, gens, cols):
            extra = (*gens, LiftedGenerator("w", 0))
            return FloerComplexData.from_columns(params, extra, (*cols, 0))

    monkeypatch.setattr(fcx.kunneth, "FloerComplexData", Mutant)
    path = write_doc(DIPOLE_TEXT)
    code, out, _ = run("kunneth", path, path, "--format", "tsv")
    assert code == 1
    assert out.splitlines()[-3:] == [
        "kunneth\tfail",
        "fail\tpage 1 cell (n=0, j=0): product dim 2 != convolved dim 1",
        "fail\tpage 2 cell (n=0, j=0): product dim 1 != convolved dim 0",
    ]


def test_power_command(run, write_doc):
    code, out, _ = run("power", write_doc(DIPOLE_TEXT), "--s", "2", "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "power\tpass"
    assert "poly\t1\t0:1 5:2 10:1" in lines
    assert "expected\t1\t0:1 5:2 10:1" in lines


def test_power_size_guard_exits_two(run, write_doc):
    code, _, err = run("power", write_doc(DIPOLE_TEXT), "--s", "5")
    assert code == 2
    assert err.startswith("fcx:")


def test_engine_consistency_error_exits_one(run, write_doc, monkeypatch):
    import fcx.cli
    from fcx.model import EngineConsistencyError

    def broken(c):
        raise EngineConsistencyError("page table self-check failed")

    monkeypatch.setattr(fcx.cli, "pages", broken)
    code, out, err = run("pages", write_doc(DIPOLE_TEXT), "--format", "tsv")
    assert (code, out, err) == (1, "", "fcx: page table self-check failed\n")


def test_gen_and_rebase_take_no_format(run, write_doc):
    """Both write FCX documents, so --format is a usage error there."""
    code, out, err = run("gen", "--format", "tsv")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --format tsv" in err
    code, out, _ = run("rebase", write_doc(ACT_TEXT), "--delta-r", "2.0", "--format", "tsv")
    assert code == 2 and out == ""
    assert run("gen", "--allow-small-sigma", "--sigma", "2")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("--gens", "0"),
        ("--gens", "-1"),
        ("--max-jump", "-1"),
        ("--sigma", "0"),
        ("--sigma", "0", "--allow-small-sigma"),
        ("--sigma", "2"),
        ("--lambda", "-1"),
        ("--lambda", "inf"),
        ("--lambda", "nan"),
    ],
)
def test_gen_refuses_out_of_range_arguments_as_usage_errors(run, argv):
    code, out, err = run("gen", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"fcx: argument {argv[0]}: ") and "Traceback" not in err


@pytest.mark.parametrize("gens", [GEN_MAX_GENERATORS + 1, 100_000_000])
def test_gen_refuses_more_generators_than_its_bound(run, monkeypatch, gens):
    import fcx.cli

    def draw(*args, **kwargs):
        raise AssertionError("gen drew a complex")

    monkeypatch.setattr(fcx.cli, "random_complex", draw)
    code, out, err = run("gen", "--gens", str(gens))
    assert (code, out) == (2, "")
    assert err == (
        f"fcx: gen size guard: --gens {gens} exceeds the bound of "
        f"{GEN_MAX_GENERATORS} generators\n"
    )


def test_gen_accepts_its_bound(run, monkeypatch):
    import fcx.cli

    asked = []

    def draw(seed, params, max_gens, max_jump):
        asked.append(max_gens)
        return random_complex(seed, params, max_gens=12, max_jump=max_jump)

    monkeypatch.setattr(fcx.cli, "random_complex", draw)
    assert run("gen", "--gens", str(GEN_MAX_GENERATORS))[0] == 0
    assert asked == [GEN_MAX_GENERATORS]


@pytest.mark.parametrize("page", [0, -3])
@pytest.mark.parametrize(
    "command", ["pages", "poincare", "euler", "kunneth", "power", "report"]
)
def test_max_page_below_one_is_a_usage_error(run, write_doc, command, page):
    path = write_doc(DIPOLE_TEXT)
    files = (path, path) if command == "kunneth" else (path,)
    extra = ("--s", "2") if command == "power" else ()
    code, out, err = run(command, *files, *extra, "--max-page", str(page))
    assert (code, out) == (2, "")
    assert err == f"fcx: argument --max-page: must be at least 1, got {page}\n"


HOSTILE_VALUES = (
    "-1", "0", "2.5", "1e308", "1e-320", "nan", "inf", "-inf", "1_0", "\u0663", "",
    "99999999999999999999",
)
# Negative values that argparse alone would take for an option after a flag.
NEGATIVE_WORDS = ("-1e5", "-.5e1", "-nan", "-INF", "-\u0663", "-1_0")
# No document writes a number this way, so no option reads one.
NOT_NUMBERS = ("1_0", "\u0663", "")
# One generator, so that --betti 1 matches it at --m 0, with an action for rebase.
SWEEP_TEXT = "fcx 1\nsigma 4\nlambda 0.5\nr 0.75\nm 0\ngen e 0 1.5\n"
# A value for each required option, used while another option of its command
# takes the hostile values.
REQUIRED_VALUES = {"--betti": "1", "--s": "2", "--delta-r": "1"}
# --max-page 99999999999999999999 asks these commands for that many pages
# (ROADMAP item 4, no size guard yet), so they run in a child.
UNBOUNDED_PAGES = ("pages", "poincare", "euler", "report", "kunneth")


def _typed_options() -> list[tuple[str, list[str], str]]:
    """(command, argv before the option, option) for every option of every
    subcommand of ``_build_parser()`` that has a type.  The argv names the
    document once per positional and gives each other required option, and
    a required group that the option is not in, a valid value."""
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    cases = []
    for name, p in sub.choices.items():
        for action in p._actions:
            if action.type is None:
                continue
            argv = [name] + ["{doc}" for a in p._actions if not a.option_strings]
            needed = [a for a in p._actions if a.required and a.option_strings]
            needed += [
                g._group_actions[0]
                for g in p._mutually_exclusive_groups
                if g.required and action not in g._group_actions
            ]
            for a in needed:
                if a is not action:
                    argv += [a.option_strings[-1], REQUIRED_VALUES[a.option_strings[-1]]]
            cases.append((name, argv, action.option_strings[-1]))
    return cases


def _ends_well(code: int, out: str, err: str) -> bool:
    """Answered or refused: exit 0; exit 1 with one ``fcx:`` line, or with a
    check's failing answer on stdout and nothing on stderr; or exit 2 with
    one ``fcx:`` line.  Never a traceback or a usage block."""
    lines = err.splitlines()
    one_line = out == "" and len(lines) == 1 and lines[0].startswith("fcx: ")
    if "usage:" in out + err or "Traceback" in err:
        return False
    if code == 1:
        return one_line or (err == "" and out != "")
    return (code == 0 and err == "") or (code == 2 and one_line)


TYPED_OPTIONS = _typed_options()


@pytest.mark.parametrize(
    "command, argv, flag", TYPED_OPTIONS, ids=[c + f for c, _, f in TYPED_OPTIONS]
)
def test_every_typed_option_answers_or_refuses_hostile_values(
    run, write_doc, command, argv, flag
):
    """Generated from the parser, so a new typed option is covered unedited.
    A value written as a separate word (``-inf`` and ``-1e5`` included) is
    read or refused as it is after ``=``."""
    doc = write_doc(SWEEP_TEXT)
    argv = [a.format(doc=doc) for a in argv]
    bad = []
    for value in HOSTILE_VALUES + NEGATIVE_WORDS:
        if flag == "--max-page" and command in UNBOUNDED_PAGES and value == HOSTILE_VALUES[-1]:
            continue  # test_a_huge_max_page_ends
        code, out, err = run(*argv, f"{flag}={value}")
        if not _ends_well(code, out, err) or (value in NOT_NUMBERS and code != 2):
            bad.append((value, code, err))
        as_word = run(*argv, flag, value)
        if as_word != (code, out, err):
            bad.append((value, "as a separate word", as_word))
    assert bad == []


def test_every_hostile_fcx_seed_is_answered_or_refused(run, monkeypatch):
    """An empty FCX_SEED counts as unset: seed 0."""
    bad = []
    for value in HOSTILE_VALUES:
        monkeypatch.setenv("FCX_SEED", value)
        code, out, err = run("gen")
        if not _ends_well(code, out, err) or (value in NOT_NUMBERS and code != 2 and value):
            bad.append((value, code, err))
    assert bad == []
    monkeypatch.setenv("FCX_SEED", "")
    assert run("gen") == run("gen", "--seed", "0")


def test_the_typed_options_are_swept():
    swept = {(command, flag) for command, _, flag in TYPED_OPTIONS}
    pages = {(command, "--max-page") for command in ("power", *UNBOUNDED_PAGES)}
    assert pages | {
        ("rebase", "--delta-r"), ("rebase", "--r-new"), ("collapse-bound", "--energy"),
        ("betti", "--betti"), ("betti", "--m"), ("power", "--s"), ("gen", "--seed"),
        ("gen", "--gens"), ("gen", "--max-jump"), ("gen", "--sigma"), ("gen", "--lambda"),
    } <= swept


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: --max-page has no size guard")
@pytest.mark.parametrize("command", UNBOUNDED_PAGES)
def test_a_huge_max_page_ends(tmp_path, command):
    path = tmp_path / "doc.fcx"
    path.write_text(SWEEP_TEXT, encoding="utf-8")
    files = [str(path)] * (2 if command == "kunneth" else 1)
    env = {**os.environ, "PYTHONPATH": str(Path(fcx.__file__).resolve().parents[1])}

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))

    argv = [sys.executable, "-m", "fcx.cli", command, *files, "--max-page", HOSTILE_VALUES[-1]]
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=env, timeout=2, preexec_fn=limit_memory
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{command} --max-page {HOSTILE_VALUES[-1]} ran past 2 s")
    assert _ends_well(proc.returncode, proc.stdout, proc.stderr)


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ("pages", "{doc}", "--format", "bogus"),
            "argument --format: invalid choice: 'bogus' (choose from 'human', 'tsv')",
        ),
        (("pages",), "the following arguments are required: file"),
        (("pages", "{doc}", "--bogus"), "unrecognized arguments: --bogus"),
    ],
)
def test_argparse_refusals_are_one_line(run, write_doc, argv, err):
    """argparse's own usage errors print one fcx: line, not a usage block."""
    doc = write_doc(DIPOLE_TEXT)
    assert run(*[a.format(doc=doc) for a in argv]) == (2, "", f"fcx: {err}\n")


@pytest.mark.parametrize(
    "argv, env_seed, err",
    [
        *(
            (
                ("pages", "{doc}", "--max-page", value),
                None,
                f"argument --max-page: must be an integer, got {value!r}",
            )
            for value in ("\u0663", "1_0", " 3")
        ),
        (
            ("betti", "{doc}", "--betti", "1_0", "--m", "0"),
            None,
            "argument --betti: must be comma-separated integers, got '1_0'",
        ),
        (("gen", "--gens", "\u0663"), None, "argument --gens: must be an integer, got '\u0663'"),
        (("gen", "--lambda", "1_0.5"), None, "argument --lambda: must be a number, got '1_0.5'"),
        (("gen",), "\u0663", "FCX_SEED must be an integer, got '\u0663'"),
        (("gen",), " 3", "FCX_SEED must be an integer, got ' 3'"),
    ],
)
def test_numbers_are_read_as_in_a_document(run, write_doc, monkeypatch, argv, env_seed, err):
    """int() and float() also take 1_0, non-ASCII digits and padding; the
    options, like the document grammar, refuse them."""
    if env_seed is not None:
        monkeypatch.setenv("FCX_SEED", env_seed)
    doc = write_doc(DIPOLE_TEXT)
    assert run(*[a.format(doc=doc) for a in argv]) == (2, "", f"fcx: {err}\n")


@pytest.mark.parametrize("seed", range(10))
def test_gen_at_period_one_builds_a_valid_complex(run, seed):
    code, out, err = run("gen", "--sigma", "1", "--allow-small-sigma", "--seed", str(seed))
    assert (code, err) == (0, "")
    c = parse(out, allow_small_sigma=True)
    assert c.params.maslov_period == 1 and validate(c).ok


@pytest.mark.parametrize("lam", ["1e-8", "1e308"])
def test_gen_omits_actions_the_grid_cannot_place_inside_the_tolerance(run, tmp_path, lam):
    """At lambda 1e-8 the window (0, 4e-8) is too narrow for the dyadic grid
    to keep every action more than the tolerance 1e-9 inside it; at 1e308
    the action period overflows to inf, and so does the tolerance."""
    out_file = tmp_path / "gen.fcx"
    argv = ("gen", "--gens", "12", "--lambda", lam, "--max-jump", "1")
    assert run(*argv, "-o", str(out_file)) == (0, "", "")
    code, out, _ = run("validate", str(out_file))
    assert (code, out) == (0, "ok\n")


def test_gen_is_deterministic_and_valid(run):
    code, out1, _ = run("gen", "--seed", "42", "--gens", "14", "--max-jump", "3")
    assert code == 0
    _, out2, _ = run("gen", "--seed", "42", "--gens", "14", "--max-jump", "3")
    assert out1 == out2
    _, out3, _ = run("gen", "--seed", "43", "--gens", "14", "--max-jump", "3")
    assert out1 != out3
    c = parse(out1)
    assert c.params.maslov_period == 4


def test_gen_spec_comments_and_output_file(run, tmp_path):
    out_file = tmp_path / "gen.fcx"
    code, stdout, _ = run(
        "gen", "--seed", "7", "--spec", "--sigma", "6", "-o", str(out_file)
    )
    assert code == 0 and stdout == ""
    text = out_file.read_text(encoding="utf-8")
    assert "# prng" in text and "# normal-form free" in text
    assert parse(text).params.maslov_period == 6  # comments parse away


def test_gen_seed_from_environment(run, monkeypatch):
    monkeypatch.setenv("FCX_SEED", "777")
    _, from_env, _ = run("gen")
    monkeypatch.delenv("FCX_SEED")
    _, explicit, _ = run("gen", "--seed", "777")
    assert from_env == explicit


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_a_malformed_fcx_seed_is_a_usage_error(run, monkeypatch, value):
    monkeypatch.setenv("FCX_SEED", value)
    code, out, err = run("gen")
    assert (code, out) == (2, "")
    assert err == f"fcx: FCX_SEED must be an integer, got '{value}'\n"
    assert run("gen", "--seed", "3")[0] == 0  # an explicit seed never reads it


def test_gen_reads_the_seed_when_the_command_runs(run, monkeypatch):
    monkeypatch.delenv("FCX_SEED", raising=False)
    _, default, _ = run("gen")  # the process's parser exists from here on
    _, seed_zero, _ = run("gen", "--seed", "0")
    assert default == seed_zero
    monkeypatch.setenv("FCX_SEED", "777")
    _, from_env, _ = run("gen", "--spec")
    _, explicit, _ = run("gen", "--seed", "777", "--spec")
    assert from_env == explicit != seed_zero
    assert "seed 777" in from_env
    _, overridden, _ = run("gen", "--seed", "0")
    assert overridden == seed_zero


# sha256 of ``fcx gen`` stdout for --gens, --sigma and --seed, and of
# ``fcx rebase tests/golden/actions.fcx --delta-r 2.0``.  Recorded while the
# scrambler still drew over every generator pair and the serializer read the
# ``delta`` entries: the document bytes, not only their canonical forms.
GEN_DOCUMENT_SHA256 = {
    (40, 3, 3): "9a655c38e27d48a530d127213d87253a0aa5545be4c437139971a8e3cf1e39c1",
    (40, 3, 11): "f422a4aa0228e16b9f6e9425476ce377334377e2c56133c99c6c5b7e7d007aae",
    (40, 4, 3): "ce11c466f56db398611afeca26f59baa85679cdf5fc24475c44da694d2d5eddf",
    (40, 4, 11): "c8e8aa71053bb8188256718f47d03fff5284207135e08c15b3cf0bb44edf94ae",
    (40, 6, 3): "60cbd5140f28fd0aa4fb48ebd170eb4b1d7f3877adb777a73ab60e33f71f7c7b",
    (40, 6, 11): "3aed8d011d5fb655c135c33bbfd71564ef681c0479a670161ddeca4593adf40b",
    (400, 3, 3): "ab804ef104f77dd952befbf2cd21a8de150e662d98fde4d3325a9568a883efe2",
    (400, 3, 11): "a107c31e7185970ae1712a32fd20951e74f637f6f9d66b23813f5c199c1b5ab4",
    (400, 4, 3): "d6136e1e8413e16d64a60a6e0a6cf756794ab447fbbaa71361c9e4394adefa77",
    (400, 4, 11): "26cf215e9799df9fdb5c94807f487c8ba664728ec835ab7c2db88faa989f8d9c",
    (400, 6, 3): "c723137f7ce1ddb335bdca116cdb3aa7c2345ae154acb09b17de9fecb22ee75c",
    (400, 6, 11): "273f17c1feb8f3415c094179ac4addf84b48f928fe9451e2f6f807613ba35dc8",
    (1500, 3, 3): "fa2bfd4b1631fdc29e2185275b1b1ab8bc6690664520b459c267a484f3f18adb",
    (1500, 3, 11): "bea8a9d2cdb23a704035f3f8aaf6b302e7dadbdc447842d37f148b72a4e00c97",
    (1500, 4, 3): "d4c974c276c8c6ee0f5817358c1f0cea65df37c23b3249f7ab7fdd9828f7785d",
    (1500, 4, 11): "60d8068e77ca3c93cf32f6b11979d49b4fc19570b1ae189ac0bd934ba5c7ae04",
    (1500, 6, 3): "8451c2ab8b1ecd9bd1ab116fe62bb915defdf1a3a595ad264f55d7e21b622361",
    (1500, 6, 11): "fd22cdf8be19be3627cdeb1795dcd63659f6ae2082c08932a20c19b10b3eee82",
}
REBASE_DOCUMENT_SHA256 = "6212039ae66c289924c2215776cabd70e17105db0c63a6ec64b4a5471de5db5b"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("gens, sigma, seed", sorted(GEN_DOCUMENT_SHA256))
def test_gen_documents_are_pinned(run, gens, sigma, seed):
    code, out, _ = run("gen", "--gens", str(gens), "--sigma", str(sigma), "--seed", str(seed))
    assert code == 0
    assert _sha256(out) == GEN_DOCUMENT_SHA256[(gens, sigma, seed)]


def test_rebase_document_is_pinned(run):
    path = Path(__file__).parent / "golden" / "actions.fcx"
    code, out, _ = run("rebase", str(path), "--delta-r", "2.0")
    assert code == 0 and _sha256(out) == REBASE_DOCUMENT_SHA256


def test_report_sections_and_byte_stability(run, write_doc):
    path = write_doc(RING_TEXT)
    code, out1, _ = run("report", path, "--format", "tsv")
    assert code == 0
    _, out2, _ = run("report", path, "--format", "tsv")
    assert out1 == out2
    headers = [l for l in out1.splitlines() if l.startswith("# ")]
    assert headers == [
        "# validate",
        "# cohomology",
        "# pages",
        "# poincare",
        "# euler",
        "# decompose",
        "# collapse-bound",
        "# cup",
        "# ring",
        "# cuplength",
    ]


def test_report_stops_after_failed_validation(run, write_doc):
    code, out, _ = run("report", write_doc(BAD_JUMP_TEXT), "--format", "tsv")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "# validate"
    assert "# pages" not in lines


def test_tsv_runs_are_byte_identical_for_pages(run, write_doc):
    doc = (
        "fcx 1\nsigma 4\nlambda 0\n"
        "gen x1 0\ngen x2 4\ngen a 5\ngen b 9\nd x1 a\nd x2 a\nd x2 b\n"
    )
    path = write_doc(doc)
    outs = {run("pages", path, "--format", "tsv")[1] for _ in range(3)}
    assert len(outs) == 1


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What an installer's console-script wrapper does: load the declared target,
# name the program after the script and exit with the target's return value.
LAUNCHER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "name, value = sys.argv[1:3]\n"
    "target = EntryPoint(name, value, 'console_scripts').load()\n"
    "sys.argv = [name] + sys.argv[3:]\n"
    "sys.exit(target())\n"
)


def declared_script(name):
    """Target of ``name`` in the ``[project.scripts]`` table of pyproject.toml.

    A line scan of that one table, so that no TOML parser is needed
    (``tomllib`` is new in Python 3.11).
    """
    table = None
    for raw in PYPROJECT.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]" and "=" in line:
            key, value = (part.strip().strip("\"'") for part in line.split("=", 1))
            if key == name:
                return value
    raise AssertionError(f"pyproject.toml declares no '{name}' console script")


def test_installed_entry_point_runs(tmp_path):
    """The declared ``fcx`` script runs as its own process, without an install.

    The child imports the same ``fcx`` package as this test, through the
    current interpreter, so no ``fcx`` executable on PATH is involved.
    """
    target = declared_script("fcx")
    src_dir = str(Path(fcx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}

    def run_script(*argv):
        return subprocess.run(
            [sys.executable, "-c", LAUNCHER, "fcx", target, *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    path = tmp_path / "dipole.fcx"
    path.write_text(DIPOLE_TEXT, encoding="utf-8")
    proc = run_script("pages", str(path), "--format", "tsv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "page\t1\t0\t0\t1"

    bad = tmp_path / "bad.fcx"
    bad.write_text(BAD_JUMP_TEXT, encoding="utf-8")
    proc = run_script("validate", str(bad))
    assert proc.returncode == 1, proc.stderr


def test_the_cli_module_runs_as_a_script():
    """``python -m fcx.cli`` runs the command line: the golden ``pages``
    bytes for a document, exit code 2 for a path that cannot be read."""
    golden = Path(__file__).parent / "golden"
    src_dir = str(Path(fcx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fcx.cli", *argv], capture_output=True, text=True, env=env
        )

    proc = run_module("pages", str(golden / "three_gen.fcx"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (golden / "three_gen.pages.human.txt").read_text(encoding="utf-8")

    proc = run_module("pages", str(golden / "no_such_document.fcx"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("fcx: cannot read")


def test_a_huge_jump_index_costs_one_run_of_pages_per_jump(tmp_path):
    """The collapse page is a number read from the input, not the size of
    the complex: one dipole of jump index 2.5 * 10**17 gives two runs of
    equal pages, and every page, polynomial and command answers at once.
    Each command runs in a child limited to 10 s and 1 GiB of address
    space, so a page-by-page build fails here without filling the memory;
    the calls in this process run only after the children passed."""
    path = tmp_path / "huge.fcx"
    path.write_text(HUGE_JUMP_TEXT, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(fcx.__file__).resolve().parents[1])}

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    top, collapse = 10**18 + 1, 250000000000000001
    square = f"0:1 {top}:2 {2 * top}:1"
    expected = {
        ("cohomology",): ["cohomology\t0\t1", f"cohomology\t{top}\t1"],
        ("collapse-bound",): [f"collapse\t{collapse}", f"bound-jumps\t{collapse}"],
        ("power", "--s", "2"): [f"poly\t1\t{square}", f"expected\t1\t{square}", "power\tpass"],
        ("pages", "--max-page", "3"): [
            f"page\t{k}\t{n}\t{n % 4}\t1" for k in (1, 2, 3) for n in (0, top)
        ] + [f"collapse\t{collapse}"],
    }
    for (command, *flags), lines in expected.items():
        proc = subprocess.run(
            [sys.executable, "-m", "fcx.cli", command, str(path), *flags, "--format", "tsv"],
            capture_output=True, text=True, env=env, timeout=10, preexec_fn=limit_memory,
        )
        assert (proc.returncode, proc.stderr, proc.stdout.splitlines()) == (0, "", lines)

    start = time.perf_counter()
    c = parse(HUGE_JUMP_TEXT)
    table = pages(c)
    assert (table.collapse_page, table.starts) == (collapse, (1, collapse))
    for k in (1, 2, collapse - 1):
        assert table.page(k) == {(0, 0): 1, (top, 1): 1}
        assert poincare_laurent(table, k) == LaurentPoly(((0, 1), (top, 1)))
    for k in (collapse, collapse + 5, 10**18):
        assert table.page(k) == {} and poincare_laurent(table, k).is_zero
    report = betti_compare(c, (1,), 0)
    assert report.mismatches == (f"degree {top}: cohomology dim 1, Betti prediction 0",)
    assert time.perf_counter() - start < 0.5


def test_report_and_pages_never_build_layouts_or_differentials(run, write_doc, monkeypatch):
    import fcx.cli
    import fcx.invariants

    tables = []
    for module in (fcx.cli, fcx.invariants):
        def recording(c, _pages=module.pages):
            tables.append(_pages(c))
            return tables[-1]

        monkeypatch.setattr(module, "pages", recording)
    for text in (DIPOLE_TEXT, THREE_TEXT):
        path = write_doc(text)
        for argv in (("report",), ("pages",), ("pages", "--max-page", "6")):
            for fmt in ("tsv", "human"):
                assert run(argv[0], path, *argv[1:], "--format", fmt)[0] == 0
    # per document and format: the report's one table in fcx.cli and the one
    # q_decomposition reads, then the two pages runs
    assert len(tables) == 2 * 2 * (2 + 2)
    for table in tables:
        assert not {"layouts", "differentials"} & vars(table).keys()
    table.differentials  # builds the layouts and itself on first read, then keeps them
    assert {"layouts", "differentials"} <= vars(table).keys()


def test_pages_cohomology_and_report_build_no_differential_entries(
    run, write_doc, no_entries, scrambled
):
    """A parsed document keeps its differential as columns: these commands,
    equality, hashing and ``dataclasses.replace`` never build the sorted
    entries or a single ``DifferentialEntry``.  (A document whose actions
    disagree with its jumps is walked entry by entry, to word the errors.)"""
    from fcx.model import DifferentialEntry

    docs = [write_doc(RING_TEXT, "ring.fcx"), write_doc(THREE_TEXT, "three.fcx")]
    docs.append(write_doc(serialize(scrambled(250, 4, 7)), "scrambled.fcx"))
    docs.append(write_doc(ACT_TEXT, "actions.fcx"))
    for path in docs:
        for command in ("pages", "cohomology", "report"):
            for fmt in ("tsv", "human"):
                assert run(command, path, "--format", fmt)[0] == 0, (command, path)
        text = Path(path).read_text(encoding="utf-8")
        c, again = parse(text), parse(text)
        assert c == again and hash(c) == hash(again)
        copy = dataclasses.replace(c, ring=None)
        assert copy.delta_columns() == c.delta_columns()
        assert dataclasses.replace(copy, ring=c.ring) == c
        fewer = dataclasses.replace(c, cup_classes=c.cup_classes[1:])
        assert hash(dataclasses.replace(fewer, cup_classes=again.cup_classes)) == hash(c)
        assert (fewer == c) == (not c.cup_classes)
    assert no_entries == []
    assert DifferentialEntry("x", "y") == ("x", "y") and no_entries == [("x", "y")]


def test_gen_and_serialize_build_no_differential_entries(run, no_entries, scrambled):
    """``fcx gen`` (synthesis, with actions on its normal form, and the
    serializer) and ``serialize`` of a parsed document read columns only."""
    texts = [RING_TEXT, THREE_TEXT, DIPOLE_TEXT, serialize(scrambled(250, 4, 7))]
    assert no_entries == []
    for text in texts:
        canonical = serialize(parse(text))
        assert serialize(parse(canonical)) == canonical
    assert canonical == texts[-1]
    for seed in range(20):
        for argv in ((), ("--gens", "40", "--max-jump", "1"), ("--sigma", "3")):
            code, out, _ = run("gen", "--seed", str(seed), *argv)
            assert code == 0 and out.startswith("fcx 1\n")
    assert no_entries == []

def test_report_cohomology_and_betti_run_no_cohomology_elimination(run, monkeypatch):
    """Every dimension these commands print is counted from the barcode: with
    the degree-graded elimination broken they still match their goldens.
    (The ring report is left out: its cup sections read representatives.)"""
    import fcx.model

    def broken(c):
        raise AssertionError("the degree-graded cohomology was eliminated")

    monkeypatch.setattr(fcx.model, "_graded_cohomology", broken)
    golden = Path(__file__).parent / "golden"
    jobs = [
        ((command, stem), f"{stem}.{command}")
        for stem in ("dipole", "three_gen")
        for command in ("report", "cohomology")
    ]
    jobs += [
        (("report", "three_gen", "--max-page", "1"), "three_gen.report.max1"),
        (("report", "small_sigma", "--allow-small-sigma"), "small_sigma.report"),
        (("report", "bad_jump"), "bad_jump.report"),
        (("betti", "torus", "--betti", "1,2,1"), "torus.betti.match"),
        (("betti", "torus", "--betti", "1,0,1"), "torus.betti.mismatch"),
    ]
    for (command, stem, *rest), name in jobs:
        for fmt, suffix in (("tsv", "tsv"), ("human", "human.txt")):
            out = run(command, str(golden / f"{stem}.fcx"), *rest, "--format", fmt)[1]
            assert out == (golden / f"{name}.{suffix}").read_text(encoding="utf-8"), name


def test_every_traced_layer_binding_exists(monkeypatch):
    """The benchmark's tracer wraps these module attributes by name; a
    renamed or dropped import would silently leave a layer untimed."""
    import importlib

    import fcx.cli  # noqa: F401
    import fcx.cup  # noqa: F401
    import fcx.invariants  # noqa: F401
    import fcx.kunneth  # noqa: F401

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    # The cohomology dimensions are counted from the barcode, so these three
    # are gone from the package; a later change to the benchmark alone drops
    # them from perfbench/spans.py.  ``tensor_product`` no longer validates
    # the product (its reduction proves delta^2 = 0), so ``fcx.kunneth``
    # imports no ``validate``; the layer stays traced through
    # ``fcx.model.validate``, which ``require_valid`` calls, and
    # ``fcx.cli.validate``.  Any other missing binding still fails.
    assert set(spans.Layers(spans.Tracer()).missing) == {
        "fcx.cli.z_graded_cohomology",
        "fcx.cli.periodic_cohomology",
        "fcx.engine.periodic_cohomology",
        "fcx.kunneth.validate",
    }
