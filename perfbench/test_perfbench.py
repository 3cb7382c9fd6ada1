"""Tests of the benchmark's own checks and tracing.

Run from the root of the repository:

    python3 -m pytest perfbench -q

Each output check must pass on real fcx output and reject a corrupted copy
(one flipped dimension, one wrong rank).  The engine, the subquotient oracle
and the closed-form count of ``checks`` must agree on scrambled complexes of
at least 100 generators, beyond the acceptance corpus' 12.  Times scaled
to the reference speed must not move when the machine slows uniformly.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys

import types

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fcx import cli, cup, engine  # noqa: E402
from fcx.engine import subquotient_pages_oracle  # noqa: E402
from run import _summary  # noqa: E402


def _no_span(name):
    return contextlib.nullcontext()


def _cli(tmp_path, docs: dict[str, str], op: workloads.Op) -> str:
    paths = []
    for doc in op.docs:
        path = tmp_path / f"{doc}.fcx"
        path.write_text(docs[doc], encoding="utf-8")
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(op.command) + paths) == 0
    return out.getvalue()


def _replace_field(text: str, key: str, col: int, new: str, nth: int = 0) -> str:
    """Replace column ``col`` of the ``nth`` line whose first column is ``key``."""
    lines = text.split("\n")
    seen = 0
    for i, line in enumerate(lines):
        fields = line.split("\t")
        if fields[0] == key:
            if seen == nth:
                assert fields[col] != new
                fields[col] = new
                lines[i] = "\t".join(fields)
                return "\n".join(lines)
            seen += 1
    raise AssertionError(f"no line {key!r} number {nth}")


def _bump(text: str, key: str, col: int, nth: int = 0) -> str:
    lines = [line.split("\t") for line in text.split("\n")]
    matching = [fields for fields in lines if fields[0] == key]
    old = matching[nth][col]
    return _replace_field(text, key, col, str(int(float(old)) + 1), nth)


@pytest.fixture(scope="module")
def small():
    """Small copies of every workload (seed 5): the shapes, not the sizes."""
    return {
        "corpus": workloads.corpus_report(5, _no_span),
        "kunneth": workloads.kunneth_products(5, _no_span),
        "cup": workloads.cup_ring(5, _no_span),
    }


def test_report_check_accepts_real_output_and_rejects_corruptions(small, tmp_path):
    wl = small["corpus"]
    checked = 0
    for op in wl.ops:
        out = _cli(tmp_path, wl.docs, op)
        assert op.check(out) == []
        if "\nhf\t" not in out:  # no free generator: nothing survives
            continue
        checked += 1
        if checked > 3:
            break
        for corrupted in (
            _bump(out, "page", 4),
            _bump(out, "hf", 2),
            _bump(out, "cohomology", 2),
            _bump(out, "chi", 2),
            _bump(out, "collapse", 1),
            _replace_field(out, "status", 1, "invalid"),
            _bump(out, "kmax", 1),
        ):
            assert op.check(corrupted), op.label


def test_pages_check_rejects_one_flipped_dimension(small, tmp_path):
    wl = small["corpus"]
    op = wl.cold
    out = _cli(tmp_path, wl.docs, op)
    assert op.check(out) == []
    assert op.check(_bump(out, "page", 4))
    assert op.check(_bump(out, "page", 4, nth=3))
    assert op.check(_replace_field(out, "page", 3, "99"))  # wrong residue
    dropped = "\n".join(line for line in out.split("\n") if not line.startswith("page\t1\t"))
    assert op.check(dropped)


def test_kunneth_and_power_checks_reject_corruptions(small, tmp_path):
    wl = small["kunneth"]
    kunneth_op = wl.ops[1]
    out = _cli(tmp_path, wl.docs, kunneth_op)
    assert kunneth_op.check(out) == []
    assert kunneth_op.check(_bump(out, "page", 4, nth=2))
    assert kunneth_op.check(_replace_field(out, "kunneth", 1, "fail"))
    assert kunneth_op.check(_replace_field(out, "poly", 2, "0:1"))

    power_op = wl.ops[-1]
    out = _cli(tmp_path, wl.docs, power_op)
    assert power_op.check(out) == []
    poly = next(line.split("\t")[2] for line in out.split("\n") if line.startswith("poly\t"))
    exponent, _, coeff = poly.split(" ")[0].partition(":")
    wrong = poly.replace(f"{exponent}:{coeff}", f"{exponent}:{int(coeff) + 1}", 1)
    assert power_op.check(_replace_field(out, "poly", 2, wrong))
    assert power_op.check(_replace_field(out, "expected", 2, wrong))


def test_cup_checks_reject_one_wrong_rank(small, tmp_path):
    wl = small["cup"]
    cup_op, ring_op, cuplength_op, induced_op = wl.ops[:4]
    out = _cli(tmp_path, wl.docs, cup_op)
    assert cup_op.check(out) == []
    assert cup_op.check(_bump(out, "cupmap", 4, nth=7))
    assert cup_op.check("\n".join(out.split("\n")[1:]))  # one map missing

    out = _cli(tmp_path, wl.docs, ring_op)
    assert ring_op.check(out) == []
    assert ring_op.check(_replace_field(out, "module", 1, "fail"))
    assert ring_op.check(_replace_field(out, "injective", 1, "no"))
    assert ring_op.check(_bump(out, "pairs", 1))

    out = _cli(tmp_path, wl.docs, cuplength_op)
    assert cuplength_op.check(out) == []
    assert cuplength_op.check(_bump(out, "cuplength", 1))
    assert cuplength_op.check(_replace_field(out, "witness", 1, "a2 a1 a1"))

    (doc,) = induced_op.docs
    from fcx.io import parse

    c = parse(wl.docs[doc])
    n_pages = checks.collapse(wl.cup_docs[doc].base) + 1
    summary = _summary(
        [
            (cls.name, k, cup.induced_on_pages(c, cls, k))
            for cls in sorted(c.cup_classes, key=lambda cls: cls.name)
            for k in range(1, n_pages + 1)
        ]
    )
    assert induced_op.check(summary) == []
    name, k, page, cells = summary[-1]
    n, j, rows, cols, rank = cells[0]
    wrong = summary[:-1] + [(name, k, page, ((n, j, rows, cols, rank + 1),) + cells[1:])]
    assert induced_op.check(wrong)


@pytest.mark.parametrize("n, period, seed", [(102, 3, 1), (120, 4, 2), (210, 6, 3)])
def test_engine_oracle_and_closed_form_agree_beyond_12_generators(n, period, seed):
    c, nf = workloads._scrambled(random.Random(seed), n, period, 5, 3)
    assert c.count >= 100 and len(c.delta) > c.count
    table = engine.pages(c)
    assert table.collapse_page == checks.collapse(nf)
    for k in range(1, table.collapse_page + 2):
        closed = {(level, level % period): d for level, d in checks.page_dims(nf, k).items()}
        assert table.page(k) == closed, k
        assert subquotient_pages_oracle(c, k) == closed, k


def test_traced_spans_nest_as_called_and_self_times_add_up(small, tmp_path):
    wl = small["kunneth"]
    op = wl.ops[0]
    paths = {}
    for doc in op.docs:
        paths[doc] = str(tmp_path / f"{doc}.fcx")
        with open(paths[doc], "w", encoding="utf-8") as fh:
            fh.write(wl.docs[doc])
    tracer = spans.Tracer()
    layers = spans.Layers(tracer)
    original = cli.pages
    layers.install()
    try:
        assert cli.pages is not original
        with tracer.span("cli"), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(op.command) + [paths[d] for d in op.docs]) == 0
    finally:
        layers.remove()
    assert cli.pages is original
    assert tracer.nesting_problems() == []
    names = tracer.names
    assert names[0] == "cli" and tracer.parents[0] == -1
    assert all(p >= 0 for p in tracer.parents[1:])
    # kunneth_check -> tensor_product -> validate, and pages -> canonical_form -> invert
    tensor = names.index("kunneth.tensor")
    assert names[tracer.parents[tensor]] == "kunneth.check"
    invert = names.index("gf2.invert")
    assert names[tracer.parents[invert]] == "engine.reduce"
    assert names[tracer.parents[tracer.parents[invert]]] == "engine.pages"
    assert sum(tracer.self_times()) == tracer.ends[0] - tracer.starts[0]
    assert all(t >= 0 for t in tracer.self_times())
    entries = sum(c["entries"] for n, c in zip(names, tracer.counts) if n == "kunneth.tensor")
    assert entries > 0


@pytest.mark.parametrize("slowdown", [1.0, 1.7])
def test_scaled_time_cancels_a_uniform_slowdown(slowdown, monkeypatch):
    now = [0]

    def reference_run() -> int:
        ns = round(reference.NOMINAL_NS * slowdown)
        now[0] += ns
        return ns

    monkeypatch.setattr(reference, "time", types.SimpleNamespace(perf_counter_ns=lambda: now[0]))
    monkeypatch.setattr(reference, "time_reference", reference_run)
    clock = reference.ScaledClock(every_ns=reference.NOMINAL_NS)
    now[0] += round(3 * reference.NOMINAL_NS * slowdown)  # work, then a lap
    clock.lap()
    now[0] += round(reference.NOMINAL_NS * slowdown // 2)  # too soon to lap
    clock.lap()
    now[0] += round(reference.NOMINAL_NS * slowdown // 2)
    # 4 nominal units of work; the reference's own time is left out.
    assert clock.stop() == pytest.approx(4 * reference.NOMINAL_NS / 1e9)
