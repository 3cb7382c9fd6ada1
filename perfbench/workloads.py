"""The benchmark's workloads: documents synthesized from a seed, and operations.

Each workload draws its documents with ``fcx.synth`` from ``--seed`` and
serializes them with ``fcx.io.serialize``; the program only ever sees the
documents.  Sizes are fixed per workload (the corpus draws 200 sizes the way
the acceptance corpus does), so two seeds give different complexes of the
same shape and comparable cost.  Every document keeps the
normal form it was built from, which ``checks`` turns into expected outputs.

An operation is one CLI command on one document (or factor pair), run
in-process through ``fcx.cli.main``, except in ``cup-ring``, which also calls
``fcx.cup.induced_on_pages`` for every class and page of a freshly parsed
document (the ``induced`` operation).
"""

from __future__ import annotations

import dataclasses
import random
from contextlib import AbstractContextManager
from functools import partial
from typing import Callable, NamedTuple

import checks
from checks import CupDoc, NormalForm

PERIODS = (3, 4, 6)  # the periods of the acceptance corpus
TSV = ("--format", "tsv")

Span = Callable[[str], AbstractContextManager]


class Op(NamedTuple):
    label: str
    command: tuple[str, ...]  # CLI arguments before the document paths; () = induced
    docs: tuple[str, ...]  # document names, passed as paths after ``command``
    check: Callable[[object], list[str]]


@dataclasses.dataclass
class Workload:
    name: str
    docs: dict[str, str]  # document name -> FCX text
    ops: list[Op]
    largest: tuple[int, ...]  # indices in ``ops`` of the operations on the largest inputs
    cold: Op  # the command the fresh-interpreter runs make, on a small document
    cup_docs: dict[str, CupDoc] = dataclasses.field(default_factory=dict)


def _normal_form(spec) -> NormalForm:
    return NormalForm(spec.params.maslov_period, spec.free, spec.dipoles)


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spread evenly over [lo, hi], in ascending order."""
    width = hi - lo + 1
    return [lo + (i * width) // count for i in range(count)]


def _scrambled(rng: random.Random, n: int, period: int, span: int, max_jump: int):
    """A scrambled complex of exactly n generators: n // 3 dipoles, the rest free.

    The degrees of free generators and dipole sources, and the dipole jumps
    0..max_jump, are spread evenly, so every seed gives the same shape; the
    seed draws which source gets which jump and the scrambling automorphism.
    """
    from fcx.model import MonotoneParams
    from fcx.synth import NormalFormSpec, build_from_normal_form, random_filtered_automorphism

    n_dipoles = n // 3
    jumps = [i % (max_jump + 1) for i in range(n_dipoles)]
    rng.shuffle(jumps)
    spec = NormalFormSpec(
        MonotoneParams(period, 0.5),
        free=tuple(_spread(-span, span, n - 2 * n_dipoles)),
        dipoles=tuple(zip(_spread(-span, span, n_dipoles), jumps)),
    )
    base = build_from_normal_form(spec)
    return random_filtered_automorphism(rng.getrandbits(32), base), _normal_form(spec)


def _acceptance_sized(rng: random.Random, i: int, max_gens: int):
    """A complex drawn like the acceptance corpus: jumps <= 3, periods 3/4/6."""
    from fcx.model import MonotoneParams
    from fcx.synth import random_complex

    params = MonotoneParams(PERIODS[i % len(PERIODS)], 0.5)
    c, spec = random_complex(rng.getrandbits(32), params, max_gens=max_gens, max_jump=3)
    return c, _normal_form(spec)


class _Draft:
    """A workload being drawn: its documents and operations, with synthesis
    and serialization timed under spans."""

    def __init__(self, name: str, seed: int, span: Span) -> None:
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.span = span
        self.docs: dict[str, str] = {}
        self.ops: list[Op] = []

    def synth(self, fn: Callable, *args):
        with self.span("synth.build"):
            return fn(*args)

    def add(self, doc: str, c) -> None:
        from fcx.io import serialize

        with self.span("io.serialize"):
            self.docs[doc] = serialize(c)

    def done(self, largest: tuple[int, ...], **extra) -> Workload:
        c, nf = self.synth(_acceptance_sized, self.rng, 0, 12)
        self.add("cold", c)
        cold = Op("pages cold", ("pages",) + TSV, ("cold",), partial(checks.check_pages, nf=nf))
        return Workload(self.name, self.docs, self.ops, largest, cold, **extra)


CORPUS_DOCS = 200
CORPUS_TOP = 8  # largest_op_s: the mean over the reports on the 8 largest documents


def corpus_report(seed: int, span: Span) -> Workload:
    """``fcx report`` on an acceptance-shaped corpus (<= 40 generators)."""
    b = _Draft("corpus-report", seed, span)
    sizes = []
    for i in range(CORPUS_DOCS):
        c, nf = b.synth(_acceptance_sized, b.rng, i, 40)
        doc = f"c{i:03d}"
        b.add(doc, c)
        sizes.append(c.count)
        b.ops.append(
            Op(f"report {doc}", ("report",) + TSV, (doc,), partial(checks.check_report, nf=nf))
        )
    by_size = sorted(range(CORPUS_DOCS), key=lambda i: (-sizes[i], i))
    return b.done(tuple(by_size[:CORPUS_TOP]))


# (generators, period, complexes).  Three of 500 generators put the median
# operation among operations of one size.
SCRAMBLED = ((250, 3, 1), (500, 6, 3), (1000, 4, 1))


def scrambled_pages(seed: int, span: Span) -> Workload:
    """``fcx pages`` on dense scrambled complexes of 250 to 1000 generators."""
    b = _Draft("scrambled-pages", seed, span)
    for n, period, count in SCRAMBLED:
        for i in range(count):
            c, nf = b.synth(_scrambled, b.rng, n, period, 8, 3)
            doc = f"s{n}.{i}"
            b.add(doc, c)
            b.ops.append(
                Op(f"pages {doc}", ("pages",) + TSV, (doc,), partial(checks.check_pages, nf=nf))
            )
    return b.done((len(b.ops) - 1,))


# (|A|, |B|, period, pairs).  Five mid-sized pairs put the median operation
# among operations of one size.
KUNNETH_PAIRS = ((12, 12, 3, 3), (24, 20, 6, 5), (40, 30, 4, 1), (60, 40, 4, 1))
POWERS = ((6, 3), (8, 4))  # (factor generators, period), each raised to s = 3


def kunneth_products(seed: int, span: Span) -> Workload:
    """``fcx kunneth`` on factor pairs up to 60 x 40 generators, and
    ``fcx power --s 3`` on small factors."""
    b = _Draft("kunneth-products", seed, span)
    for na, nb, period, pairs in KUNNETH_PAIRS:
        for pair in range(pairs):
            a, nfa = b.synth(_scrambled, b.rng, na, period, 6, 3)
            c, nfb = b.synth(_scrambled, b.rng, nb, period, 6, 3)
            da, db = f"k{na}x{nb}.{pair}a", f"k{na}x{nb}.{pair}b"
            b.add(da, a)
            b.add(db, c)
            b.ops.append(
                Op(
                    f"kunneth {da} {db}",
                    ("kunneth",) + TSV,
                    (da, db),
                    partial(checks.check_kunneth, a=nfa, b=nfb),
                )
            )
    largest = (len(b.ops) - 1,)
    for n, period in POWERS:
        a, nf = b.synth(_scrambled, b.rng, n, period, 4, 3)
        doc = f"p{n}"
        b.add(doc, a)
        b.ops.append(
            Op(
                f"power {doc}",
                ("power", "--s", "3") + TSV,
                (doc,),
                partial(checks.check_power, nf=nf, s=3),
            )
        )
    return b.done(largest)


# (|C|, period, m, p, documents).  Three small documents put the median
# operation among operations of one kind and size.
CUP_DOCS = ((60, 3, 4, 5, 3), (120, 4, 5, 4, 1))


def _cup_document(c, m: int, p: int):
    """C tensor F, F free on t0..tm at degrees 0, p, .., mp, with the unit
    class ``1``, the shift classes a1..am (a_i: g*t_j -> g*t_{j+i}) and the
    table of the truncated polynomial ring GF(2)[a1]/(a1^(m+1))."""
    from fcx.cup import CupClass, RingTable
    from fcx.kunneth import tensor_product
    from fcx.model import FloerComplexData, LiftedGenerator

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


def cup_ring(seed: int, span: Span) -> Workload:
    """``fcx cup``, ``fcx ring``, ``fcx cuplength`` and the induced maps on
    every page, on C tensor F documents of 300 (three) and 720 generators."""
    b = _Draft("cup-ring", seed, span)
    cup_docs = {}
    for n, period, m, p, count in CUP_DOCS:
        for i in range(count):
            c, nf = b.synth(_scrambled, b.rng, n, period, 6, 3)
            doc_c = b.synth(_cup_document, c, m, p)
            doc = f"cup{n}.{i}"
            b.add(doc, doc_c)
            info = CupDoc(nf, m, p)
            cup_docs[doc] = info
            b.ops += [
                Op(f"cup {doc}", ("cup",) + TSV, (doc,), partial(checks.check_cup, doc=info)),
                Op(f"ring {doc}", ("ring",) + TSV, (doc,), partial(checks.check_ring, doc=info)),
                Op(
                    f"cuplength {doc}",
                    ("cuplength",) + TSV,
                    (doc,),
                    partial(checks.check_cuplength, doc=info, generators=doc_c.count),
                ),
                Op(f"induced {doc}", (), (doc,), partial(checks.check_induced, doc=info)),
            ]
    return b.done((len(b.ops) - 3,), cup_docs=cup_docs)  # ring on the largest document


WORKLOADS: dict[str, Callable[[int, Span], Workload]] = {
    "corpus-report": corpus_report,
    "scrambled-pages": scrambled_pages,
    "kunneth-products": kunneth_products,
    "cup-ring": cup_ring,
}
