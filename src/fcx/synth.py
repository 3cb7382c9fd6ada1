"""Complex synthesis with known answers, plus random filtered automorphisms.

Ground truth is obtained *by construction*: a normal form is a direct sum of
free generators and elementary two-generator "dipoles", whose spectral pages
follow from a closed-form count with no linear algebra at all.  Random test
complexes are built from a drawn normal form and then scrambled by a random
filtration-compatible automorphism, so every derived quantity of the
scrambled complex is known in advance from the normal form.

The PRNG is the standard library Mersenne Twister (``random.Random``); the
seed and generator name are recorded in generated documents so every run is
reproducible.
"""

from __future__ import annotations

import logging
import random
from bisect import bisect_right
from dataclasses import dataclass

from .gf2 import apply_columns, invert_columns, invert_square
from .model import (
    EngineConsistencyError,
    FloerComplexData,
    LiftedGenerator,
    MonotoneParams,
    require_valid,
    validate,
)

__all__ = [
    "PRNG_NAME",
    "NormalFormSpec",
    "OraclePages",
    "build_from_normal_form",
    "normal_form_pages_oracle",
    "random_normal_form",
    "random_complex",
    "random_filtered_automorphism",
]

PRNG_NAME = "python-random-mersenne-twister"

_log = logging.getLogger(__name__)

# Denominator of the dyadic grid used for synthesized actions.  Dyadic values
# keep every action computation (synthesis, window checks, deck translation
# by +/- action_period) exact in binary floating point, so rebase round trips
# are bit-exact.
_GRID = 128

# Drawn degrees (of free generators and dipole sources) lie in
# [-DEGREE_SPAN, DEGREE_SPAN].
DEGREE_SPAN = 8


@dataclass(frozen=True)
class NormalFormSpec:
    """A direct sum of free generators and dipoles; order-insensitive.

    ``free`` lists lifted degrees of free generators; ``dipoles`` lists
    ``(source_degree, jump_index)`` pairs, each contributing a source at that
    degree and a target at ``source_degree + jump_index*period + 1``.
    """

    params: MonotoneParams
    free: tuple[int, ...] = ()
    dipoles: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "free", tuple(sorted(self.free)))
        object.__setattr__(self, "dipoles", tuple(sorted(self.dipoles)))


@dataclass(frozen=True)
class OraclePages:
    """Closed-form page dimensions: (k, n, j) -> dim, plus the collapse page."""

    dims: tuple[tuple[tuple[int, int, int], int], ...]
    collapse_page: int

    def as_dict(self) -> dict[tuple[int, int, int], int]:
        return dict(self.dims)

    def page(self, k: int) -> dict[tuple[int, int], int]:
        """Nonzero dimensions of page k; any page past collapse + 1, the last
        page counted, is that stable page."""
        if k < 1:
            raise ValueError(f"pages are indexed from 1, got {k}")
        k = min(k, self.collapse_page + 1)
        return {(n, j): d for (kk, n, j), d in self.dims if kk == k}


def build_from_normal_form(spec: NormalFormSpec) -> FloerComplexData:
    """Materialize a normal form as a complex; one generator per free degree
    and per dipole endpoint, the differential exactly the dipole entries.

    When the monotonicity constant is positive and every dipole jump index is
    0 or 1, consistent actions are synthesized on a dyadic grid (source chosen
    inside the window so the target action ``source - monotonicity +
    jump*action_period`` is also inside); otherwise, when a jump-0 source
    has no room (period 1), or when the grid cannot place every action
    strictly more than ``action_tolerance`` inside the window (a window
    barely wider than the tolerance), actions are omitted for the run and
    logged.
    """
    p = spec.params
    period = p.maslov_period
    sigma = p.action_period
    lam = p.monotonicity

    # A jump-0 source lies in (base + lam, base + sigma), empty unless sigma > lam.
    synth_actions = (
        lam > 0
        and all(k in (0, 1) for _, k in spec.dipoles)
        and (sigma > lam or all(k for _, k in spec.dipoles))
        and len(spec.free) < _GRID - 1
        and len(spec.dipoles) < _GRID - 1
    )
    if lam > 0 and not synth_actions:
        _log.info(
            "normal form has a dipole of jump index >= 2, a jump-0 dipole with "
            "no room in the action window, or is too large for the action "
            "grid; actions omitted for this run"
        )

    gens: list[LiftedGenerator] = []
    cols: list[int] = []
    for i, n in enumerate(spec.free):
        action = p.window_base + sigma * (i + 1) / _GRID if synth_actions else None
        gens.append(LiftedGenerator(f"f{i}", n, action))
        cols.append(0)
    for i, (n_src, k) in enumerate(spec.dipoles):
        n_dst = n_src + k * period + 1
        a_src: float | None = None
        a_dst: float | None = None
        if synth_actions:
            u = (i + 1) / _GRID
            if k == 0:
                a_src = p.window_base + lam + (sigma - lam) * u
                a_dst = a_src - lam
            else:  # k == 1
                a_src = p.window_base + lam * u
                a_dst = a_src - lam + sigma
        gens.append(LiftedGenerator(f"x{i}", n_src, a_src))
        gens.append(LiftedGenerator(f"y{i}", n_dst, a_dst))
        cols += [1 << (len(cols) + 1), 0]  # x_i -> y_i, the next generator
    if synth_actions:
        lo, hi, tol = p.window_base, p.window_base + sigma, p.action_tolerance
        if not all(g.action - lo > tol and hi - g.action > tol for g in gens):
            _log.info(
                "the action grid cannot place every action more than the action "
                "tolerance inside the window; actions omitted for this run"
            )
            gens = [g._replace(action=None) for g in gens]
    c = FloerComplexData.from_columns(p, gens, cols)
    report = validate(c)
    if not report.ok:
        raise EngineConsistencyError(
            "normal-form builder produced an invalid complex: "
            + "; ".join(report.errors)
        )
    return c


def normal_form_pages_oracle(spec: NormalFormSpec) -> OraclePages:
    """Exact page dimensions of a normal form, by counting alone.

    A free generator survives every page.  A dipole of jump index k keeps
    both endpoints alive on pages 1..k and kills both entering page k+1; a
    jump-0 dipole is already cancelled before page 1.  The collapse page is
    1 + the maximal jump index (1 when there are no dipoles).
    """
    period = spec.params.maslov_period
    collapse = 1 + max((k for _, k in spec.dipoles), default=0)
    counts: dict[tuple[int, int, int], int] = {}

    def add(k: int, n: int) -> None:
        key = (k, n, n % period)
        counts[key] = counts.get(key, 0) + 1

    for k in range(1, collapse + 2):
        for n in spec.free:
            add(k, n)
        for n_src, kk in spec.dipoles:
            if kk >= k:
                add(k, n_src)
                add(k, n_src + kk * period + 1)
    return OraclePages(tuple(sorted(counts.items())), collapse)


def random_normal_form(
    rng: random.Random,
    params: MonotoneParams,
    max_gens: int = 12,
    max_jump: int = 2,
) -> NormalFormSpec:
    """Draw a normal form within the size bounds (at least one generator)."""
    max_dipoles = max_gens // 2
    n_dipoles = rng.randint(0, max_dipoles)
    n_free = rng.randint(0 if n_dipoles else 1, max_gens - 2 * n_dipoles)
    free = tuple(rng.randint(-DEGREE_SPAN, DEGREE_SPAN) for _ in range(n_free))
    dipoles = tuple(
        (rng.randint(-DEGREE_SPAN, DEGREE_SPAN), rng.randint(0, max_jump))
        for _ in range(n_dipoles)
    )
    return NormalFormSpec(params, free, dipoles)


def random_complex(
    seed: int,
    params: MonotoneParams,
    max_gens: int = 12,
    max_jump: int = 2,
) -> tuple[FloerComplexData, NormalFormSpec]:
    """Deterministically draw a normal form, build it, scramble it.

    Returns the scrambled complex (algebraic mode: actions dropped) together
    with the ground-truth normal form.  Two calls with the same arguments are
    bit-identical.
    """
    rng = random.Random(seed)
    spec = random_normal_form(rng, params, max_gens, max_jump)
    base = build_from_normal_form(spec)
    return _scramble(rng, base), spec


def random_filtered_automorphism(seed: int, c: FloerComplexData) -> FloerComplexData:
    """Conjugate the differential by a random filtration-compatible change of basis.

    Each generator maps to itself plus a random combination of same-residue
    generators of strictly higher degree, composed with a random invertible
    mixing inside every single degree.  Actions are dropped (algebraic mode).
    Every page dimension, differential rank, collapse page and polynomial of
    the output equals the input's.

    The draws are fixed, so a seed gives the same output from release to
    release: for each generator in canonical order, ``random()`` is called
    once per same-residue generator of strictly higher degree, in ascending
    index, and a value below 0.35 adds it; then each degree, ascending, draws
    its mixing with ``getrandbits``.
    """
    require_valid(c)
    return _scramble(random.Random(seed), c)


def _random_invertible(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    """Columns of a uniformly drawn invertible n x n GF(2) matrix (rejection),
    and the columns of its inverse.

    ``invert_square`` tests each draw with one echelon of its columns and
    forms the inverse of the accepted draw alone.
    """
    while True:
        cols = [rng.getrandbits(n) for _ in range(n)]
        inv = invert_square(cols)
        if inv is not None:
            return cols, inv


def _scramble(rng: random.Random, c: FloerComplexData) -> FloerComplexData:
    n = c.count
    params = c.params
    degrees = [g.degree for g in c.generators]

    # Upward part: identity plus random same-residue strictly-higher-degree
    # tails.  Generators ascend in degree, so the candidates of i are a
    # suffix of its residue's indices; one draw each, in ascending index,
    # with ``random`` bound once.
    by_residue: dict[int, list[int]] = {}
    for i, d in enumerate(degrees):
        by_residue.setdefault(params.residue(d), []).append(i)
    draw = rng.random
    up_cols = []
    for i, d in enumerate(degrees):
        members = by_residue[params.residue(d)]
        tail = members[bisect_right(members, d, key=degrees.__getitem__) :]
        col = 1 << i
        for h in [h for h in tail if draw() < 0.35]:
            col |= 1 << h
        up_cols.append(col)

    # Within-degree invertible mixing, block by block in ascending degree;
    # a rejected draw is tested, never inverted (``_random_invertible``).
    # Canonical order makes each block one contiguous range of indices, so
    # a local column shifts into place and the blocks concatenate.
    mix_cols: list[int] = []
    mix_inv: list[int] = []
    for members, _ in c.degree_blocks().values():
        local, local_inv = _random_invertible(rng, len(members))
        mix_cols += [col << members.start for col in local]
        mix_inv += [col << members.start for col in local_inv]

    # T = up . mix, so T^-1 = mix^-1 . up^-1; ``up`` is unitriangular in
    # descending degree, which makes its inverse a substitution, and the same
    # walk forms delta . up, so delta . T[i] = (delta . up) . mix[i].
    try:
        up_inv, delta_up = invert_columns(
            up_cols, sorted(range(n), key=lambda i: -degrees[i]), c.delta_columns()
        )
    except ValueError as exc:  # construction guarantees triangularity
        raise EngineConsistencyError(str(exc)) from exc
    t_inv = [apply_columns(mix_inv, col) for col in up_inv]

    # column i of T^{-1} delta T
    new_cols = [apply_columns(t_inv, apply_columns(delta_up, m)) for m in mix_cols]
    gens = [LiftedGenerator(g.uid, g.degree, None) for g in c.generators]
    out = FloerComplexData.from_columns(params, gens, new_cols)
    report = validate(out)
    if not report.ok:
        raise EngineConsistencyError(
            "automorphism produced an invalid complex: " + "; ".join(report.errors)
        )
    return out
