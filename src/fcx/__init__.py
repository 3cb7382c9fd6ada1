"""fcx: spectral pages and invariants of filtered GF(2) cochain complexes.

A library and CLI for finite, Z-graded, filtered cochain complexes over
GF(2) of the kind arising from monotone Floer-type constructions: canonical
dipole decomposition, all spectral-sequence pages with their differentials,
Laurent-polynomial invariants, window rebasing, tensor (Künneth) products,
and cup-class actions with module/ring verification.  Trajectory counts are
plain input data; no geometry is computed here.
"""

from .cup import (
    CohomologyAction,
    CuplengthReport,
    InducedPageMaps,
    InjectivityReport,
    ModuleReport,
    cuplength_report,
    induced_on_cohomology,
    induced_on_pages,
    injectivity_check,
    module_check,
    resolve_unit,
    validate_cup,
)
from .engine import (
    Barcode,
    CanonicalForm,
    LaurentPoly,
    LimitReport,
    PageLayout,
    PageTable,
    canonical_form,
    collapse_page,
    limit_and_filtration,
    pages,
    subquotient_pages_oracle,
)
from .gf2 import Gf2Matrix, Gf2Subspace
from .invariants import (
    BettiReport,
    DecompositionReport,
    EnergyBoundReport,
    EulerReport,
    betti_compare,
    collapse_bound_from_energy,
    collapse_bound_from_jumps,
    euler_number,
    poincare_laurent,
    q_decomposition,
    rebase,
)
from .io import FcxParseError, parse, serialize
from .kunneth import (
    KunnethReport,
    PowerReport,
    TensorComplex,
    kunneth_check,
    power_poincare_check,
    tensor_product,
)
from .model import (
    CohomologyTable,
    CupClass,
    DifferentialEntry,
    EngineConsistencyError,
    FcxError,
    FloerComplexData,
    InvalidComplexError,
    LiftedGenerator,
    MonotoneParams,
    PageIndexError,
    RingTable,
    SizeGuardError,
    ValidationReport,
    require_valid,
    validate,
    z_graded_cohomology,
)
from .synth import (
    NormalFormSpec,
    OraclePages,
    PRNG_NAME,
    build_from_normal_form,
    normal_form_pages_oracle,
    random_complex,
    random_filtered_automorphism,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "FcxError",
    "InvalidComplexError",
    "EngineConsistencyError",
    "SizeGuardError",
    "PageIndexError",
    "FcxParseError",
    # model
    "MonotoneParams",
    "LiftedGenerator",
    "DifferentialEntry",
    "FloerComplexData",
    "ValidationReport",
    "CohomologyTable",
    "validate",
    "require_valid",
    "z_graded_cohomology",
    # linear algebra
    "Gf2Matrix",
    "Gf2Subspace",
    # engine
    "Barcode",
    "CanonicalForm",
    "PageLayout",
    "PageTable",
    "LimitReport",
    "canonical_form",
    "collapse_page",
    "pages",
    "subquotient_pages_oracle",
    "limit_and_filtration",
    # invariants
    "LaurentPoly",
    "EulerReport",
    "DecompositionReport",
    "EnergyBoundReport",
    "BettiReport",
    "poincare_laurent",
    "euler_number",
    "q_decomposition",
    "rebase",
    "collapse_bound_from_jumps",
    "collapse_bound_from_energy",
    "betti_compare",
    # kunneth
    "TensorComplex",
    "KunnethReport",
    "PowerReport",
    "tensor_product",
    "kunneth_check",
    "power_poincare_check",
    # cup
    "CupClass",
    "RingTable",
    "CohomologyAction",
    "InducedPageMaps",
    "ModuleReport",
    "InjectivityReport",
    "CuplengthReport",
    "validate_cup",
    "induced_on_cohomology",
    "induced_on_pages",
    "resolve_unit",
    "module_check",
    "injectivity_check",
    "cuplength_report",
    # synth
    "NormalFormSpec",
    "OraclePages",
    "PRNG_NAME",
    "build_from_normal_form",
    "normal_form_pages_oracle",
    "random_complex",
    "random_filtered_automorphism",
    # io
    "parse",
    "serialize",
]
