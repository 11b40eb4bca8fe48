"""Ideal lattices, prime spectra and spectral topology of finite skew braces.

The package enumerates all skew braces of small order, computes their
ideal lattices and prime spectra under three primality definitions,
builds hull-kernel topologies on the spectra, and verifies the expected
algebraic and topological laws by direct, exhaustive computation.
"""

from .braces import (
    SkewBrace,
    almost_trivial_brace,
    canonical_form,
    direct_product,
    is_isomorphic,
    trivial_brace,
    validate,
)
from .catalog import generate_catalog, read_catalog, write_catalog
from .enumeration import enumerate_braces, enumerate_braces_raw
from .errors import (
    ConsistencyError,
    IdentityMismatchError,
    NotAGroupError,
    NotAHomomorphismError,
    NotAnIdealError,
    NotMaximalError,
    NotProperError,
    OrderBoundError,
    ParseError,
    SbspecError,
    SkewLawError,
)
from .ideals import (
    all_ideals,
    generated_ideal,
    ideal_check,
    ideal_lattice,
    ideal_weight,
    is_ideal,
    star_set,
)
from .morphisms import (
    Hom,
    contraction,
    endomorphisms,
    extension,
    ideal_correspondence,
    identity_hom,
    image,
    induced_spec_map,
    kernel,
    nil_quotient_homeo,
    quotient,
    quotient_projections,
    validate_hom,
    zero_hom,
)
from .serialize import brace_from_dict, brace_to_dict, load_brace
from .spectra import (
    PRIME_KINDS,
    compare_definitions,
    is_prime,
    maximal_prime_criterion,
    nil_radical,
    radical,
    spectrum,
)
from .suite import SuiteResult, run_brace_suite, run_records, summarize
from .topology import (
    closed_axioms_report,
    irreducibility_report,
    lattice_spectrum,
    noetherian_report,
    separation_report,
    spec_topology,
    spectral_report,
)

__version__ = "0.1.0"
