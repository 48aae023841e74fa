"""Exact computer algebra for polynomial rings with countably many
variables: monomial orders, truncated Groebner bases, Hilbert series and
partition bijections realized by the division algorithm."""

from .division import (
    DivisionResult,
    DivisorTable,
    divide,
    is_member,
    remainder,
    standard_monomials,
)
from .errors import (
    CertificationError,
    HomogeneityError,
    InfinigbError,
    InputError,
    OrderKindError,
    ParseError,
    RingContextMismatch,
    WindowError,
    ZeroPolynomialError,
)
from .groebner import (
    Certificate,
    GroebnerBasis,
    IdealPresentation,
    StabilityScan,
    TruncationWindow,
    assemble_filtration,
    bayer_stillman_basis,
    buchberger_truncated,
    check_fr_condition,
    is_reduced_set,
    purelex_restriction_check,
    reduce_basis,
    stabilized_reduced_basis,
    verify_buchberger,
)
from .index_sets import IndexSet
from .monomials import (
    DEFAULT_WEIGHTS,
    Monomial,
    OrderKind,
    WeightedAlphabet,
    compare,
    format_monomial,
    parse_monomial,
    sort_key,
)
from .partitions import (
    FamilySpec,
    enumerate_family,
    monomial_to_partition,
    partition_to_monomial,
    phi,
    psi,
    rr_identity_check,
    schur_identity_check,
    verify_bijection,
)
from .polynomials import (
    GF,
    GFElement,
    Polynomial,
    RingContext,
    format_polynomial,
    parse_polynomial,
    s_polynomial,
)
from .series import (
    TruncatedSeries,
    ambient_series,
    quotient_series_from_standard_monomials,
    regular_sequence_series,
)

__version__ = "0.1.0"
