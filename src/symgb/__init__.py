"""Exact Groebner-basis toolkit for ideals of elementary symmetric
polynomials: sparse rational polynomial arithmetic, Buchberger's algorithm,
symmetric-function identities, sign-reversing involution certification and
Hilbert series of the resulting quotients."""

from .poly import (
    ArityMismatchError,
    PolyParseError,
    Polynomial,
    ZeroPolynomialError,
    format_polynomial,
    parse_polynomial,
)
from .groebner import (
    DivisionResult,
    GroebnerBasis,
    GroebnerStats,
    ZeroIdealError,
    buchberger,
    divide,
    is_groebner_basis,
    is_reduced,
    normal_form,
    reduce_basis,
    reduced_groebner_basis,
    s_polynomial,
)
from .symfunc import (
    check_e1ek_reduction,
    conjectured_gb_e1ek,
    conjectured_gb_ek,
    ekn_identity_defect,
    elementary,
    hkn_identity_defect,
    homogeneous,
    newton_defect,
    powersum,
    telescope_defect,
    weight,
)
from .involution import (
    CertReport,
    certify_involution,
)
from .hilbert import (
    NonArtinianError,
    SeriesPoly,
    closed_form_series,
    hilbert_numerator,
    staircase_series,
)

__version__ = "0.1.0"
