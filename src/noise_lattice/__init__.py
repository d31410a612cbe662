"""Desk-scale computations in lattices of sub-sigma-fields.

Finite probability spaces expose sigma-fields as partitions and
conditional expectations as projections; on top of those sit noise-type
Boolean algebras, their first chaos and spectral grading, an exact
symbolic model of the countable sign-product algebra with its closure and
completion, and seeded Monte-Carlo experiments for random suprema.
"""

__version__ = "0.1.0"

from .chaos import ChaosResult, chaos_membership, first_chaos, up_down_roundtrip
from .errors import (
    CapacityError,
    ConsistencyError,
    DomainMismatchError,
    NoiseLatticeError,
    PreconditionError,
    UnsupportedSequenceError,
)
from .finmeas import (
    RV,
    ProbSpace,
    Subspace,
    coordinate_sign,
    inner,
    mk_dyadic,
    mk_space,
    product,
    span,
    walsh_character,
)
from .ntba import (
    NTBA,
    NTBAElement,
    mk_coordinate_ntba,
    mk_parity_ntba,
    restrict,
    validate_family,
)
from .sigma import (
    SigmaField,
    cond_exp,
    commutes,
    discrete,
    independent,
    inf_family,
    join,
    meet,
    partition,
    sigma_of,
    sigma_of_rvs,
    subspace_of,
    sup_family,
    trivial,
)
from .spectrum import (
    SpectralDecomp,
    SpectralPoint,
    certified_dims,
    k_restriction_additivity,
    sigma_tower_check,
    spectral_decompose,
    verify_spectral_identities,
)
