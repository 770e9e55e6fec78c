"""Exact quantum Steenrod operations over F_p.

The package computes the covariantly constant endomorphisms QSigma_b (and
the operations QSt, QPi derived from them) for a finitely presented small
quantum cohomology ring, by solving the quantum connection's commutation
equation order by order in the Novikov variable, entirely in exact
arithmetic.  Independent oracles (closed forms for the sphere, the rational
fundamental-solution pipeline, tabulated answers for the cubic surface and
the intersection of quadrics) and the finite equivariant cell complexes used
in the localization arguments are included for verification.
"""

from .errors import (
    CapExceeded,
    InconsistentSeed,
    ManifoldFormatError,
    MissingSteenrodData,
    MixedContext,
    NegativePowerResidue,
    NegativeValuation,
    NonReducible,
    NotDivisor,
    NotGenerated,
    QSteenrodError,
    UnknownManifold,
    ZeroInverse,
)
from .fp import factorial_ratio, fp_inv, is_prime, require_prime
from .series import Monomial, SeriesElement, series_mul
from .ring import (
    BasisElement,
    CohomologyElement,
    QuantumRing,
    basis_class,
    classical_product,
    connection_apply,
    element,
    format_element,
    pfold_power,
    quantum_product,
    verify_ring,
    zero_element,
)
from .endo import (
    GradedEndomorphism,
    compose,
    compose_sign,
    equal_on_untainted,
    format_endo,
    identity_endo,
    kappa,
    multiplication_endo,
    multiplication_matrix,
    qpi,
)
from .solver import (
    QstResult,
    SolveReport,
    initial_layer,
    qsigma_apply,
    qsigma_lambda,
    qst,
    qst_auto,
    qst_via_generators,
    solve_qsigma,
    tzero_layer,
    verify_covariant_constancy,
)
from .oracles import (
    ExpectedResult,
    RationalSeries,
    builtin_manifold,
    builtin_ring,
    expected_results,
    reduce_mod_p,
    s2_closed_form,
    xi_matrix,
    xi_series,
)
from .manifold_io import (
    dump_manifold,
    dump_result,
    load_manifold,
    load_result,
    ring_from_data,
)

__version__ = "0.1.0"
