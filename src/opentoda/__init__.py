"""Open-end Toda lattice via its spectral representation.

Finite Jacobi matrices, the direct and inverse spectral transforms in
pole-residue form, the bracket hierarchy in three coordinate charts, flow
propagation (closed-form spectral and RK4), and Darboux charts with
machine-checkable canonicality.
"""

from .errors import (
    CoincidentPoints,
    CoincidentPoles,
    ConstraintBracketNotUnit,
    ConvergenceFailure,
    DomainViolation,
    MultiplePole,
    NonFiniteState,
    NonRealOrMultipleRoots,
    NotInRatNPrime,
    NumericalFailure,
    OverflowGuard,
    PoleEvaluation,
    ResidueUnderflow,
    SignViolation,
    SingularMatrix,
    TodaError,
)
from .ratfun import (
    Rat,
    partial_fractions,
    poly_derivative,
    poly_eval,
    poly_from_roots,
    poly_real_roots,
)
from .tridiag import (
    JacobiMatrix,
    PhasePoint,
    eigen,
    flaschka,
    pq_polynomials,
    trace_power,
    unflaschka,
)
from .spectral import (
    SpectralData,
    direct_transform,
    gammas,
    inverse_transform,
    inverse_transform_stieltjes,
    numerator_poly,
    weyl_eval,
    weyl_rat,
)
from .brackets import (
    Observable,
    PoissonStructure,
    WeightFn,
    action_sum,
    analytic_bracket,
    bracket_terms,
    casimir_residual,
    closed_form_bracket,
    cv_pack,
    dirac_restrict,
    fd_gradient,
    fd_jacobian,
    jacobi_residual,
    neg_log_mass,
    pi0_cv,
    pi1_cv,
    pi2_cv,
    pushforward,
    restricted_bracket,
    zrho_pack,
    zrho_restricted_tensor,
    zrho_tensor,
)
from .flows import (
    FlowSpec,
    Trajectory,
    evolve,
    exact_flow,
    hamiltonian,
    hamiltonian_field,
    hamiltonian_gradient,
    lax_rhs,
    rk4,
    spectral_field,
)
from .charts import (
    ChartMap,
    action_angle_map,
    gamma_pi_map,
    iy_map,
    numerator_values,
    verify_canonical,
    zq_map,
)

__version__ = "0.1.0"

# Orientation and normalization choices this package commits to. The hash
# rides along in serialized envelopes so states are never mixed across
# incompatible conventions. conventions_hash() returns a pinned constant, the
# first 12 hex digits of the SHA-256 of json.dumps(CONVENTIONS,
# sort_keys=True); a test recomputes it, so an edit here must update it.
CONVENTIONS = {
    "flaschka": "v_k = -p_k; c_k = exp((q_k - q_{k+1})/2)",
    "weyl": "chi(z) = sum_k rho_k/(z_k - z) = ((L - z)^{-1})_{00}",
    "residues": "rho_k = -Res_{z_k} chi; contour residues taken clockwise",
    "pi1": "normalized so pairing pi_1 with tr L generates the first flow",
    "pi2": "normalized so pairing pi_2 with tr L generates the second flow",
    "constraints": "Phi1 = sum_k F(z_k), Phi2 = -ln(sum_k rho_k); {Phi1, Phi2} = 1",
    "gamma_pi": "pi_k = -ln((-1)^{N+k} p(gamma_k)) so {gamma_k, pi_n} = delta",
    "angles": "theta_k = ln((-1)^k q(z_k)/q(z_0)), k = 1..N-1",
    "antiderivatives": "F = z for f=1; ln z for f=z; -1/((n-1) z^{n-1}) for f=z^n",
    "layouts": "CV = (v, c); QP = (q, p); ZRHO = (z, rho), flat concatenations",
}


def conventions_hash():
    return "7ec3712b8d37"
