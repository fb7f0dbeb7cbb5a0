"""Numerical laboratory for the even and odd eight-vertex lattice models.

The package verifies, at desk scale, the integrable structure shared by
the two vertex families: elliptic weight parameterization, Lax operators
and the intertwiner family labelled by parity pairs, Yang-Baxter
residuals and kernel discovery, commuting transfer matrices, staggered
partition-function equivalences, and the free-fermion/Krinsky manifold
of the asymmetric staggered chain.
"""

from .elliptic import (
    EllipticPoint,
    GuardError,
    ThetaParams,
    baxter_weights,
    complete_elliptic_k,
    complete_elliptic_k_comp,
    theta_h,
    theta_t,
)
from .linalg import commutator_norm, kron, kron_chain, max_abs, null_space
from .operators import (
    LaxOperator,
    lax_asym_even,
    lax_asym_odd,
    lax_even,
    lax_odd,
    functional_residuals,
    r_sheaf,
    sheaf_r_elliptic,
    sheaf_yang_baxter_residual,
    solve_intertwiner,
    yang_baxter_residual,
)
from .transfer import (
    LatticeSpec,
    TransferMatrix,
    commutation_scan,
    partition_enumerate,
    partition_trace,
    sigma_x_string,
    staggered_transfer_pair,
    transfer_family,
    transfer_matrix,
    wu_kunz_check,
)
from .weights import (
    ManifoldReport,
    Parity,
    UndefinedInvariantError,
    WeightsEight,
    WeightsSym,
    baxter_invariants,
    ev_od_swap,
    free_fermion_residual,
    krinsky_invariants,
    manifold_report,
    sample_krinsky_pair,
    staggered_companion,
    symmetrize,
    to_eight,
)

__version__ = "0.1.0"
