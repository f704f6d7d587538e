"""Numerical toolkit for superdense-coding capacities of multipartite states
sent through correlated Pauli-class covariant channels."""

import logging

from .capacity import (
    CapacityReport,
    EncodingEnsemble,
    Lemma2Report,
    OptimizerConfig,
    attaining_ensemble,
    capacity_covariant,
    capacity_nonunitary,
    closed_form_bd_fully_correlated,
    closed_form_bell_correlated,
    closed_form_depolarizing,
    closed_form_ghz_fully_correlated,
    depolarizing_invariance_check,
    holevo,
    lemma2_orthogonality_check,
)
from .channels import (
    CorrelationSpec,
    CptpMap,
    PauliChannelSpec,
    SinglePartyPauliSpec,
    apply_channel,
    apply_cptp,
    apply_pauli,
    channel_from_json,
    channel_to_json,
    correlated_probs,
    depolarizing_probs,
    embed_operator,
    fully_correlated_probs,
    pauli_kraus,
    product_probs,
    verify_covariance,
)
from .displacement import (
    DisplacementAlgebraReport,
    LocalEncodingSet,
    displacement_op,
    local_encoding_set,
    twirl,
    verify_displacement_algebra,
)
from .errors import (
    ChannelError,
    DensecodeError,
    LayoutError,
    NonCovariantChannelError,
    NumericalError,
    OptimizerDivergedError,
    ParameterError,
    ProbabilityError,
    SizeLimitError,
)
from .linalg import (
    SubsystemLayout,
    dimension_cap,
    herm_expm,
    hermitian_eig,
    kron,
    kron_all,
    partial_trace,
    permute_slots,
    shannon_entropy,
    validate_density_matrix,
    von_neumann_entropy,
)
from .states import (
    BELL_LABEL_ORDER,
    assemble_copies,
    assemble_product,
    bell_basis_state,
    bell_copies,
    bell_diagonal,
    bell_state,
    bell_vector,
    ghz_state,
)

__version__ = "0.1.0"

# Library convention: records go nowhere unless the application configures
# logging, so CLI output is unchanged.
logging.getLogger("densecode").addHandler(logging.NullHandler())
