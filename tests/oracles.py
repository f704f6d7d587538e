"""Reference implementations that the tests compare densecode against.

None of these runs on a production path; each is the slow, direct route
that a fast one in ``src/`` replaced, kept so that a test can hold the fast
route to it.

- ``holevo`` over an ``EncodingEnsemble``, with ``attaining_ensemble``,
  evaluates chi = S(sum_i p_i out_i) - sum_i p_i S(out_i) member by member
  over all D_A^2 members of the attaining ensemble.  The capacity driver's
  cross-check reads the same chi from a single output through the twirl
  identity (``capacity._crosscheck``); the enumeration is its oracle, and
  the acceptance criteria's independent check of the closed forms.
- ``pauli_kraus`` writes a joint Pauli channel as the full-space Kraus map
  {sqrt(q) V x ... x V} built from dense displacement operators.  It is the
  Kraus-path input that the Weyl-domain kernel and the factored objective are
  compared with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from densecode.capacity import _encode_with_kraus
from densecode.channels import CptpMap, PauliChannelSpec, apply_channel
from densecode.displacement import displacement_op
from densecode.errors import NumericalError, ProbabilityError
from densecode.linalg import (
    SubsystemLayout,
    as_complex_matrix,
    kron_all,
    von_neumann_entropy,
)

ENSEMBLE_PROB_TOL = 1e-10
ENSEMBLE_UNITARY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EncodingEnsemble:
    """(probability, encoder) pairs; encoders are sender-space unitaries or
    CPTP maps on the sender slots."""

    members: tuple[tuple[float, object], ...]

    def __post_init__(self):
        total = sum(p for p, _ in self.members)
        if abs(total - 1.0) > ENSEMBLE_PROB_TOL:
            raise ProbabilityError(f"member probabilities sum to {total!r}")
        checked = []
        for p, enc in self.members:
            if p < 0:
                raise ProbabilityError(f"negative member probability {p!r}")
            if isinstance(enc, CptpMap):
                checked.append((float(p), enc))
                continue
            u = as_complex_matrix(enc, "encoder")
            dev = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
            if dev > ENSEMBLE_UNITARY_TOL:
                raise NumericalError(f"encoder unitary deviates by {dev:.3e}")
            checked.append((float(p), u))
        object.__setattr__(self, "members", tuple(checked))


def holevo(
    ensemble: EncodingEnsemble, channel, rho, layout: SubsystemLayout
) -> float:
    """Holevo quantity chi = S(sum_i p_i out_i) - sum_i p_i S(out_i) in bits.
    An encoder whose operators are not sender_dim x sender_dim raises
    LayoutError."""
    rho = as_complex_matrix(rho, "rho")
    average = np.zeros_like(rho)
    mean_entropy = 0.0
    for p, encoder in ensemble.members:
        if p == 0.0:
            continue
        ks = encoder.kraus if isinstance(encoder, CptpMap) else encoder[None]
        out = apply_channel(channel, _encode_with_kraus(rho, ks, layout), layout)
        average += p * out
        mean_entropy += p * von_neumann_entropy(out)
    return von_neumann_entropy(average) - mean_entropy


def attaining_ensemble(encoder_min, enc_set: np.ndarray) -> EncodingEnsemble:
    """Uniform ensemble of the encoding set, a stack of sender unitaries V_i
    such as ``local_encoding_set``, composed with the minimizer.

    For a unitary U the members are V_i @ U; for a CPTP map the members
    conjugate its output by V_i, Kraus stack V_i @ K.
    """
    p = 1.0 / len(enc_set)
    if isinstance(encoder_min, CptpMap):
        return EncodingEnsemble(tuple((p, CptpMap(v @ encoder_min.kraus))
                                      for v in enc_set))
    u = as_complex_matrix(encoder_min, "encoder")
    return EncodingEnsemble(tuple((p, v @ u) for v in enc_set))


def pauli_kraus(spec: PauliChannelSpec) -> CptpMap:
    """Kraus view {sqrt(q) V x ... x V} on the parties in party order."""
    ops = []
    for idx in np.argwhere(spec.joint > 0.0):
        prob = float(spec.joint[tuple(idx)])
        factors = [
            displacement_op(spec.party_dims[p], int(l) // spec.party_dims[p],
                            int(l) % spec.party_dims[p])
            for p, l in enumerate(idx)
        ]
        ops.append(np.sqrt(prob) * kron_all(factors))
    return CptpMap(ops)
