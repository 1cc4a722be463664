"""Trapped-ion Jaynes-Cummings dynamics on truncated Fock spaces.

Builds the driven ion-chain Hamiltonian, the unitary chain that balances the
coupling against laser intensity, and exact / approximate propagators, and
quantifies the approximations against an exact matrix-exponential oracle.
"""

from .chain import ChainModel, LaserDrive, equilibrium_positions, lamb_dicke_matrix, normal_modes
from .config import ConfigError, ExperimentConfig, parse_config, serialize_config
from .fock import (
    HilbertConfig,
    NumericalValidationError,
    OperatorMatrix,
    basis_state,
    coherent_state,
    guarded_infidelity,
)
from .hamiltonians import (
    IntermediateParts,
    ModelSpec,
    balanced_hamiltonian,
    resonance_offsets,
    rotating_frame_hamiltonian,
)
from .propagators import (
    evolve_states,
    exact_propagator,
    pipeline_propagator,
    rwa_jc_propagator,
    rwa_jc_propagator_multi,
    standard_rwa_propagator,
    turn_on_propagator,
)
from .reference import (
    balanced_transform_closed,
    conditional_displacement,
    displacement,
    expm_unitary,
    jc_interaction,
    ladder,
    linearizing_transform,
    mixing_rotation,
    spin_op,
    standard_rwa_generator,
)
from .transforms import BalancedParams, NoDriveError, balanced_params, balanced_transform

__version__ = "0.1.0"
