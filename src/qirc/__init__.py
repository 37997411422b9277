"""Operational resource coordinates for tripartite quantum states.

The library maps a state rho on A ⊗ B ⊗ C to three task-based coordinates,
q1 (teleportation advantage via the maximal singlet fraction of rho_AB),
q2 (quantum transfer capacity of the state-induced A -> C channel), and
q3 (phase-estimation utility of rho_A along a fixed Hermitian generator),
together with the squared norm of the triple. A falsification harness runs
seeded campaigns over the structural claims attached to this geometry:
ball membership, extremal anchors, convexity, monotonicity under channels,
conservation under symmetry-preserving unitaries, and entropy bounds.
"""

__version__ = "0.1.0"

from .channels import (KrausChannel, amplitude_damping, apply, dephasing, depolarizing,
                       random_channel)
from .claims import (CLAIM_IDS, CampaignConfig, ClaimReport, check_convexity,
                     check_entropic_bounds, check_extremals, check_monotonicity,
                     check_conservation, check_qirc_ball, run_check)
from .dynamics import (Trajectory, UnitaryOperator, commuting_local_unitary,
                       evolve, local_product_unitary, sample_commutant_unitary,
                       trajectory)
from .generators import (CoherenceGenerator, default_generator,
                         diagonal_generator, sigma_z_generator)
from .linalg import (HermitianEigen, hermitian_eigen, kron, partial_trace,
                     permute_subsystems, psd_power)
from .resources import (FidelityBreakdown, ProfileConfig, ResourceProfile, profile,
                        profiles, teleportation_fidelity)
from .states import (DensityMatrix, Seed, bell_ac, bell_pair, bell_spectator,
                     classical_correlated, coherent_spectator, compose_product,
                     ghz, gibbs, ginibre_mixed, haar_pure, haar_unitary,
                     max_entangled_ket, maximally_mixed, plus_state, w_state, werner)
