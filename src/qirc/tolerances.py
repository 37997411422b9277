"""Shared numerical tolerances.

Every threshold used for validation or testing lives here so that the
library, the claim checks, and the test suite agree on a single value.
"""

EPS_PSD = 1e-10        # eigenvalue clipping window for positive semidefiniteness
EPS_HERM = 1e-10       # Hermiticity residual (Frobenius, relative to matrix norm)
EPS_TRACE = 1e-10      # unit-trace residual of a density matrix
EPS_UNITARY = 1e-10    # ||U†U - I|| (Frobenius) of a unitary
EPS_COMMUTANT = 1e-10  # commutator residual of a commutant sample, relative
EPS_OPT = 1e-14        # singlet-fraction search stops when no start gains more
EPS_NEWTON = 1e-2      # Newton-step Hessian |eigenvalue| floor, relative to the largest
EPS_CERT = 1e-12       # certified singlet-fraction gap above which the Haar starts run
EPS_CPTP = 1e-10       # Kraus completeness residual (Frobenius)
EPS_QFI = 1e-12        # spectral-pair cutoff in the Fisher information sum
EPS_DEGENERATE = 1e-12  # generator spread floor, relative to its top eigenvalue
EPS_CLUSTER = 1e-9     # equal generator eigenvalues and charge shifts, relative

EPS_BALL = 1e-6        # slack on unit-ball membership
EPS_EXTREMAL = 1e-6    # anchor-point coordinate tolerance
EPS_TRAJ = 1e-6        # per-step drift slack for trajectories and conservation
EPS_Q1_MONO = 1e-6     # allowed q1 increase under channels (optimizer slack)
EPS_Q3_MONO = 1e-8     # allowed q3 increase under channels
EPS_MONO_REPORT = 1e-6  # q2 and norm increases under channels worth reporting
EPS_MI = 1e-8          # mutual-information bound slack
