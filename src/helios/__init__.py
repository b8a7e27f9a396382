"""Near-field recovery from the scattering amplitude.

Evaluates rescaled spherical Hankel functions through their exact finite
sum and a vectorized recurrence table checked against it, certifies
explicit magnitude envelopes, computes the stability budget (Lipschitz /
Hoelder / a-priori split) of far-to-near field continuation, and solves
the inverse obstacle problem linearized about a sphere.
"""

from .bounds import (
    EnvelopeReport,
    EnvelopeTable,
    lemma_global_bound,
    lemma_global_deriv_bound,
    lemma_low_bound,
    lemma_low_deriv_bound,
)
from .errors import CapacityError, DomainError, ResolutionError
from .field import (
    SpectralSplit,
    low_pass,
    near_field_trace,
    norm_identity_check,
    sobolev_norm,
    sobolev_norm_sq,
    split_spectrum,
)
from .harmonics import (
    CoefficientSpectrum,
    SphereGrid,
    aggregate,
    analyze,
    synthesize,
)
from .lab import DecayProfile, SweepRow, ksweep, make_real_perturbation, make_spectrum, perturb
from .obstacle import (
    BoundaryPerturbation,
    IncidentWave,
    forward_hard,
    forward_soft,
    incident_trace,
    invert_hard,
    invert_soft,
)
from .specfun import (
    HankelValue,
    hankel_magnitude_oracle,
    hankel_table,
    hankel_value,
)
from .stability import (
    RhsTerms,
    StabilityReport,
    rhs_T1,
    rhs_T1der,
    rhs_T2,
    verify_theorem,
)

__version__ = "0.1.0"
