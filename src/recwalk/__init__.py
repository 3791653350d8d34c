"""Random walks whose recurrence behaviour depends on the starting point.

Exact sparse push-forwards, seeded Monte Carlo ensembles, first-return
laws with certified truncation, stable-law local-limit checks, and a
branched space on which the walk is recurrent, transient, or neither,
depending on where it starts.
"""

from .branched_walk import (
    ClassificationReport,
    ExcursionShiftLaw,
    GreenSumEstimate,
    LdpFit,
    absorption_probabilities,
    classify_point,
    classify_standard_points,
    cross_method_gap,
    excursion_shift_law,
    first_term_exact,
    large_deviation_check,
    shift_sum_tail_exact,
    shifted_green_sum,
)
from .engine import (
    ReturnObservables,
    SparseDist,
    Trajectory,
    observe_returns,
    push_forward,
    return_prob_estimate,
    sample_path,
    wilson_interval,
)
from .finite_chain import (
    EquivalenceReport,
    FiniteChain,
    expected_visits,
    first_return_probability,
    green_partial_sums,
    verify_equivalences,
    visits_at_least,
)
from .return_laws import (
    ReturnPositionLaw,
    ReturnTimeLaw,
    TailExponentFit,
    TailFunctional,
    first_return_law,
    first_return_prob_exact,
    fit_tail_exponent,
    return_position_law,
    survival,
    tail_functional,
    tail_limit,
)
from .rng import DEFAULT_SEED, stream
from .spaces import (
    BranchedState,
    Generator,
    Inlet,
    Lattice,
    StepMeasure,
    Tail,
    ball,
    branched_apply,
    diagonal_apply,
    line_apply,
    standard_points,
    state_id,
    uniform_diagonal,
    uniform_five,
)
from .stable_laws import (
    DoAReport,
    LatticeLaw,
    LLTError,
    StableTarget,
    cauchy_density,
    doa_check,
    gaussian_density,
    lll_error,
    lower_bound_check,
    self_convolve,
)

__version__ = "0.1.0"
