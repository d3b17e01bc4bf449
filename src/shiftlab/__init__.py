"""Exact shift systems and q-characters for multiplet W-(super)algebras."""

from .liealg import (
    CapExceededError,
    InvalidTypeError,
    RootSystem,
    SimpleLieType,
    WeylElement,
    build_root_system,
)
from .qseries import FermionKind, GridBoundError, QSeries, eta_inv_pow, fermion_char
from .shift import (
    InvalidCaseError,
    LambdaParam,
    ShiftCase,
    ShiftReport,
    Variant,
    alcove_inequality,
    canonical_decompose,
    check_strong,
    check_strong_all_words,
    check_strong_alt,
    check_weak,
    condition_report,
    enumerate_lambda,
    is_fixed,
    lambda_from,
    lambda_of_value,
    make_case,
    screening_degree,
    shift_map,
    verify_axioms,
    w0_shift,
    w_act,
)
from .characters import (
    UnsupportedCaseError,
    fock_delta,
    ft_char,
    multiplet_char,
    multiplet_ramond_char,
    multiplet_superchar,
    verma_char_super,
    walg_vacuum_oracle,
    weight_space_char,
)
from .alcove import (
    AffineWeight,
    AffineWeylElt,
    closed_form_y_super,
    dominant_reduce,
    dot_act,
    mu_lambda,
    y_alpha,
    y_sigma,
)

__version__ = "0.1.0"
