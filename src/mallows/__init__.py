"""Two-sided Mallows permutations: samplers, exact laws, and verification.

The package implements the q-weighted random permutation of the integers
(finite, one-sided, and two-sided variants), closed-form evaluation of its
displacement and inversion-count laws, and a statistical verification
harness comparing samplers against formulas and against each other.
"""
from __future__ import annotations

from .dist import (
    DisplacementPmf,
    FddQuery,
    block_p2,
    conditional_l_given_r,
    displacement_pmf,
    fdd_probability,
    joint_rl_pmf,
)
from .errors import (
    DomainError,
    MallowsError,
    NotInjectiveError,
    NotSelfContainedError,
    RejectSupportError,
    TooLargeError,
    UnknownSuiteError,
)
from .perm import (
    PermWindow,
    adjacent_swap_r,
    eliminate_left,
    eliminate_right,
    inversions,
    invert_window,
    truncate,
)
from .qseries import (
    INFINITY,
    QParam,
    q_factorial,
    q_pochhammer,
)
from .samplers import (
    YoungDiagram,
    batch_finite_r,
    batch_finite_words,
    batch_interlacing_windows,
    batch_inversion_position0,
    batch_inversion_windows,
    batch_shuffle_prefixes,
    q_shuffle_prefix,
    sample_finite_mallows,
    sample_two_sided_interlacing,
    sample_two_sided_inversion,
    sample_young_euler,
)
from .streams import GeomStream

__version__ = "0.1.0"

__all__ = [
    "DisplacementPmf",
    "DomainError",
    "FddQuery",
    "GeomStream",
    "INFINITY",
    "MallowsError",
    "NotInjectiveError",
    "NotSelfContainedError",
    "PermWindow",
    "QParam",
    "RejectSupportError",
    "TooLargeError",
    "UnknownSuiteError",
    "YoungDiagram",
    "adjacent_swap_r",
    "batch_finite_r",
    "batch_finite_words",
    "batch_interlacing_windows",
    "batch_inversion_position0",
    "batch_inversion_windows",
    "batch_shuffle_prefixes",
    "block_p2",
    "conditional_l_given_r",
    "displacement_pmf",
    "eliminate_left",
    "eliminate_right",
    "fdd_probability",
    "inversions",
    "invert_window",
    "joint_rl_pmf",
    "q_factorial",
    "q_pochhammer",
    "q_shuffle_prefix",
    "sample_finite_mallows",
    "sample_two_sided_interlacing",
    "sample_two_sided_inversion",
    "sample_young_euler",
    "truncate",
    "__version__",
]
