"""Exact-arithmetic workbench for matrix-register automata.

Vector automata, homing vector automata, multiplicative-register
machines, generalized finite automata, matrix-monoid machines, and
blind counter machines share one exact-rational semantics here,
together with verified machine-to-machine transformation passes,
string-separation synthesizers, and bounded brute-force language
checking.
"""

from .exact import (
    Matrix,
    Rational,
    RowVector,
    common_denominator_scalar,
    inverse,
    mat_mul,
    tensor,
    tensor_vec,
    vec_mat_mul,
)
from .machines import (
    Configuration,
    MachineSpec,
    RunResult,
    SearchBudget,
    TransitionRule,
    accepts,
    extendedfa_embed,
    gfa_value,
    run_deterministic,
    run_nondeterministic,
    stateless,
    validate,
)

__all__ = [
    "Configuration",
    "MachineSpec",
    "Matrix",
    "Rational",
    "RowVector",
    "RunResult",
    "SearchBudget",
    "TransitionRule",
    "accepts",
    "common_denominator_scalar",
    "extendedfa_embed",
    "gfa_value",
    "inverse",
    "mat_mul",
    "run_deterministic",
    "run_nondeterministic",
    "stateless",
    "tensor",
    "tensor_vec",
    "validate",
    "vec_mat_mul",
]

__version__ = "0.1.0"
