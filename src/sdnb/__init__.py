"""Exact-arithmetic invariants of Galois algebras over Q and self-dual
normal basis decisions, with Hilbert symbols, quadratic form machinery and
2-torsion Brauer classes underneath."""

from .brauer import (
    TRIVIAL,
    BrauerClass,
    add,
    cup,
    equal,
    is_trivial,
    restricts_trivially_to_quadratic,
    splits_in_quadratic,
)
from .exact import (
    BudgetExceededError,
    FactoredRational,
    factor,
    is_prime,
    is_square,
    legendre,
    mult_order,
    mult_order_mod_pm1,
    parse_rational,
    squarefree_part,
)
from .factors import FactorDescriptor, FactorKind, GroupDescriptor, decompose, local_data, parse_group
from .forms import (
    DiagonalForm,
    GramMatrix,
    anisotropy_certificate,
    det_square_class,
    diagonalize,
    hasse_witt,
    isotropic_over_Q,
    isotropic_over_Qp,
    isotropy_witness_ternary,
    quartic_family_form,
    represents,
    signature,
    sum_of_four_squares,
    sum_of_two_squares,
    sum_of_two_squares_over_sqrt2,
    trace_form,
)
from .galois import (
    A4Quartic,
    A5Quadratic,
    CertificateRow,
    CyclicPoly,
    CyclicQuadratic,
    CyclicQuartic,
    D4Quadratic,
    Decision,
    GaloisAlgebraSpec,
    InvariantEntry,
    InvariantReport,
    SplitAlgebra,
    VERDICT_NO,
    VERDICT_UNKNOWN,
    VERDICT_YES,
    c_invariants,
    d_top,
    decide_global,
    decide_local,
    elementary_criterion,
    embedding_obstruction,
    family_trace_form,
    group_of,
    h1_condition,
    invariant_report,
    quartic_family_polynomial,
    spec_from_json,
    spec_to_json,
    trace_forms_isomorphic,
)
from .symbols import REAL, Place, finite, hilbert, hilbert_oracle, place_from_json, support_places

__version__ = "0.1.0"
