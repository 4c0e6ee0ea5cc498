"""Exact verification kernel for Lie-Rinehart structures: enveloping
algebras by term rewriting, right-extension solvability, and the
antipode obstruction, all over exact coefficient fields."""

from .errors import (
    AlgebraMismatchError,
    ConstructionRefusedError,
    DegreeOverflowError,
    FieldMismatchError,
    InfiniteDimensionalError,
    LrhError,
    LrhInputError,
    LrhInternalError,
    PipelineError,
    ProblemFileError,
    RewriteBudgetError,
    UnsupportedInputError,
)
from .scalars import (
    Field,
    LinearSystem,
    RATIONALS,
    Scalar,
    SolveOutcome,
    solve_linear,
    verify_certificate,
    verify_witness,
)
from .reports import FAIL, FEASIBLE, INFEASIBLE, PASS, VerdictReport
from .finalg import (
    AlgebraElement,
    Character,
    CommAlgebra,
    Derivation,
    algebra_from_constants,
    check_algebra_axioms,
    check_character,
    check_derivation,
    derivation_commutator,
    make_base_field_algebra,
    make_monomial_quotient,
)
from .lierinehart import (
    Anchor,
    LieAlgebra,
    LieRinehartData,
    ModuleAction,
    character_action,
    character_criterion,
    check_anchor_lie_hom,
    check_anchor_r_linear,
    check_leibniz,
    check_lie_algebra,
    check_module_action,
    lie_algebra_from_brackets,
    make_character_module,
    tensor_action,
    validate_lie_rinehart,
)
from .enveloping import (
    Letter,
    NCElement,
    RewriteSystem,
    TruncatedEnvelope,
    build_rewrite_system,
    certify_left_action,
    check_local_confluence,
    enumerate_basis,
    l_letter,
    left_action_on_R,
    left_divide,
    multiply_truncated,
    normal_form,
    r_letter,
    relation_elements,
    verify_divide_certificate,
    verify_divide_witness,
)
from .obstruction import (
    ObstructionReport,
    PartialMap,
    build_and_verify_right_action,
    obstructed_example,
    partial_map_from_witness,
    partial_map_system,
    solve_partial,
    theorem1_pipeline,
    verify_partial,
)
from .problemfile import (
    parse_generator_expression,
    parse_problem,
    parse_problem_text,
    render_problem,
)

__version__ = "0.1.0"
