"""Exception hierarchy.

Input-side problems (bad files, bad labels, unsupported constructions,
degree overflows) are LrhInputError and map to CLI exit code 2.
LrhInternalError marks conditions that should be unreachable (rewriting
that cycles or lengthens a word, pipeline steps returning verdicts the
mathematics rules out) and maps to exit code 3.  Mathematical verdicts --
a failed axiom check, an infeasible system -- are never exceptions; they
are reported.
"""


class LrhError(Exception):
    pass


class LrhInputError(LrhError):
    pass


class FieldMismatchError(LrhInputError):
    """Operands or literals belong to different fields."""


class AlgebraMismatchError(LrhInputError):
    """Elements of different algebras were combined."""


class UnsupportedInputError(LrhInputError):
    """Input outside the supported fragment (non-monomial relation, ...)."""


class InfiniteDimensionalError(UnsupportedInputError):
    """Monomial quotient has infinite dimension; names the bad variable."""

    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(
            f"quotient is infinite-dimensional: variable '{variable}' has no "
            f"pure-power relation"
        )


class ConstructionRefusedError(LrhInputError):
    """A validated constructor refused its input; carries the verdict."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class DegreeOverflowError(LrhInputError):
    """A product would exceed the truncation degree; truncating silently
    would make downstream verdicts unsound, so we refuse."""


class ProblemFileError(LrhInputError):
    """Problem file failed to parse or validate; carries location/label."""


class LrhInternalError(LrhError):
    pass


class RewriteBudgetError(LrhInternalError):
    """Rewriting exceeded its step budget of one rewrite per word: a rule
    led back to a word still being reduced, or to a longer word.  The rule
    shapes rule both out, so this should be unreachable."""


class PipelineError(LrhInternalError):
    """A pipeline step returned an unexpected verdict."""

    def __init__(self, step: str, message: str):
        self.step = step
        super().__init__(f"pipeline step '{step}' diverged: {message}")
