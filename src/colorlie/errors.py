"""Error hierarchy shared by every layer.

Each class carries a stable machine-readable ``code`` so the CLI can emit
structured JSON errors without string matching.
"""


class ColorLieError(Exception):
    code = "error"

    def __init__(self, message="", **detail):
        super().__init__(message or self.__doc__ or self.code)
        self.detail = detail


class NonPrime(ColorLieError):
    code = "non_prime"


class BadCharacteristic(ColorLieError):
    code = "bad_characteristic"


class ReducibleModulus(ColorLieError):
    code = "reducible_modulus"


class NeedsExtension(ColorLieError):
    """Raised when a computation needs a splitting field of degree > 1."""

    code = "needs_extension"

    def __init__(self, degree, message=""):
        super().__init__(message or "field extension of degree %d required" % degree,
                         degree=degree)
        self.degree = degree


class ZeroEntry(ColorLieError):
    code = "zero_entry"


class EmptyAlgebra(ColorLieError):
    code = "empty_algebra"


class NoMatrixRealization(ColorLieError):
    code = "no_matrix_realization"


class NotZeroDegree(ColorLieError):
    code = "not_zero_degree"


class NotStandard(ColorLieError):
    code = "not_standard"


class MixedSpecs(ColorLieError):
    code = "mixed_specs"


class TooLarge(ColorLieError):
    code = "too_large"


class NotWeightZero(ColorLieError):
    code = "not_weight_zero"


class NoOrderingFound(ColorLieError):
    code = "no_ordering_found"


class BadWeight(ColorLieError):
    code = "bad_weight"


class ChiOnDelta(ColorLieError):
    code = "chi_on_delta"


class ChiOnNplus(ColorLieError):
    code = "chi_on_nplus"


class DoubledRoot(ColorLieError):
    code = "doubled_root"


class OddElement(ColorLieError):
    code = "odd_element"


class NotUnipotent(ColorLieError):
    code = "not_unipotent"


class NotScalar(ColorLieError):
    """The p-power operator of a decomposable module is not a scalar."""

    code = "not_scalar"


class InvariantError(ColorLieError):
    """An internal invariant failed: a fault in colorlie, not in its input."""

    code = "invariant_error"


class SpecError(ColorLieError):
    """Malformed input file or CLI argument."""

    code = "spec_error"
