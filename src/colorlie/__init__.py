"""Exact computations with restricted Lie color algebras over finite fields.

The layers, bottom to top:

* :mod:`colorlie.field` / :mod:`colorlie.linalg` -- F_q arithmetic on integer
  codes and dense matrices over it.
* :mod:`colorlie.groups` -- grading groups and bicharacters.
* :mod:`colorlie.algebra` -- color algebras, restricted structure, gl(V)
  constructors, character standardization.
* :mod:`colorlie.envelope` -- chi-reduced enveloping algebras: PBW bases,
  normal-form arithmetic, Frobenius form, Harish-Chandra projection.
* :mod:`colorlie.oracle` -- the brute-force simplicity oracle (singular
  vectors, lowering-word spans, spin-up), many modules judged in one pass.
* :mod:`colorlie.repmod` -- induced modules, the closed-form and
  Harish-Chandra simplicity routes, parameter sweeps; it imports the
  oracle's ``is_simple`` and ``singular_vectors``.
* :mod:`colorlie.cli` -- the ``colorlie`` command (imported on its own, not
  by the package, so ``python -m colorlie.cli`` runs it cleanly).
"""

from .field import Field
from .linalg import Mat, Echelon
from .groups import (GradedGroup, Bicharacter, trivial_bicharacter,
                     super_bicharacter)
from .algebra import (ColorAlgebra, TriangularData, make_gl, validate_algebra,
                      jordan_decompose, standardize_character, CharacterStd,
                      levi_data, subalgebra)
from .envelope import (ReducedAlgebraSpec, chi_reduce, NormalElement, nf_one,
                       nf_letter, nf_monomial, nf_from_element, nf_product,
                       central_check, uchi_basis, frobenius_gram,
                       harish_chandra, monomial_degree)
from .qbinom import quantum_binomial, quantum_integer
from .oracle import singular_vectors, is_simple
from .repmod import (PowerClass, PCharacter, pchar_zero, pchar_from_standard,
                     root_datum, FPTriple, fp_order, weight_tuple,
                     admissible_lambdas, BaseModule, verma_build,
                     GradedModule, module_from_wire, f_closed, f_via_hc,
                     extract_kappa, unipotent_socle, regular_module,
                     simple_quotient, module_isomorphism, sweep_rows)
from .errors import (ColorLieError, NonPrime, BadCharacteristic,
                     ReducibleModulus, NeedsExtension, ZeroEntry,
                     EmptyAlgebra, NoMatrixRealization, NotZeroDegree,
                     NotStandard, MixedSpecs, TooLarge, NotWeightZero,
                     NoOrderingFound, BadWeight, ChiOnDelta, ChiOnNplus,
                     DoubledRoot, OddElement, NotUnipotent, NotScalar,
                     InvariantError, SpecError)

__version__ = "0.1.0"

__all__ = [
    "Field", "Mat", "Echelon",
    "GradedGroup", "Bicharacter",
    "trivial_bicharacter", "super_bicharacter",
    "ColorAlgebra", "TriangularData", "make_gl", "validate_algebra",
    "jordan_decompose", "standardize_character", "CharacterStd",
    "levi_data", "subalgebra",
    "ReducedAlgebraSpec", "chi_reduce", "NormalElement", "nf_one",
    "nf_letter", "nf_monomial", "nf_from_element", "nf_product",
    "central_check", "uchi_basis", "frobenius_gram", "harish_chandra",
    "monomial_degree", "quantum_binomial", "quantum_integer",
    "PowerClass", "PCharacter", "pchar_zero", "pchar_from_standard",
    "root_datum", "FPTriple", "fp_order", "weight_tuple",
    "admissible_lambdas", "BaseModule", "verma_build", "GradedModule",
    "module_from_wire", "singular_vectors", "is_simple", "f_closed",
    "f_via_hc", "extract_kappa", "unipotent_socle", "regular_module",
    "simple_quotient", "module_isomorphism", "sweep_rows",
    "ColorLieError", "NonPrime", "BadCharacteristic", "ReducibleModulus",
    "NeedsExtension", "ZeroEntry", "EmptyAlgebra", "NoMatrixRealization",
    "NotZeroDegree", "NotStandard", "MixedSpecs", "TooLarge",
    "NotWeightZero", "NoOrderingFound", "BadWeight", "ChiOnDelta",
    "ChiOnNplus", "DoubledRoot", "OddElement", "NotUnipotent", "NotScalar",
    "InvariantError", "SpecError",
]
