"""Exception types shared across the package."""


class LieTripleError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LieTripleError):
    """Operands live in spaces of incompatible dimensions."""


class AlgebraMismatch(LieTripleError):
    """Elements or operators belong to different algebras."""


class NotAssociative(LieTripleError):
    """A multiplication table violates associativity.

    Carries the first failing basis triple (i, j, k).
    """

    def __init__(self, i: int, j: int, k: int):
        self.triple = (i, j, k)
        super().__init__(f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})")


class InvalidBlockStructure(LieTripleError):
    """A product of block basis vectors lands outside the allowed corner."""


class NotUnital(LieTripleError):
    """The operation requires a unital algebra."""


class NotIdempotent(LieTripleError):
    """The supplied element does not satisfy e*e = e."""


class TrivialIdempotent(LieTripleError):
    """The idempotent is 0 or 1; no two-sided block split exists."""


class AnnihilatorConditionsFail(LieTripleError):
    """The generalized matrix algebra fails an annihilating condition."""


class OffDiagonalCenter(LieTripleError):
    """A central element has a nonzero off-diagonal corner.

    Under unitality plus annihilating conditions this cannot happen; seeing
    it means either an internal error or a hypothesis violation.
    """


class NonUniqueEta(LieTripleError):
    """The diagonal-corner correspondence on the center is not single-valued."""


class NotGMA(LieTripleError):
    """The operation needs block structure but got a bare algebra."""


class NotLTC(LieTripleError):
    """The operator is not a Lie triple centralizer; carries a witness."""

    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"operator fails the Lie triple centralizer identity: {witness}")


class NotLTD(LieTripleError):
    """The operator is not a Lie triple derivation; carries a witness."""

    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"operator fails the Lie triple derivation identity: {witness}")


class NotGLTD(LieTripleError):
    """The pair (Lambda, xi) fails the generalized triple-derivation identity; carries a witness."""

    def __init__(self, witness=None):
        self.witness = witness
        super().__init__(f"identity fails at basis triple {witness}")


class HashMismatch(LieTripleError):
    """A stored operator's algebra hash does not match the live algebra."""
