"""Exception hierarchy.

Every error carries a short machine-parsable ``code`` next to the human
message; the CLI prints both.
"""


class QschemeError(Exception):
    code = "error"


# -- exact arithmetic -------------------------------------------------------

class MismatchedOrder(QschemeError):
    code = "mismatched-order"


class NotAUnit(QschemeError):
    code = "not-a-unit"


class NotDivisible(QschemeError):
    code = "not-divisible"


# -- module homomorphisms ---------------------------------------------------

class ShapeMismatch(QschemeError):
    code = "shape-mismatch"


class NotEndomorphism(QschemeError):
    code = "not-endomorphism"


class NotLinearOverBase(QschemeError):
    code = "not-linear-over-base"


class NotInvertible(QschemeError):
    code = "not-invertible"


# -- quiver data model and parser -------------------------------------------

class QuiverSyntaxError(QschemeError):
    code = "syntax"

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class DuplicateName(QschemeError):
    code = "duplicate-name"


class UnknownVertex(QschemeError):
    code = "unknown-vertex"


class EdgeLoopForbidden(QschemeError):
    code = "edge-loop"


class LengthMismatch(QschemeError):
    code = "length-mismatch"


class NegativeDimension(QschemeError):
    code = "negative-dimension"


# -- orbits and reflection functors ------------------------------------------

class NotInOrbit(QschemeError):
    code = "not-in-orbit"


class EmptyLevelSet(QschemeError):
    code = "empty-level-set"


class NotInLevelSet(QschemeError):
    code = "not-in-level-set"


class InvalidLeg(QschemeError):
    code = "invalid-leg"


# -- CLI and JSON input --------------------------------------------------------

class UnknownSuite(QschemeError):
    code = "unknown-suite"


class MalformedInput(QschemeError):
    code = "malformed-input"
