"""Exception hierarchy, and ``Checks``, the one record of pass/fail verdicts.

Every error carries a short machine-parsable ``code`` next to the human
message; the CLI prints both.  The record lives here because every module
that makes verdicts already imports this one, so no command loads more.
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


# -- verdicts -----------------------------------------------------------------

class Checks:
    """Named, ordered record of exact verdicts ``(case, ok, seed, detail)``.

    ``seed`` replays a randomized case and ``detail`` explains a failure; the
    summary shows either only for a failure, and only when it is set.
    """

    __slots__ = ("name", "verdicts")

    def __init__(self, name):
        self.name = name
        self.verdicts = []

    def record(self, ok, case, seed=None, detail=""):
        self.verdicts.append((case, ok, seed, detail))

    def merge(self, other):
        self.verdicts.extend(other.verdicts)

    @property
    def checks(self) -> int:
        return len(self.verdicts)

    @property
    def failures(self) -> list:
        return [{"case": case, "seed": seed, "detail": detail}
                for case, ok, seed, detail in self.verdicts if not ok]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _, _ in self.verdicts)

    def to_obj(self):
        return {"checks": self.checks, "failures": self.failures}

    def summary(self) -> str:
        """``<name>: <n> checks, <f> failures [ok|FAIL]``, then one line per
        failure; the further lines of a multi-line detail (a nested record's
        summary) are indented under their failure's line."""
        failures = self.failures
        lines = [f"{self.name}: {self.checks} checks, {len(failures)} failures "
                 f"[{'FAIL' if failures else 'ok'}]"]
        for f in failures:
            seed = "" if f["seed"] is None else f" (seed {f['seed']})"
            detail = f": {f['detail']}".replace("\n", "\n    ") if f["detail"] else ""
            lines.append(f"  FAIL {f['case']}{seed}{detail}")
        return "\n".join(lines)
