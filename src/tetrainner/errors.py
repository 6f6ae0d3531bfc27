"""Exception hierarchy.

Every domain error derives from TetraError.  ``cli_exit_code`` feeds the
command line front end: 2 for malformed input, 3 for violated
preconditions, 4 for numerical failures discovered mid-computation.
"""


class TetraError(Exception):
    cli_exit_code = 3


class MalformedInput(TetraError):
    cli_exit_code = 2


# -- polynomial layer --------------------------------------------------------

class DegreeExceedsReflectionIndex(TetraError):
    pass


class ZeroPolynomialHasAllRoots(TetraError):
    pass


class NonFiniteCoefficient(TetraError):
    cli_exit_code = 4


# -- pointwise geometry ------------------------------------------------------

class PsiPole(TetraError):
    pass


# -- spectral factorization --------------------------------------------------

class NotTwoNSymmetric(TetraError):
    pass


class NotNonnegativeOnCircle(TetraError):
    cli_exit_code = 4


class OddCircleRootOrder(TetraError):
    cli_exit_code = 4


# -- tetra-inner functions ---------------------------------------------------

class ValidationError(TetraError):
    """One or more representation conditions failed.

    ``violations`` is a list of (code, detail) pairs; codes are DegreeBound,
    DVanishesInDisc, ReflectionMismatch and ModulusDomination.
    """

    cli_exit_code = 4

    def __init__(self, violations):
        self.violations = list(violations)
        summary = "; ".join(f"{code}: {detail}" for code, detail in self.violations)
        super().__init__(summary or "validation failed")


class DenominatorVanishes(TetraError):
    cli_exit_code = 4


class RoyalVarietyFunction(TetraError):
    pass


class InvalidSuperficialSpec(TetraError):
    pass


class UndefinedOmegaOrK(TetraError):
    pass


# -- construction pipeline ---------------------------------------------------

class InvalidConstructionSpec(TetraError):
    pass


class NodeOutsideClosedDisc(TetraError):
    pass


class NodeZeroCollision(TetraError):
    pass


class ConstructionInconsistent(TetraError):
    cli_exit_code = 4


class DegenerateZeroComponent(TetraError):
    pass


# -- convexity and extremality -----------------------------------------------

class ThirdComponentMismatch(TetraError):
    pass


class CircleNodesPresent(TetraError):
    pass


class NumericalSupAtOne(TetraError):
    cli_exit_code = 4


class ExtremalityNotDisproved(TetraError):
    pass
