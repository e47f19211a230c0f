"""Exception types shared by all modules."""


class ParameterError(ValueError):
    """Rejected construction parameters (bad prime, bad degree, bad triple, bad syntax)."""


class InvalidUnitalParameters(ValueError):
    """(alpha, beta) whose discriminant 4*N(alpha) + (conj(beta)-beta)^2 is a square in GF(q)."""

    def __init__(self, message, discriminant):
        super().__init__(message)
        self.discriminant = discriminant


class DegenerateInput(ValueError):
    """Geometric operation called with coincident or otherwise degenerate arguments."""


class DegenerateConfiguration(ValueError):
    """Point configuration that does not pin down a unique conic (nullity > 1)."""


class StructuralViolation(RuntimeError):
    """A constructed point set fails the unital axiom; signals a construction bug.

    Everything downstream assumes every line meets the unital in 1 or q+1
    points, so this stops the work on that set instead of producing garbage
    censuses; a sweep records it as the tuple's ``fail`` record.
    """


class TheoremViolation(RuntimeError):
    """An exhaustively checked structural claim failed; this is a test-failure signal."""


class InternalConsistencyError(RuntimeError):
    """A closed form disagreed with the data it describes: canonical feet
    off the unital or unequal to the brute-force feet, a foot's r outside
    GF(q), or the GF(q)-coordinate quadratic system unequal to a trace
    class.  Signals a formula bug; a sweep records it as the tuple's
    ``fail`` record."""
