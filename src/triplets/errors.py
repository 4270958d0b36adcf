"""Error types shared across the package."""


class TripletError(ValueError):
    """A (B, H, C) candidate fails one of the defining clauses.

    `clause` names the failed clause: one of "interval", "endpoints",
    "count", "balanced_BH", "balanced_BC", "balanced_HC", or "record" for a
    JSON record that is not an object with an integer n and integer lists
    B, H, C.
    """

    def __init__(self, clause, message):
        self.clause = clause
        super().__init__("%s: %s" % (clause, message))


class ConsistencyError(Exception):
    """An internal cross-check failed (a bug or a genuine counterexample)."""


class DegenerateSystem(Exception):
    """The equation system of a triplet does not have a 1-dim nullspace."""

    def __init__(self, triplet, message):
        self.triplet = triplet
        super().__init__(message)


class Overdetermined(DegenerateSystem):
    def __init__(self, triplet):
        super().__init__(triplet, "equation system has no nonzero solution: %r" % (triplet,))


class Underdetermined(DegenerateSystem):
    def __init__(self, triplet, dim):
        self.dim = dim
        super().__init__(triplet, "solution space has dimension %d: %r" % (dim, triplet))
