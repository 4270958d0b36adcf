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
    """The equation system of a triplet has a nullspace of dimension `dim` != 1."""

    def __init__(self, triplet, dim):
        self.triplet = triplet
        self.dim = dim
        super().__init__("equation system has no nonzero solution: %r" % (triplet,) if dim == 0
                         else "solution space has dimension %d: %r" % (dim, triplet))
