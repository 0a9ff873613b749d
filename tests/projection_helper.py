"""Both projection stacks of a matrix stack, for tests that compare them."""
from orthoflow.matgeom import projection_factors


def both_projections(mats):
    """(plus, minus, gain, singular, det) of a stack (..., n, n).

    plus and minus are the all-plus and all-minus assemblies of one
    projection_factors pass: the nearest elements of SO(n) and SO-(n).
    """
    f = projection_factors(mats)
    return f.assemble(True), f.assemble(False), f.gain, f.singular, f.det
