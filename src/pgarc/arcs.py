"""Extension candidates of an arc as an integer bitmask.

An arc is a point set with no 3 collinear members.  Its candidates are
the non-member points on no secant (line through 2 members), i.e. the
points whose addition preserves the arc property.  Candidate sets are
integer bitmasks, so a completeness test is one comparison with 0.
candidate_mask lives in the geometry layer (plane), where the
certificate verifier reads it too; collineation (the children of a
parent) and search (the extension) import it from here.
"""

from __future__ import annotations

from .plane import candidate_mask


def iter_bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b
