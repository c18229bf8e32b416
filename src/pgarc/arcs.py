"""Extension candidates of an arc as an integer bitmask.

An arc is a point set with no 3 collinear members.  Its candidates are
the non-member points on no secant (line through 2 members), i.e. the
points whose addition preserves the arc property.  Candidate sets are
integer bitmasks, so a completeness test is one comparison with 0.
"""

from __future__ import annotations

from .plane import Plane


def iter_bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def candidate_mask(plane: Plane, members) -> int:
    mem_mask = 0
    for m in members:
        mem_mask |= 1 << m
    return plane.all_points_mask & ~plane.secant_mask(members) & ~mem_mask
