"""Subsets of {0, ..., n-1} as bitmasks."""


def elements(mask):
    """Yield the elements of a bitmask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def nonempty_subsets(mask):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def canonical_key(mask):
    """Sort key putting small sets first, ties broken by numeric value."""
    return (mask.bit_count(), mask)
