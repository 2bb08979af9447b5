"""Plain-Python forms of FrequencySet that tests compare the package with."""

from freqalloc.frequencies import FrequencySet, PoolTag


def set_to_pyset(s: FrequencySet) -> set[tuple[int, int]]:
    """Expand to a plain set of (pool rank, index) pairs."""
    return {(p.rank, i) for p, lo, hi in s.bands for i in range(lo, hi)}


def issubset(a: FrequencySet, b: FrequencySet) -> bool:
    return not (a - b)


def from_indices(pool: PoolTag, indices) -> FrequencySet:
    """The set of the given indices of one pool, through the normalizing
    constructor."""
    return FrequencySet((pool, i, i + 1) for i in indices)
