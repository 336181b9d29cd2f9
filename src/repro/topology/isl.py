"""Inter-satellite link (ISL) interconnect patterns.

Paper §3.1: the proposed mega-constellations hint at 4 ISLs per satellite,
and a large body of satellite-networking literature converges on the same
connectivity pattern — two links to the immediate neighbors in the orbit,
two links to satellites in adjacent orbits — forming the mesh recent work
calls "+Grid".  +Grid is Hypatia's default; constellations eschewing ISLs
entirely ("bent pipe", Appendix A) are supported by an empty interconnect.

ISLs are *static* in membership: which satellites are linked never changes
(ISL setup takes tens of seconds, so operators avoid dynamic re-targeting —
paper §3.1).  Only the link lengths change as satellites move.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..constellations.builder import Constellation
from ..orbits.shell import SatelliteIndex

__all__ = ["ISL_BUILDERS", "plus_grid_isls", "no_isls", "single_ring_isls",
           "validate_isl_pairs", "isl_lengths_m"]


def _shell_grid(constellation: Constellation):
    """Per shell: its ``(O, S)`` global-id grid (row = orbit, column =
    in-orbit position)."""
    for shell in constellation.shells:
        offset = constellation.satellite_id(shell.name, SatelliteIndex(0, 0))
        yield offset + np.arange(shell.total_satellites).reshape(
            shell.num_orbits, shell.satellites_per_orbit)


def _unique_links(this: np.ndarray, other: np.ndarray,
                  num_satellites: int) -> np.ndarray:
    """Distinct undirected links ``this[i] -- other[i]`` as sorted
    ``(a, b)`` rows with ``a < b``; self-links dropped."""
    low, high = np.minimum(this, other), np.maximum(this, other)
    keys = np.unique((low * num_satellites + high)[low != high])
    return np.stack([keys // num_satellites, keys % num_satellites],
                    axis=1).astype(np.int64, copy=False)


def plus_grid_isls(constellation: Constellation) -> np.ndarray:
    """The +Grid interconnect: 4 ISLs per satellite, within each shell.

    Each satellite links to its predecessor and successor in the same orbit
    and to the same-slot satellite in the two adjacent orbits (all indices
    wrapping around).  Every undirected link appears exactly once.

    Args:
        constellation: The constellation to wire up.  Multi-shell
            constellations get an independent +Grid per shell (no
            inter-shell ISLs, matching the paper's model).

    Returns:
        (L, 2) int array of global satellite-id pairs with ``a < b`` per
        row, sorted.
    """
    this, other = [], []
    for grid in _shell_grid(constellation):
        # Forward links only; the wrap-around partner emits the reverse.
        this += [grid.ravel(), grid.ravel()]
        other += [np.roll(grid, -1, axis=1).ravel(),
                  np.roll(grid, -1, axis=0).ravel()]
    return _unique_links(np.concatenate(this), np.concatenate(other),
                         constellation.num_satellites)


def single_ring_isls(constellation: Constellation) -> np.ndarray:
    """Intra-orbit-only ISLs: 2 per satellite, no cross-orbit links.

    Not a paper configuration, but a useful ablation: it isolates how much
    of +Grid's path diversity comes from the inter-orbit links.
    """
    grids = list(_shell_grid(constellation))
    return _unique_links(
        np.concatenate([grid.ravel() for grid in grids]),
        np.concatenate([np.roll(grid, -1, axis=1).ravel() for grid in grids]),
        constellation.num_satellites)


def no_isls(constellation: Constellation) -> np.ndarray:
    """The bent-pipe interconnect of Appendix A: no ISLs at all."""
    _ = constellation
    return np.empty((0, 2), dtype=np.int64)


#: The ISL interconnects a network may name: ``LeoNetwork(isl_builder=)``
#: takes one of these keys, and a :class:`repro.sweep.NetworkSpec` carries
#: it across the process boundary.
ISL_BUILDERS: Dict[str, Callable[[Constellation], np.ndarray]] = {
    "plus_grid": plus_grid_isls,
    "single_ring": single_ring_isls,
    "none": no_isls,
}


def validate_isl_pairs(pairs: np.ndarray, num_satellites: int) -> None:
    """Sanity-check an ISL pair array.

    Raises:
        ValueError: On out-of-range ids, self-links, or duplicate links.
    """
    pairs = np.asarray(pairs)
    if pairs.size == 0:
        return
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"ISL pairs must be (L, 2), got {pairs.shape}")
    if pairs.min() < 0 or pairs.max() >= num_satellites:
        raise ValueError("ISL pair references a satellite id out of range")
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise ValueError("ISL pair links a satellite to itself")
    ordered = np.sort(pairs.astype(np.int64), axis=1)
    if len(np.unique(ordered[:, 0] * num_satellites + ordered[:, 1])) \
            != len(pairs):
        raise ValueError("duplicate ISL pairs")


def isl_lengths_m(pairs: np.ndarray,
                  satellite_positions_m: np.ndarray) -> np.ndarray:
    """Length of every ISL given current satellite positions.

    Args:
        pairs: (L, 2) satellite-id pairs.
        satellite_positions_m: (N, 3) positions (any Cartesian frame).

    Returns:
        (L,) link lengths in meters.
    """
    pairs = np.asarray(pairs)
    if pairs.size == 0:
        return np.empty(0)
    delta = (satellite_positions_m[pairs[:, 0]]
             - satellite_positions_m[pairs[:, 1]])
    return np.linalg.norm(delta, axis=1)
