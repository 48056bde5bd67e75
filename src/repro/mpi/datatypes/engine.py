"""The pack/unpack engine: real byte movement through any datatype.

Operates on raw ``uint8`` numpy arrays.  Communication, ``MPI_Pack``,
one-sided transfers, and the manual-copy benchmark scheme all funnel
through these two functions, so datatype correctness is tested in one
place.

These are thin wrappers over the checked
:meth:`~repro.mpi.datatypes.plan.TransferPlan.pack_into` /
:meth:`~repro.mpi.datatypes.plan.TransferPlan.unpack_from` — callers
that move the same ``(datatype, count)`` repeatedly pass their cached
plan (or let :func:`~repro.mpi.datatypes.plan.plan_for` fetch it) and
skip the re-flattening entirely.
"""

from __future__ import annotations

import numpy as np

from .datatype import Datatype
from .plan import TransferPlan, plan_for

__all__ = ["pack_bytes", "unpack_bytes", "check_fits"]


def check_fits(dtype: Datatype, count: int, buf_bytes: int, name: str) -> None:
    """Validate that ``count`` elements of ``dtype`` fit inside a buffer
    of ``buf_bytes`` bytes (checking true bounds, not just size)."""
    plan_for(dtype, count).check_fits(buf_bytes, name)


def pack_bytes(
    src: np.ndarray,
    dtype: Datatype,
    count: int,
    dst: np.ndarray,
    dst_offset: int = 0,
    *,
    plan: TransferPlan | None = None,
) -> int:
    """Gather ``count`` elements of ``dtype`` from ``src`` into the
    contiguous region of ``dst`` starting at ``dst_offset``.

    Returns the number of bytes written (``dtype.size * count``).
    """
    if plan is None:
        plan = plan_for(dtype, count)
    return plan.pack_into(src, dst, dst_offset)


def unpack_bytes(
    src: np.ndarray,
    src_offset: int,
    dst: np.ndarray,
    dtype: Datatype,
    count: int,
    *,
    plan: TransferPlan | None = None,
) -> int:
    """Scatter packed bytes from ``src`` (starting at ``src_offset``)
    into ``count`` elements of ``dtype`` inside ``dst``.

    Returns the number of bytes consumed.
    """
    if plan is None:
        plan = plan_for(dtype, count)
    return plan.unpack_from(src, src_offset, dst)
