"""Receive status objects (``MPI_Status``)."""

from __future__ import annotations

from dataclasses import dataclass

from .datatypes.datatype import Datatype
from .errors import CommunicatorError

__all__ = ["Status", "ANY_SOURCE", "ANY_TAG", "TAG_UB"]

#: Wildcard source rank (``MPI_ANY_SOURCE``).
ANY_SOURCE = -1
#: Wildcard message tag (``MPI_ANY_TAG``).
ANY_TAG = -1
#: Largest valid message tag (``MPI_TAG_UB``): the C-int ceiling that
#: MPICH and Open MPI report.
TAG_UB = 2**31 - 1


@dataclass(frozen=True)
class Status:
    """Completed-receive metadata."""

    source: int
    tag: int
    nbytes: int

    def get_count(self, datatype: Datatype) -> int:
        """Number of whole ``datatype`` elements received
        (``MPI_Get_count``); raises if the byte count is not a whole
        multiple, mirroring ``MPI_UNDEFINED``."""
        if datatype.size == 0:
            return 0
        if self.nbytes % datatype.size:
            raise CommunicatorError(
                f"received {self.nbytes} bytes: not a whole number of "
                f"{datatype.name} elements ({datatype.size} bytes each)"
            )
        return self.nbytes // datatype.size

    Get_count = get_count
