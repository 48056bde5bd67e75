"""Structural lowering: any derived datatype → a naive run list.

Lowering walks the constructor tree (``get_envelope`` combiners), not
the flattened runs, so the naive program reflects how the type was
*built*: a vector of struct rows lowers to one run group per row, a
subarray to one run per inner slab, and so on.  The rewrite passes in
:mod:`.passes` then do the canonicalization that the run layer's
``coalesce`` does in one shot — but as separate, individually verified
steps.

Naive expansion is bounded by ``op_limit``: past it, lowering emits the
compact run directly (one :class:`StridedRuns` for a 10^8-element
vector rather than 10^8 one-block runs) through the run layer's
vectorized :func:`replicate`.  The result is byte-identical either way;
only the run granularity the passes see differs.
"""

from __future__ import annotations

from ...errors import DatatypeError
from ..contiguous import ContiguousType
from ..datatype import Datatype, _DupDatatype
from ..indexed import _BaseIndexed
from ..resized import ResizedType
from ..runs import ContigRun, Run, replicate, runs_from_blocks
from ..struct import StructType
from ..subarray import ORDER_C, SubarrayType, _fold_offsets
from ..vector import _BaseVector
from .ops import Program

__all__ = ["LoweringError", "NAIVE_OP_LIMIT", "lower"]

#: Above this many runs, lowering stops enumerating naive per-block
#: runs and emits the compact form directly (the run layer's
#: ``_REPLICATE_FOLD_LIMIT`` idea at naive-program granularity).
NAIVE_OP_LIMIT = 16384


class LoweringError(DatatypeError):
    """The datatype's combiner has no structural lowering rule."""


def lower(dtype: Datatype, count: int = 1, *, op_limit: int = NAIVE_OP_LIMIT) -> Program:
    """Lower ``count`` elements of ``dtype`` to a naive IR program."""
    dtype._check_not_freed()
    if count < 0:
        raise DatatypeError(f"negative count {count}")
    if count == 0 or dtype.size == 0:
        return Program((), source=dtype.name, count=count)
    runs = _replicate_naive(_element_runs(dtype, op_limit), count, dtype.extent, op_limit)
    return Program(tuple(runs), source=dtype.name, count=count)


def _replicate_naive(runs: list[Run], count: int, extent: int, op_limit: int) -> list[Run]:
    """``count`` consecutive elements: the run list shifted by
    ``i * extent`` per element — MPI's ``count > 1`` rule.  Large
    products fold through the run layer's vectorized replication."""
    if not runs or count == 1:
        return list(runs)
    if count * len(runs) <= op_limit:
        return [run.shifted(i * extent) for i in range(count) for run in runs]
    return replicate(runs, count, extent)


def _element_runs(dtype: Datatype, op_limit: int) -> list[Run]:
    """Naive runs of ONE element, offsets relative to the element
    origin."""
    if dtype.size == 0:
        return []
    if isinstance(dtype, _DupDatatype):
        return _element_runs(dtype._base, op_limit)
    if isinstance(dtype, ContiguousType):
        return _replicate_naive(
            _element_runs(dtype.oldtype, op_limit), dtype.count, dtype.oldtype.extent, op_limit
        )
    if isinstance(dtype, _BaseVector):
        return _lower_vector(dtype, op_limit)
    if isinstance(dtype, _BaseIndexed):
        return _lower_indexed(dtype, op_limit)
    if isinstance(dtype, StructType):
        return _lower_struct(dtype, op_limit)
    if isinstance(dtype, SubarrayType):
        return _lower_subarray(dtype, op_limit)
    if isinstance(dtype, ResizedType):
        # Resizing moves the bounds, not the typemap.
        return _element_runs(dtype.oldtype, op_limit)
    if dtype.combiner == "named":
        return [ContigRun(0, dtype.size)]
    raise LoweringError(
        f"{dtype.name}: no lowering rule for combiner {dtype.get_envelope()!r}"
    )


def _lower_vector(dtype: _BaseVector, op_limit: int) -> list[Run]:
    old = dtype.oldtype
    block = _replicate_naive(_element_runs(old, op_limit), dtype.blocklength, old.extent, op_limit)
    # Blocks sit at i * stride_bytes: exactly element replication with
    # the stride as the extent.
    return _replicate_naive(block, dtype.count, dtype.stride_bytes, op_limit)


def _lower_indexed(dtype: _BaseIndexed, op_limit: int) -> list[Run]:
    mask = dtype._lengths > 0
    lengths = dtype._lengths[mask]
    disps = dtype._byte_disps[mask]
    old = dtype.oldtype
    old_runs = _element_runs(old, op_limit)
    dense = len(old_runs) == 1 and isinstance(old_runs[0], ContigRun) and old.extent == old.size
    if dense and lengths.size > op_limit:
        # Compact: one irregular run, vectorized (each block is one
        # contiguous byte range of the dense old type).
        return runs_from_blocks(disps + old_runs[0].offset, lengths * old.size)
    out: list[Run] = []
    for disp, blen in zip(disps.tolist(), lengths.tolist()):
        if len(out) > op_limit:
            # Naive expansion blew the run budget: fall back to the run
            # layer's canonical flattening of the whole element.
            return list(dtype._flatten())
        block = _replicate_naive(old_runs, int(blen), old.extent, op_limit)
        out.extend(run.shifted(int(disp)) for run in block)
    return out


def _lower_struct(dtype: StructType, op_limit: int) -> list[Run]:
    out: list[Run] = []
    for blen, disp, field in zip(dtype.blocklengths, dtype.displacements, dtype.types):
        if blen == 0 or field.size == 0:
            continue
        block = _replicate_naive(_element_runs(field, op_limit), blen, field.extent, op_limit)
        out.extend(run.shifted(disp) for run in block)
    return out


def _lower_subarray(dtype: SubarrayType, op_limit: int) -> list[Run]:
    if any(s == 0 for s in dtype.subsizes) or dtype.oldtype.size == 0:
        return []
    old = dtype.oldtype
    ext = old.extent
    strides = dtype._element_strides()
    ndim = len(dtype.sizes)
    inner = ndim - 1 if dtype.order == ORDER_C else 0
    outer_dims = [d for d in range(ndim) if d != inner]
    iter_dims = outer_dims if dtype.order == ORDER_C else list(reversed(outer_dims))
    inner_start = dtype.starts[inner] * strides[inner] * ext
    inner_runs = _replicate_naive(
        _element_runs(old, op_limit), dtype.subsizes[inner], ext, op_limit
    )
    dim_specs = [(dtype.subsizes[d], strides[d] * ext) for d in iter_dims]
    base = inner_start + sum(dtype.starts[d] * strides[d] * ext for d in iter_dims)
    nouter = 1
    for count, _ in dim_specs:
        nouter *= count
    if nouter * len(inner_runs) > op_limit:
        # Compact: the run layer's flattening already is the canonical
        # form for an oversized subarray.
        return list(dtype._flatten())
    offsets = _fold_offsets(dim_specs) + base
    out: list[Run] = []
    for shift in offsets.tolist():
        out.extend(run.shifted(shift) for run in inner_runs)
    return out
