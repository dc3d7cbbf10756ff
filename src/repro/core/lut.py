"""First-order look-up-table approximation (paper Sec. 3.1, Eq. 4).

A :class:`LookupTable` holds ``N`` entries ``(s_i, t_i)`` and ``N - 1`` sorted
breakpoints ``d_i``.  Evaluation is a piecewise-linear function:

    LUT(x) = s_1 x + t_1              if x <  d_1
           = s_i x + t_i              if d_{i-1} <= x < d_i
           = s_N x + t_N              if x >= d_{N-1}

which in hardware costs one comparator-driven table read, one multiply and
one add per element (two pipeline cycles in the paper's unit, Table 4).

Two evaluation entry points are exposed:

* ``__call__`` — the reference semantics: the input is converted to float64
  once and a float64 result is returned (what the accuracy experiments use).
* ``evaluate(x, out=None)`` — the fused inference kernel: a single dtype
  check, one segment search, and the multiply-add written into a
  preallocated output buffer.  float32 inputs stay float32 end to end (the
  table parameters are cast per dtype once and cached), which is what the
  vectorized inference engine runs on.  The segment search is O(1) per
  element through a bucket table (:meth:`LookupTable._build_buckets`; an
  equally-spaced grid like the Linear-LUT baseline's always admits one),
  with ``searchsorted`` as the fallback for a geometry that does not.  The
  kernel is a dozen numpy passes; a large tensor takes them block by block
  (``_BLOCK_ELEMENTS``) through one per-call scratch set, so the passes
  meet in L2 instead of each streaming a fresh tensor-sized temporary
  through memory.  The op order per element is the same whatever the
  blocking, and so are the bits.

``evaluate(x, out=None)`` is the one contract every scalar table meets: the
FP16 / INT32 tables of :mod:`repro.core.quantization` expose it too, and the
composites in :mod:`repro.core.approximators` read every table through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

__all__ = [
    "LookupTable",
    "lut_evaluation_stats",
    "reset_lut_evaluation_stats",
]

#: dtypes the fused kernel evaluates natively (anything else is promoted to
#: float64, matching the reference semantics).
_NATIVE_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: Counters for the fused kernels' input handling.  Strided/transposed inputs
#: are legal but force one explicit contiguous copy before the gather loop
#: (the per-element table reads would otherwise walk memory column-wise);
#: the counters make that copy observable instead of silent, so a hot path
#: feeding views can be caught in profiling/tests.
_eval_stats: Dict[str, int] = {
    "evaluations": 0,
    "noncontiguous_inputs": 0,
    "contiguous_copies": 0,
}


def lut_evaluation_stats() -> Dict[str, int]:
    """Snapshot of the fused-kernel input counters (see ``_eval_stats``)."""
    return dict(_eval_stats)


def reset_lut_evaluation_stats() -> None:
    """Zero the fused-kernel input counters (test/profiling hook)."""
    for key in _eval_stats:
        _eval_stats[key] = 0


def _counted_contiguous(x: np.ndarray) -> np.ndarray:
    """``x`` C-contiguous — an explicit, counted copy when it is not.

    The single choke point every kernel entry path (numpy gather loop and
    compiled C kernels alike) routes non-contiguous inputs through.
    """
    if x.flags.c_contiguous:
        return x
    _eval_stats["noncontiguous_inputs"] += 1
    _eval_stats["contiguous_copies"] += 1
    return np.ascontiguousarray(x)


#: Elements per evaluation block.  A float32 block and its scratch set (two
#: float, two intp and one bool buffer) are ~0.9 MB, a float64 block ~1.3 MB:
#: inside a 2 MB L2 with room for the block's input and output lines.  Swept
#: on 384x3072, float32 / float64 ms: 8k 8.8 / 9.8 and 16k 7.4 / 8.7 (more
#: per-block call overhead), 32k 6.5 / 8.2, 64k 6.6 / 9.3 and 128k 7.4 / 10.1
#: (the scratch spills), one block 10.4 / 14.2.
_BLOCK_ELEMENTS = 32_768


def _block_scratch(size: int, dtype: np.dtype, bucketed: bool) -> Tuple[np.ndarray, ...]:
    """Flat scratch for blocks of up to ``size`` elements of ``dtype``.

    ``(product, gathered)`` floats for the multiply-add, plus — for a table
    with a bucket decomposition — ``(bucket, idx)`` intp and one bool buffer
    for the segment search (``_index`` reuses the two floats as well).
    """
    floats = (np.empty(size, dtype=dtype), np.empty(size, dtype=dtype))
    if not bucketed:
        return floats
    return floats + (
        np.empty(size, dtype=np.intp),
        np.empty(size, dtype=np.intp),
        np.empty(size, dtype=np.bool_),
    )


def _shaped(scratch: Tuple[np.ndarray, ...], block: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Views of the flat ``scratch`` buffers in the shape of ``block``."""
    return tuple(buf[: block.size].reshape(block.shape) for buf in scratch)


def _validate_out(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """Shared ``out=`` contract of the fused kernels: match ``x`` or be None."""
    if out is None:
        return np.empty_like(x)
    if out.shape != x.shape or out.dtype != x.dtype:
        raise ValueError(
            f"out must match the input's shape and dtype "
            f"({x.shape}, {x.dtype}); got ({out.shape}, {out.dtype})"
        )
    return out


@dataclass
class LookupTable:
    """Piecewise first-order approximation table.

    Attributes
    ----------
    breakpoints:
        Sorted segment boundaries ``d_i`` (length ``N - 1``).
    slopes:
        Per-segment slopes ``s_i`` (length ``N``).
    intercepts:
        Per-segment intercepts ``t_i`` (length ``N``).
    name:
        Optional human-readable tag (e.g. ``"gelu"``); carried through
        precision conversion and serialisation for bookkeeping.
    metadata:
        Free-form provenance (training range, precision, calibration flags).
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray
    name: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.breakpoints = np.asarray(self.breakpoints, dtype=np.float64).ravel()
        self.slopes = np.asarray(self.slopes, dtype=np.float64).ravel()
        self.intercepts = np.asarray(self.intercepts, dtype=np.float64).ravel()
        if self.slopes.size != self.intercepts.size:
            raise ValueError(
                f"slopes ({self.slopes.size}) and intercepts ({self.intercepts.size}) "
                "must have the same length"
            )
        if self.slopes.size < 1:
            raise ValueError("a LookupTable needs at least one segment")
        if self.breakpoints.size != self.slopes.size - 1:
            raise ValueError(
                f"expected {self.slopes.size - 1} breakpoints for {self.slopes.size} "
                f"segments, got {self.breakpoints.size}"
            )
        if self.breakpoints.size > 1 and np.any(np.diff(self.breakpoints) < 0):
            raise ValueError("breakpoints must be sorted in ascending order")
        # Per-dtype parameter casts for the fused kernel, built lazily.  Keyed
        # by dtype; each entry remembers the source arrays it was cast from so
        # rebinding ``slopes``/``intercepts`` (as calibration flows do)
        # invalidates it automatically.  In-place mutation of the parameter
        # arrays is NOT detected — call :meth:`invalidate` afterwards.
        self._param_cache: Dict[np.dtype, Tuple] = {}
        # Lazily-built bucket table for the O(1) segment search (see _index);
        # False means "not buildable for this table, use searchsorted".
        self._buckets: Tuple | bool | None = None

    def invalidate(self) -> None:
        """Drop the derived evaluation caches (per-dtype params, buckets).

        Needed only after mutating ``breakpoints``/``slopes``/``intercepts``
        *in place*; rebinding the attributes invalidates automatically.
        """
        self._param_cache = {}
        self._buckets = None

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    @property
    def num_entries(self) -> int:
        """Number of table entries ``N`` (segments)."""
        return int(self.slopes.size)

    def _params(self, dtype: np.dtype) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Table parameters cast to ``dtype``, cached across calls."""
        if dtype == np.float64:
            return self.breakpoints, self.slopes, self.intercepts
        entry = self._param_cache.get(dtype)
        if entry is not None:
            src_b, src_s, src_t, bp, sl, ic = entry
            if src_b is self.breakpoints and src_s is self.slopes and src_t is self.intercepts:
                return bp, sl, ic
        bp = self.breakpoints.astype(dtype)
        sl = self.slopes.astype(dtype)
        ic = self.intercepts.astype(dtype)
        self._param_cache[dtype] = (self.breakpoints, self.slopes, self.intercepts, bp, sl, ic)
        return bp, sl, ic

    def _build_buckets(self) -> Tuple | bool:
        """Precompute the bucket tables for the O(1) segment search.

        The breakpoint span is divided into ``K`` equal buckets with
        ``bucket_width <= min_gap / 4``.  For each bucket the window spanning
        it plus one bucket of slack on either side then contains at most one
        breakpoint, so every element landing in bucket ``b`` (clipping and
        floating-point rounding included) resolves with a single compare:

            index = base[b] + (x >= threshold[b])

        where ``base[b]`` counts the breakpoints below the window and
        ``threshold[b]`` is the window's lone breakpoint (``+inf`` if none).
        The construction is verified bucket by bucket at build time; tables
        whose geometry doesn't admit it (fewer than 4 segments, degenerate
        span, near-duplicate breakpoints) return ``False`` and keep using
        ``searchsorted``.
        """
        bp = self.breakpoints
        if bp.size < 4:
            return False
        lo, hi = float(bp[0]), float(bp[-1])
        span = hi - lo
        min_gap = float(np.min(np.diff(bp)))
        if not (span > 0 and min_gap > 0):
            return False
        # Near-duplicate breakpoints can push span/min_gap past the float
        # range (ratio = inf), which int(ceil(log2(...))) cannot digest.
        ratio = 4.0 * span / min_gap
        if not np.isfinite(ratio) or ratio > 2.0**31:
            return False
        buckets = 1 << int(np.ceil(np.log2(ratio)))
        if buckets > 8192:
            return False
        width = span / buckets
        window_starts = lo + (np.arange(buckets) - 1.0) * width
        window_ends = lo + (np.arange(buckets) + 2.0) * width
        # intp: the dtype np.take gathers with, so no per-call index cast
        base = np.searchsorted(bp, window_starts, side="left").astype(np.intp)
        upper = np.searchsorted(bp, window_ends, side="right")
        if np.any(upper - base > 1):
            return False
        thresholds = np.where(upper > base, bp[np.minimum(base, bp.size - 1)], np.inf)
        return (self.breakpoints, lo, 1.0 / width, buckets, base, thresholds, {})

    def _bucket_tables(self, dtype: np.dtype) -> Tuple | None:
        """``(lo, inv_width, buckets, base, thresholds)`` for the O(1) search.

        Built lazily, rebuilt when ``breakpoints`` is rebound, thresholds cast
        to ``dtype`` once; ``None`` when the table's geometry admits no
        buckets.  Only the numpy gather path reads them; the compiled
        kernels count breakpoints, which cuts segments identically.
        """
        if self._buckets is None or (
            self._buckets is not False and self._buckets[0] is not self.breakpoints
        ):
            self._buckets = self._build_buckets()
        if self._buckets is False:
            return None
        _, lo, inv_width, buckets, base, thresholds, threshold_cache = self._buckets
        if dtype != np.float64:
            cast = threshold_cache.get(dtype)
            if cast is None:
                cast = threshold_cache[dtype] = thresholds.astype(dtype)
            thresholds = cast
        return lo, inv_width, buckets, base, thresholds

    def _index(
        self,
        x: np.ndarray,
        breakpoints: np.ndarray,
        tables: Tuple | None,
        scratch: Tuple[np.ndarray, ...],
    ) -> np.ndarray:
        """Segment index for one block ``x`` given dtype-matched ``breakpoints``.

        Equivalent to ``np.searchsorted(breakpoints, x, side="right")`` but
        O(1) per element for tables that admit a bucket decomposition
        (``tables``, from :meth:`_bucket_tables`): one multiply, one clip, two
        small-table gathers and one compare replace the per-element binary
        search, which otherwise dominates the fused kernel's runtime on large
        tensors.  Thresholds are compared in the input's dtype, so float32
        inputs see exactly the float32 cut-offs ``searchsorted`` would use.
        The result lives in ``scratch`` (see :func:`_block_scratch`) until the
        next block overwrites it.
        """
        if tables is None:
            return np.searchsorted(breakpoints, x, side="right")
        lo, inv_width, buckets, base, thr = tables
        scaled, threshold, bucket, idx, above = scratch
        np.subtract(x, lo, out=scaled)
        np.multiply(scaled, inv_width, out=scaled)
        np.clip(scaled, 0, buckets - 1, out=scaled)
        with np.errstate(invalid="ignore"):
            np.copyto(bucket, scaled, casting="unsafe")
        # a NaN input casts to INT_MIN; mode="clip" pins it to bucket 0 so the
        # gathers stay in bounds (searchsorted sorts NaN last — garbage either
        # way) and skips the bounds pre-pass and the buffered ``out=`` of the
        # default mode="raise".
        np.take(base, bucket, out=idx, mode="clip")
        np.take(thr, bucket, out=threshold, mode="clip")
        np.greater_equal(x, threshold, out=above)
        return np.add(idx, above, out=idx)

    def segment_index(self, x: np.ndarray) -> np.ndarray:
        """Return the table index selected for each element of ``x``."""
        x = np.asarray(x)
        if x.dtype not in _NATIVE_DTYPES:
            x = x.astype(np.float64)
        tables = self._bucket_tables(x.dtype)
        scratch = _block_scratch(x.size, x.dtype, tables is not None)
        return self._index(x, self._params(x.dtype)[0], tables, _shaped(scratch, x))

    def evaluate(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Fused kernel: one dtype check, one segment search, one multiply-add.

        The result has the (floating) dtype of ``x``; non-float inputs are
        promoted to float64 once.  ``out`` may alias ``x`` — the kernel is
        element-wise — which is how the Softmax/LayerNorm chains reuse their
        input buffers.  Strided/transposed inputs are accepted; they cost one
        explicit contiguous copy, visible in :func:`lut_evaluation_stats`.

        A large tensor is walked in blocks of ``_BLOCK_ELEMENTS`` over one
        scratch set allocated per call (per call, not per table: pool threads
        share tables), so every intermediate stays in L2 and nothing the size
        of ``x`` is allocated but the result.  A small tensor is one block of
        the same body.
        """
        _eval_stats["evaluations"] += 1
        return self._evaluate(x, out)

    def _evaluate(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`evaluate` minus the call counter.

        The composites' row blocks after the first come here, so
        ``lut_evaluation_stats()["evaluations"]`` stays one per logical call.
        """
        x = np.asarray(x)
        if x.dtype not in _NATIVE_DTYPES:
            x = x.astype(np.float64)
        if out is None:
            # Without an output alias the copy is pure win: every gather and
            # the multiply-add then stream memory row-wise.
            x = _counted_contiguous(x)
        elif not x.flags.c_contiguous:
            if np.may_share_memory(x, out):
                # ``out`` aliases (part of) the strided input, so reads must
                # come from the caller's buffer as-is; count the
                # non-contiguous traversal, don't copy behind the alias.
                _eval_stats["noncontiguous_inputs"] += 1
            else:
                x = _counted_contiguous(x)
        breakpoints, slopes, intercepts = self._params(x.dtype)
        tables = self._bucket_tables(x.dtype)
        out = _validate_out(x, out)
        # Blocks are cut from the flat tensor, which needs both ends
        # contiguous, and a block's store must not reach a later block's
        # input: ``out`` is ``x`` itself or shares nothing with it.  Any other
        # overlap is one block, which reads all of ``x`` before its one store.
        blocks = [(x, out)]
        if (
            tables is not None
            and x.size > _BLOCK_ELEMENTS
            and x.flags.c_contiguous
            and out.flags.c_contiguous
            and (out is x or not np.may_share_memory(x, out))
        ):
            flat_x, flat_out, step = x.reshape(-1), out.reshape(-1), _BLOCK_ELEMENTS
            blocks = [
                (flat_x[start : start + step], flat_out[start : start + step])
                for start in range(0, x.size, step)
            ]
        scratch = _block_scratch(blocks[0][0].size, x.dtype, tables is not None)
        for x_block, out_block in blocks:
            shaped = _shaped(scratch, x_block)
            product, gathered = shaped[:2]
            idx = self._index(x_block, breakpoints, tables, shaped)
            # out = s[idx] * x + t[idx]; ``x`` is last read by the multiply,
            # ``out`` written once by the add — safe when they alias.
            np.take(slopes, idx, out=gathered, mode="clip")
            np.multiply(gathered, x_block, out=product)
            np.take(intercepts, idx, out=gathered, mode="clip")
            np.add(product, gathered, out=out_block)
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate Eq. (4); output has the shape of ``x`` and dtype float64."""
        x = np.asarray(x, dtype=np.float64)
        return self.evaluate(x)

    # ------------------------------------------------------------------ #
    # Introspection / serialisation
    # ------------------------------------------------------------------ #
    def segment_edges(self) -> np.ndarray:
        """Segment boundaries including ``-inf`` / ``+inf`` sentinels."""
        return np.concatenate(([-np.inf], self.breakpoints, [np.inf]))

    def to_dict(self) -> Dict[str, object]:
        """Serialise to plain Python containers (JSON-friendly)."""
        return {
            "name": self.name,
            "breakpoints": self.breakpoints.tolist(),
            "slopes": self.slopes.tolist(),
            "intercepts": self.intercepts.tolist(),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LookupTable":
        """Inverse of :meth:`to_dict`."""
        return cls(
            breakpoints=np.asarray(data["breakpoints"], dtype=np.float64),
            slopes=np.asarray(data["slopes"], dtype=np.float64),
            intercepts=np.asarray(data["intercepts"], dtype=np.float64),
            name=str(data.get("name", "")),
            metadata=dict(data.get("metadata", {})),
        )

    def copy(self) -> "LookupTable":
        return type(self)(
            breakpoints=self.breakpoints.copy(),
            slopes=self.slopes.copy(),
            intercepts=self.intercepts.copy(),
            name=self.name,
            metadata=dict(self.metadata),
        )

    def with_metadata(self, **updates: object) -> "LookupTable":
        """Return a copy with ``metadata`` updated by ``updates``."""
        out = self.copy()
        out.metadata.update(updates)
        return out

    def _errors_on_grid(self, function, input_range, num_points: int) -> np.ndarray:
        """|LUT - function| on a dense grid (shared by the error helpers)."""
        grid = np.linspace(
            float(input_range[0]), float(input_range[1]), num_points, dtype=np.float64
        )
        return np.abs(self.evaluate(grid) - np.asarray(function(grid)))

    def max_error(self, function, input_range, num_points: int = 10_000) -> float:
        """Max absolute error against ``function`` on a dense grid."""
        return float(np.max(self._errors_on_grid(function, input_range, num_points)))

    def mean_l1_error(self, function, input_range, num_points: int = 10_000) -> float:
        """Mean absolute error against ``function`` on a dense grid."""
        return float(np.mean(self._errors_on_grid(function, input_range, num_points)))
