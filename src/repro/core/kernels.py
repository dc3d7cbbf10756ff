"""Pluggable compute kernels for the inference engine's hot paths.

A small protocol (:class:`ComputeKernel`) behind which the engine's per-op
inner loops live, with two interchangeable implementations:

* :class:`NumpyKernel` — the reference.  Every method is the *verbatim* op
  sequence the engine ran before the seam existed (extracted from
  ``transformer/layers.py`` and ``core/approximators.py``), so selecting it
  reproduces the pre-seam numerics bit for bit.  Its table-driven operators
  (``lut_eval``, ``lut_gelu`` / ``lut_gelu_bias``, ``lut_softmax``) run that
  op order per L2-sized block — ``LookupTable.evaluate`` over the flat
  tensor, the composites over whole rows — so no intermediate the size of
  the tensor is ever allocated; the bits do not depend on the blocking.
  ``lut_layernorm`` is one block: its working set already sits in L2.
* :class:`NativeKernel` — a compiled fast path.  A small C file
  (``kernels_native.c``) is compiled on first use with whatever C compiler
  the host has (``cc -O3 -march=native -ffp-contract=off``), cached by
  source hash, and loaded through ctypes.  It provides a true
  INT8 x INT8 -> INT32 GEMM (replacing the float64-carrier matmul trick)
  whose tile store dequantises and adds the bias, and fused epilogues —
  bias + GELU-LUT with saturation tails, the softmax front end, bias +
  residual, and the LayerNorm centre/scale/affine tail — each a single pass
  over the tensor instead of numpy's one-pass-per-op sequence.

The int8 GEMM
-------------
``pack_weight_int8`` packs a ``(k, n)`` weight once, in one C pass
(``repro_pack_s8``, which also writes the column sums), into 32-column panels,
each k4-interleaved — ``[panel][k/4][32][4]`` int8, 64-byte aligned, ``k``
zero-padded to a multiple of 64 and ``n`` to a multiple of 32
(:class:`_PackedInt8Weight`).  One k4 group of a panel is two 64-byte
vectors of 16 columns x 4 consecutive ``k``: the operand shape of
``vpdpbusd`` and one row of an AMX B tile.  Three micro-kernels in
``kernels_native.c`` walk that one layout, and the best the host allows is
picked once, when the library loads:

3. ``amx`` — ``TDPBSSD`` on 2x2 tiles (32 rows x one panel per step,
   signed x signed).  Needs ``-march=native`` to define ``__AMX_INT8__`` and
   the OS to grant tile-data permission (``arch_prctl``, asked once).
2. ``vnni`` — AVX512 ``vpdpbusd``: four activation bytes broadcast against
   the vectors of two adjacent panels into a 6 x 64 register tile.
1. ``scalar`` — a portable loop over the same layout.

In all three the accumulators are the output tile; nothing is reduced
horizontally.  A tier that is not compiled in, or that the OS refuses, falls
to the next one — never to an error — and :func:`kernel_info` reports which
tier runs and why a higher one was turned down.  Integer accumulation is
exact in any order, so every tier returns the same bits.

None of the three writes the output itself: one driver runs them and each
finished tile leaves through a shared tile-store epilogue,
``out = (T)((double)acc * (row_scale[i] * weight_scale)) [+ bias]`` — the
dequantise, the rounding to the compute dtype and the bias add, in numpy's
order, done on the accumulators while they are still in registers (AMX: in a
1 KB bounce buffer).  The activation is quantised per token row (``max|x_i| /
127``; the weight per tensor), so a row's output depends on that row alone
and a batch gives each row the bits it gets on its own.  ``linear_int8`` is
therefore one pass and one C call (``repro_linear_s8``): per row max-abs and
quantise into a per-call int8 scratch, then GEMM, epilogue; no int32
``(m, n)`` array exists.  ``linear_int8_shared`` runs several projections of
one activation (attention's Q, K, V) off a single quantised copy and its row
scales — the same arithmetic as separate calls.  ``gemm_int8`` /
``repro_gemm_s8`` is the same driver storing the raw int32 sums: not on the
engine's path, it is how the tests (``tier=``) and the GOP/s bench see each
micro-kernel's integers on their own.  The biased int32 accumulation is
exact for ``k <= 66 306`` (``255 * 127 * k < 2**31``); ``pack_weight_int8``
refuses a longer contraction.

Every op is one C call on the caller's thread, and the kernel keeps nothing
between calls, so threads share the one instance: a ``SessionPool``'s
replicas, and the two halves of a forward that ``EncoderModel.forward``
runs on an idle second core (:mod:`repro.transformer.models`).  The kernel
itself starts no thread.

The float projection
--------------------
``matmul_fp32`` (both kernels: the native one delegates) is BLAS, and what
BLAS is handed depends on the engine: the float32 engine — and the numpy
kernel's int8 path, through its float64 carrier — makes one GEMM call over
all ``batch * seq`` token rows, the float64 engine one call per sequence.
:func:`_float_gemm` is the one site and states when rows may be stacked and
why.  The consequence: float32 outputs may differ in the last bits with
batch composition on shapes where BLAS changes kernel; float64 and int8
outputs never do.

The LUT operators
-----------------
A float32 table of up to 16 entries — every table the paper uses — is
evaluated by one vector core in ``kernels_native.c``: breakpoints, slopes
and intercepts are loaded into registers once per call, the segment index is
the count of breakpoints ``<= x`` (``searchsorted(side="right")``, the
paper's comparator), slope and intercept come from an in-register permute on
that index, and ``slope * x`` then ``+ intercept`` stay two operations.
``lut_eval``, ``lut_gelu`` / ``lut_gelu_bias`` (bias add, clip and
saturation tails in the same pass) and the front end of ``lut_softmax`` (row
max, subtract, clip, ``exp`` table, clamp at zero — one pass; the row sum
stays with ``np.sum``, the reciprocal table goes through the same core) run
on it.  The core has an AVX-512 and an AVX2 form, fixed at compile time
(:func:`kernel_info` reports ``lut_tier``); larger tables, float64 and
builds without AVX2 run scalar loops with the same compare-and-count segment
search, and the FP16 / INT32 tables stay on the numpy reference.

Parity contract
---------------
``NativeKernel`` is not merely "close": its C routines perform the same
scalar operations in the same order as numpy (no FMA contraction,
round-half-to-even, identical ``searchsorted(..., side="right")`` segment
selection), and the reductions whose order matters — LayerNorm's
mean/variance, softmax's row sum — stay in numpy, so float32/float64
results are bitwise equal to ``NumpyKernel``.  The int8
path quantises with the same scale and rounding and accumulates the same
exact integers, so it is bitwise equal as well.  Tier-1 tests gate this.

Selection and fallback
----------------------
``resolve_kernel("native")`` returns the native kernel when a C compiler is
available and falls back to ``NumpyKernel`` with a single ``RuntimeWarning``
otherwise (or when ``REPRO_NATIVE_KERNEL=0`` disables it); results are
identical either way.  ``get_kernel`` is the strict variant that raises
instead of falling back.  The knob is a plain string on
``TransformerConfig`` (``SessionConfig.kernel`` feeds it), so sharded-serving
workers reconstruct the same kernel from serialized config alone.  The model
resolves it once per forward and the encoder runs every epilogue through it;
operator backends are kernel-agnostic (see
:class:`repro.transformer.nonlinear_backend.NonlinearBackend`, the one place
that maps a LUT operator onto ``lut_*``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .approximators import (
    _as_float,
    _gelu_forward,
    _layernorm_forward,
    _softmax_forward,
)
from .lut import LookupTable, _counted_contiguous
from .quantization import compute_scale

__all__ = [
    "ComputeKernel",
    "NumpyKernel",
    "NativeKernel",
    "NUMPY_KERNEL",
    "KERNEL_NAMES",
    "get_kernel",
    "resolve_kernel",
    "native_available",
    "native_unavailable_reason",
    "reset_kernel_fallback_warning",
    "kernel_info",
]

#: kernel names accepted by the ``kernel=`` knobs across the stack.
KERNEL_NAMES: Tuple[str, ...] = ("numpy", "native")

_INT8_LIMIT = 127
#: contraction lengths beyond this could overflow the biased int32
#: accumulation in the native GEMM (255 * 127 * k < 2**31); the packer
#: refuses them.
_GEMM_K_MAX = (2**31 - 1) // (255 * 127)

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_NONFINITE_MSG = "cannot quantize non-finite values (input contains NaN or infinity)"


def _fusible_table(table: object) -> bool:
    """True for the float piecewise-linear tables the C kernels understand.

    The FP16 / INT32 tables re-quantise inside ``evaluate`` and stay on it.
    """
    return type(table) is LookupTable


def _row_scales(x: np.ndarray) -> np.ndarray:
    """Per-row activation scales, ``(..., 1)`` float64: ``max|x_i| / 127``,
    1 for an all-zero row — ``compute_scale`` applied to each token row.

    Raises ``ValueError`` for a non-finite ``x``; the check rides on the
    reduction.
    """
    max_abs = np.max(np.abs(x), axis=-1, keepdims=True, initial=0.0)
    if not np.all(np.isfinite(max_abs)):
        raise ValueError(_NONFINITE_MSG)
    scale = max_abs.astype(np.float64) / float(_INT8_LIMIT)
    scale[max_abs == 0.0] = 1.0
    return scale


def _c_ready(x: np.ndarray) -> bool:
    return x.dtype in _FLOAT_DTYPES and x.flags.c_contiguous


def _float_gemm(x: np.ndarray, operand: np.ndarray, stack_rows: bool) -> np.ndarray:
    """``x @ operand`` for a 2-D weight — the numpy kernel's one float GEMM site.

    ``np.matmul`` on a ``(batch, seq, k)`` activation is a gufunc loop: one
    BLAS call of ``seq`` rows per sequence, each re-packing the weight.  With
    ``stack_rows`` the leading axes are folded into one ``(batch * seq, k)``
    row matrix (a view of a contiguous ``x``) and BLAS is called once.

    Stacking changes the GEMM's shape, and BLAS results are not invariant to
    that (small-matrix kernels chosen on ``m * n * k``, row tails, ``m = 1``
    going to gemv), so it is allowed only where the bits cannot depend on it
    or nobody was promised they would not:

    * the sums are exact — the int8 path's float64 carrier holds integers
      below 2**53, which add up the same in any order; or
    * the engine carries no batch-invariance contract — float32.

    The float64 engine's "batched == per-call, bitwise" guarantee *is* the
    per-sequence call: a batch and a single request issue GEMMs of the
    identical shape.  It passes ``stack_rows=False``.
    """
    if not stack_rows or x.ndim <= 2:
        return np.matmul(x, operand)
    rows = np.matmul(x.reshape(-1, x.shape[-1]), operand)
    return rows.reshape(*x.shape[:-1], operand.shape[-1])


# --------------------------------------------------------------------------- #
# Protocol + reference implementation
# --------------------------------------------------------------------------- #
class ComputeKernel:
    """Per-op compute backend for the engine's hot paths.

    Conventions shared by all methods:

    * ``operand`` arguments are whatever the kernel's own ``pack_weight_*``
      returned — packed formats are kernel-private.
    * Methods documented as fused epilogues may clobber their ``x`` argument
      (the caller owns a freshly-allocated matmul output) and return it.
    * ``out_dtype`` is the engine compute dtype (float32/float64).
    """

    name: str = "abstract"

    # -- GEMM / linear ---------------------------------------------------- #
    def matmul_fp32(self, x, operand, out_dtype, bias=None):
        raise NotImplementedError

    def pack_weight_int8(self, w_q_data):
        raise NotImplementedError

    def linear_int8(self, x, operand, weight_scale, out_dtype, bias=None):
        raise NotImplementedError

    def linear_int8_shared(self, x, projections, out_dtype):
        """Several int8 projections of one activation (attention's Q, K, V).

        ``projections`` is a sequence of ``(operand, weight_scale, bias)``;
        the result is ``[linear_int8(x, operand, weight_scale, out_dtype,
        bias=bias) for ...]`` — which is this implementation.  A kernel may
        override it to quantise ``x`` once.
        """
        return [
            self.linear_int8(x, operand, weight_scale, out_dtype, bias=bias)
            for operand, weight_scale, bias in projections
        ]

    # -- packed quantisation ---------------------------------------------- #
    def quantize_scale(self, x):
        raise NotImplementedError

    def quantize_pack(self, x, scale):
        raise NotImplementedError

    # -- LUT composites / epilogues --------------------------------------- #
    def lut_eval(self, table, x, out=None):
        raise NotImplementedError

    def lut_gelu(self, op, x):
        raise NotImplementedError

    def lut_gelu_bias(self, op, x, bias):
        raise NotImplementedError

    def lut_softmax(self, op, x, axis):
        raise NotImplementedError

    def lut_layernorm(self, op, x, gamma, beta, axis=-1):
        raise NotImplementedError

    def bias_residual(self, x, bias, residual):
        raise NotImplementedError

    def bias_relu(self, x, bias):
        raise NotImplementedError

    def affine(self, x, gamma, beta):
        raise NotImplementedError


class NumpyKernel(ComputeKernel):
    """Reference kernel: the engine's original numpy op sequences, verbatim.

    The table-driven operators run that op order per L2-sized row block (see
    the module docstring); the bits do not depend on the blocking.  A float32
    or int8 projection is one GEMM over all token rows, a float64 one a GEMM
    per sequence (:func:`_float_gemm`).
    """

    name = "numpy"

    def __reduce__(self):
        return (resolve_kernel, (self.name,))

    # -- GEMM / linear ---------------------------------------------------- #
    def matmul_fp32(self, x, operand, out_dtype, bias=None):
        x = np.asarray(x)
        if x.dtype != out_dtype:
            x = x.astype(out_dtype)
        result = _float_gemm(x, operand, stack_rows=out_dtype != np.float64)
        if bias is not None:
            result += bias
        return result

    def pack_weight_int8(self, w_q_data):
        # float64 carrier of the exact quantised integers (BLAS-fast).
        return np.asarray(w_q_data).astype(np.float64)

    def linear_int8(self, x, operand, weight_scale, out_dtype, bias=None):
        x = np.asarray(x)
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)
        act_scale = _row_scales(x)
        act = np.round(x / act_scale.astype(x.dtype))
        np.clip(act, -_INT8_LIMIT, _INT8_LIMIT, out=act)
        if act.dtype != np.float64:
            act = act.astype(np.float64)
        accumulator = _float_gemm(act, operand, stack_rows=True)
        accumulator *= act_scale * weight_scale
        result = accumulator.astype(out_dtype, copy=False)
        if bias is not None:
            result += bias
        return result

    # -- packed quantisation ---------------------------------------------- #
    def quantize_scale(self, x):
        return compute_scale(np.asarray(x), num_bits=8)

    def quantize_pack(self, x, scale):
        scale = float(scale)
        if not (np.isfinite(scale) and scale > 0.0):
            raise ValueError(f"scale must be finite and positive, got {scale}")
        x = np.asarray(x)
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)
        rounded = np.round(x / scale)
        if rounded.size and not (
            np.isfinite(np.min(rounded)) and np.isfinite(np.max(rounded))
        ):
            raise ValueError(_NONFINITE_MSG)
        np.clip(rounded, -_INT8_LIMIT, _INT8_LIMIT, out=rounded)
        return rounded.astype(np.int8)

    # -- LUT composites / epilogues --------------------------------------- #
    def lut_eval(self, table, x, out=None):
        return table.evaluate(x, out=out)

    def lut_gelu(self, op, x):
        return _gelu_forward(op, _as_float(np.asarray(x)))

    def lut_gelu_bias(self, op, x, bias):
        return _gelu_forward(op, x, bias)

    def lut_softmax(self, op, x, axis):
        return _softmax_forward(op, _as_float(np.asarray(x)), axis)

    def lut_layernorm(self, op, x, gamma, beta, axis=-1):
        return _layernorm_forward(op, _as_float(np.asarray(x)), gamma, beta, axis)

    def bias_residual(self, x, bias, residual):
        x += bias
        return np.add(residual, x, out=x)

    def bias_relu(self, x, bias):
        x += bias
        return np.maximum(x, 0.0, out=x)

    def affine(self, x, gamma, beta):
        result = x * gamma
        result += beta
        return result


# --------------------------------------------------------------------------- #
# Native library: build on demand, cache by source hash, load via ctypes
# --------------------------------------------------------------------------- #
_SOURCE_PATH = Path(__file__).with_name("kernels_native.c")

_I8 = ctypes.c_void_p  # all arrays cross the boundary as raw pointers
_SIGNATURES: Dict[str, Tuple[Sequence, Optional[type]]] = {
    "repro_gemm_impl": ([], ctypes.c_int),
    "repro_lut_impl": ([], ctypes.c_int),
    "repro_amx_request": ([], ctypes.c_int),
    "repro_gemm_s8": (
        [_I8, _I8, _I8, _I8, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
         ctypes.c_int],
        None,
    ),
    "repro_pack_s8": ([_I8, ctypes.c_int64, ctypes.c_int64, _I8, _I8], None),
    "repro_linear_s8": (
        [_I8, ctypes.c_int, _I8, _I8, ctypes.c_int64, ctypes.c_int64, _I8, _I8,
         ctypes.c_int64, ctypes.c_double, _I8, _I8, ctypes.c_int, ctypes.c_int],
        ctypes.c_int,
    ),
}
for _suf in ("f32", "f64"):
    _SIGNATURES.update(
        {
            f"repro_maxabs_{_suf}": ([_I8, ctypes.c_int64, _I8], ctypes.c_int),
            f"repro_qpack_{_suf}": (
                [_I8, ctypes.c_int64, ctypes.c_double, _I8],
                ctypes.c_int,
            ),
            f"repro_lut_eval_{_suf}": (
                [_I8, _I8, ctypes.c_int64, _I8, _I8, _I8, ctypes.c_int64],
                None,
            ),
            f"repro_lut_gelu_{_suf}": (
                [_I8, _I8, _I8, ctypes.c_int64, ctypes.c_int64, _I8, _I8, _I8,
                 ctypes.c_int64, ctypes.c_double, ctypes.c_double,
                 ctypes.c_int],
                None,
            ),
            f"repro_softmax_exp_{_suf}": (
                [_I8, _I8, ctypes.c_int64, ctypes.c_int64, _I8, _I8, _I8,
                 ctypes.c_int64, ctypes.c_double],
                None,
            ),
            f"repro_bias_residual_{_suf}": (
                [_I8, _I8, _I8, _I8, ctypes.c_int64, ctypes.c_int64],
                None,
            ),
            f"repro_bias_relu_{_suf}": (
                [_I8, _I8, _I8, ctypes.c_int64, ctypes.c_int64],
                None,
            ),
            f"repro_scale_affine_{_suf}": (
                [_I8, _I8, _I8, _I8, _I8, ctypes.c_int64, ctypes.c_int64],
                None,
            ),
            f"repro_affine_{_suf}": (
                [_I8, _I8, _I8, _I8, ctypes.c_int64, ctypes.c_int64],
                None,
            ),
        }
    )

_BASE_FLAGS = ("-std=c11", "-O3", "-ffp-contract=off", "-shared", "-fPIC")


def _extra_cflags() -> tuple:
    """Escape-hatch flags (``REPRO_KERNEL_CFLAGS``), e.g. sanitizers.

    They participate in the compile command *and* in the cache tag, so a
    sanitizer build never collides with the regular cached .so.
    """
    raw = os.environ.get("REPRO_KERNEL_CFLAGS", "")
    return tuple(raw.split()) if raw.strip() else ()



#: tried in order; the first set that compiles wins (``-march=native``
#: unlocks the AMX / AVX512-VNNI int8 GEMM tiers where the CPU has them).
_FLAG_ATTEMPTS = (("-march=native",), ())

_native_lock = threading.Lock()
_native_state: Dict[str, object] = {
    "tried": False,
    "lib": None,
    "error": None,
    "gemm_tier": None,
    "gemm_refused": None,
    "lut_tier": None,
}
_fallback_warned = False

#: int8 GEMM micro-kernel tiers, in the C library's numbering (best last).
GEMM_TIER_NAMES = {1: "scalar", 2: "vnni", 3: "amx"}
#: float32 LUT-operator tiers (``repro_lut_impl``), fixed at compile time.
LUT_TIER_NAMES = {1: "scalar", 2: "avx2", 3: "avx512"}


def _probe_gemm_tier(lib) -> Tuple[int, Optional[str]]:
    """``(tier, refused)``: the best GEMM tier ``lib`` can run here, and why
    a higher one was turned down (``None`` when the best tier runs).

    Compile time decides which tiers exist (``repro_gemm_impl``); AMX then
    needs the OS to grant tile-data permission (``repro_amx_request``, asked
    once per process).  A refusal falls to the next tier, never to an error.
    """
    compiled = int(lib.repro_gemm_impl())
    if compiled < 3:
        missing = ", ".join(GEMM_TIER_NAMES[t] for t in range(3, compiled, -1))
        return compiled, f"{missing}: not compiled in (compiler flags lack it)"
    err = int(lib.repro_amx_request())
    if err:
        return 2, (
            "amx: arch_prctl(ARCH_REQ_XCOMP_PERM) refused "
            f"(errno {err}: {os.strerror(err)})"
        )
    return 3, None


def _find_compiler() -> str | None:
    override = os.environ.get("REPRO_CC")
    if override:
        return shutil.which(override) or None
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE_DIR")
    if override:
        return Path(override)
    try:
        return Path.home() / ".cache" / "repro-kernels"
    except (RuntimeError, KeyError):  # no resolvable home directory
        return Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"


def _compile_library(compiler: str, source: str) -> Path:
    """Compile (or reuse) the shared library for ``source``; atomic on disk."""
    last_error: Exception | None = None
    for extra in _FLAG_ATTEMPTS:
        flags = _BASE_FLAGS + extra + _extra_cflags()
        tag = hashlib.sha256(
            "\x00".join((compiler, " ".join(flags), source)).encode()
        ).hexdigest()[:16]
        cache = _cache_dir()
        target = cache / f"kernels_{tag}.so"
        if target.exists():
            return target
        try:
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
            os.close(fd)
            try:
                cmd = [compiler, *flags, "-o", tmp, str(_SOURCE_PATH)]
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=120
                )
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"{' '.join(cmd)} failed:\n{proc.stderr.strip()[:2000]}"
                    )
                os.replace(tmp, target)  # concurrent builders converge here
            except BaseException:
                # subprocess.run itself may raise (missing compiler binary,
                # TimeoutExpired) — the temp .so must not outlive the attempt.
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            return target
        except Exception as exc:  # try the next (more conservative) flag set
            last_error = exc
    raise RuntimeError(f"native kernel compilation failed: {last_error}")


def _load_native_lib():
    """Build/load the native library once; returns None (with reason) on failure."""
    with _native_lock:
        if _native_state["tried"]:
            return _native_state["lib"]
        _native_state["tried"] = True
        try:
            compiler = _find_compiler()
            if compiler is None:
                raise RuntimeError("no C compiler found (cc/gcc/clang)")
            if not _SOURCE_PATH.exists():
                raise RuntimeError(f"kernel source missing: {_SOURCE_PATH}")
            so_path = _compile_library(compiler, _SOURCE_PATH.read_text())
            lib = ctypes.CDLL(str(so_path))
            for fname, (argtypes, restype) in _SIGNATURES.items():
                fn = getattr(lib, fname)
                fn.argtypes = list(argtypes)
                fn.restype = restype
            tier, refused = _probe_gemm_tier(lib)
            _native_state.update(
                lib=lib,
                gemm_tier=tier,
                gemm_refused=refused,
                lut_tier=int(lib.repro_lut_impl()),
            )
        except Exception as exc:
            _native_state["lib"] = None
            _native_state["error"] = str(exc)
        return _native_state["lib"]


def _native_disabled_by_env() -> bool:
    return os.environ.get("REPRO_NATIVE_KERNEL", "").strip().lower() in (
        "0",
        "off",
        "false",
        "no",
    )


def native_available() -> bool:
    """Whether the compiled NativeKernel can be used on this host."""
    if _native_disabled_by_env():
        return False
    return _load_native_lib() is not None


def native_unavailable_reason() -> str | None:
    """Why the native kernel is unavailable (None when it is available)."""
    if _native_disabled_by_env():
        return "disabled via REPRO_NATIVE_KERNEL"
    if _load_native_lib() is not None:
        return None
    return str(_native_state["error"] or "unknown failure")


# --------------------------------------------------------------------------- #
# NativeKernel
# --------------------------------------------------------------------------- #
#: columns per packed weight panel; must match PANEL_COLS in kernels_native.c.
_PANEL_COLS = 32


class _PackedInt8Weight:
    """Weight operand for the native int8 GEMM: k4-interleaved column panels.

    ``panels`` is ``[panel][k/4][_PANEL_COLS][4]`` int8, 64-byte aligned, with
    ``k`` zero-padded to a multiple of 64 and ``n`` to a multiple of
    ``_PANEL_COLS`` — the one layout all three GEMM micro-kernels read (see
    the header of ``kernels_native.c``).  ``colsum`` (int32, padded to a
    multiple of 64) feeds the VNNI tier's unsigned-offset correction.  Both
    are written by one C pass over the int8 matrix (``repro_pack_s8``).
    """

    __slots__ = ("panels", "colsum", "k", "n")

    def __init__(self, lib, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data, dtype=np.int8)
        self.k, self.n = (int(data.shape[0]), int(data.shape[1]))
        k_pad = -(-self.k // 64) * 64
        num_panels = -(-self.n // _PANEL_COLS)
        self.panels = _aligned_empty(num_panels * k_pad * _PANEL_COLS, np.int8).reshape(
            num_panels, k_pad // 4, _PANEL_COLS, 4
        )
        self.colsum = np.empty(-(-self.n // 64) * 64, dtype=np.int32)
        lib.repro_pack_s8(
            data.ctypes.data, self.k, self.n, self.panels.ctypes.data,
            self.colsum.ctypes.data,
        )


def _aligned_empty(size: int, dtype, alignment: int = 64) -> np.ndarray:
    """Uninitialised 1-D array whose data pointer is ``alignment``-aligned."""
    itemsize = np.dtype(dtype).itemsize
    raw = np.empty(size * itemsize + alignment, dtype=np.uint8)
    offset = -raw.ctypes.data % alignment
    return raw[offset : offset + size * itemsize].view(dtype)


def _ptr(arr: np.ndarray | None) -> int | None:
    return None if arr is None else arr.ctypes.data


def _table_args(table: LookupTable, dtype: np.dtype) -> Tuple[tuple, tuple]:
    """``(arrays, c_args)`` describing ``table`` in ``dtype`` to the C kernels.

    ``c_args`` is the parameter block of the ``repro_lut_*`` signatures
    (breakpoints, slopes, intercepts, breakpoint count); ``arrays`` are the
    buffers behind the pointers — the caller holds them for the duration of
    the call.
    """
    bp, sl, ic = table._params(dtype)
    return (bp, sl, ic), (bp.ctypes.data, sl.ctypes.data, ic.ctypes.data, bp.size)


class NativeKernel(ComputeKernel):
    """Compiled C fast path: true int8 GEMM + single-pass fused epilogues.

    Every op is one C call on the calling thread (ctypes releases the GIL
    for its duration).  The kernel holds nothing but the library handle, so
    ``SessionPool`` threads share one instance; cores are a pool's business.
    """

    name = "native"

    def __init__(self) -> None:
        lib = _load_native_lib()
        if lib is None or _native_disabled_by_env():
            raise RuntimeError(
                f"native kernel unavailable: {native_unavailable_reason()}"
            )
        self._lib = lib

    def __reduce__(self):
        return (resolve_kernel, (self.name,))

    @property
    def gemm_impl(self) -> int:
        """The int8 GEMM tier that runs: 3 = AMX, 2 = AVX512-VNNI, 1 = scalar."""
        return int(_native_state["gemm_tier"])

    def _suffix(self, dtype: np.dtype) -> str:
        return "f32" if dtype == np.float32 else "f64"

    # -- GEMM / linear ---------------------------------------------------- #
    def matmul_fp32(self, x, operand, out_dtype, bias=None):
        # BLAS already owns this one; the native value is in int8 + epilogues.
        return NUMPY_KERNEL.matmul_fp32(x, operand, out_dtype, bias=bias)

    def pack_weight_int8(self, w_q_data):
        data = np.asarray(w_q_data)
        if data.ndim != 2:
            raise ValueError(f"weight must be (k, n), got shape {data.shape}")
        if data.shape[0] > _GEMM_K_MAX:
            raise ValueError(
                f"contraction length {data.shape[0]} exceeds the native int8 "
                f"GEMM's limit of {_GEMM_K_MAX} (int32 accumulation could "
                "overflow)"
            )
        return _PackedInt8Weight(self._lib, data)

    def gemm_int8(
        self, a_q: np.ndarray, packed: _PackedInt8Weight, tier: int | None = None
    ) -> np.ndarray:
        """Exact INT8 x INT8 -> INT32 GEMM over a packed weight operand.

        ``tier`` runs a lower micro-kernel than the probed one (the tests use
        it to cover every tier the host compiled); results are identical.
        """
        a_q = np.ascontiguousarray(a_q, dtype=np.int8)
        m, k, n = int(a_q.shape[0]), packed.k, packed.n
        if a_q.shape != (m, k):
            raise ValueError(f"a_q must be (rows, {k}), got {a_q.shape}")
        # 64-byte aligned so no tile row / vector store straddles cache lines
        acc = _aligned_empty(m * n, np.int32).reshape(m, n)
        if m == 0 or n == 0:
            return acc
        tier = self.gemm_impl if tier is None else min(int(tier), self.gemm_impl)
        self._lib.repro_gemm_s8(
            a_q.ctypes.data, packed.panels.ctypes.data,
            packed.colsum.ctypes.data, acc.ctypes.data, m, k, n, tier,
        )
        return acc

    def linear_int8(self, x, operand, weight_scale, out_dtype, bias=None):
        return self._project(x, ((operand, weight_scale, bias),), out_dtype)[0]

    def linear_int8_shared(self, x, projections, out_dtype):
        if len({operand.k for operand, _, _ in projections}) != 1:
            return super().linear_int8_shared(x, projections, out_dtype)
        return self._project(x, projections, out_dtype)

    def _project(self, x, projections, out_dtype):
        """``x`` quantised once, then one GEMM + tile-store epilogue per
        ``(packed operand, weight_scale, bias)`` — all of the same ``k``.

        One C call per projection: the first also scans each row of ``x``
        for its scale and packs it into ``q``, the rest find ``q`` and the
        row scales filled.  Both are this call's own scratch, so concurrent
        callers share nothing.
        """
        out_dtype = np.dtype(out_dtype)
        if out_dtype not in _FLOAT_DTYPES:
            raise ValueError(f"out_dtype must be float32 or float64, got {out_dtype}")
        x = np.asarray(x)
        if x.dtype not in _FLOAT_DTYPES:
            x = x.astype(np.float64)
        k = projections[0][0].k
        if x.ndim == 0 or x.shape[-1] != k:
            raise ValueError(f"x must be (..., {k}), got {x.shape}")
        lead = x.shape[:-1]
        if x.size == 0:
            results = []
            for operand, _, bias in projections:
                result = np.zeros((*lead, operand.n), dtype=out_dtype)
                if bias is not None:
                    result += bias
                results.append(result)
            return results
        flat = np.ascontiguousarray(x).reshape(-1, k)
        m = flat.shape[0]
        x_f64 = flat.dtype == np.float64
        q = _aligned_empty(m * k, np.int8)
        act_scale = np.empty(m, dtype=np.float64)  # written by the first call
        x_ptr = flat.ctypes.data
        out_f64, tier = out_dtype == np.float64, self.gemm_impl
        results = []
        for operand, weight_scale, bias in projections:
            n = operand.n
            out = np.empty((m, n), dtype=out_dtype)
            # The tile store adds a bias it can read as n values of the
            # output type; anything else is numpy's in-place add afterwards.
            fused = (
                bias is not None and bias.dtype == out_dtype and bias.shape == (n,)
            )
            fused_bias = np.ascontiguousarray(bias) if fused else None
            status = self._lib.repro_linear_s8(
                x_ptr, x_f64, q.ctypes.data, act_scale.ctypes.data, m, k,
                operand.panels.ctypes.data, operand.colsum.ctypes.data, n,
                weight_scale, _ptr(fused_bias), out.ctypes.data, out_f64, tier,
            )
            if status:
                raise ValueError(_NONFINITE_MSG)
            x_ptr = None  # q now holds x quantised at act_scale
            if bias is not None and not fused:
                out += bias
            results.append(out.reshape(*lead, n))
        return results

    # -- packed quantisation ---------------------------------------------- #
    def _max_abs_scale(self, flat: np.ndarray, suf: str) -> float:
        out = ctypes.c_double(0.0)
        status = getattr(self._lib, f"repro_maxabs_{suf}")(
            flat.ctypes.data, flat.size, ctypes.addressof(out)
        )
        if status:
            raise ValueError(_NONFINITE_MSG)
        max_abs = out.value if flat.size else 0.0
        if max_abs == 0.0:
            return 1.0
        return max_abs / float(_INT8_LIMIT)

    def quantize_scale(self, x):
        x = np.asarray(x)
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)
        if not x.flags.c_contiguous:
            return NUMPY_KERNEL.quantize_scale(x)
        return self._max_abs_scale(x, self._suffix(x.dtype))

    def quantize_pack(self, x, scale):
        scale = float(scale)
        if not (np.isfinite(scale) and scale > 0.0):
            raise ValueError(f"scale must be finite and positive, got {scale}")
        x = np.asarray(x)
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)
        if not x.flags.c_contiguous:
            return NUMPY_KERNEL.quantize_pack(x, scale)
        q = np.empty(x.shape, dtype=np.int8)
        status = getattr(self._lib, f"repro_qpack_{self._suffix(x.dtype)}")(
            x.ctypes.data, x.size, scale, q.ctypes.data
        )
        if status:
            raise ValueError(_NONFINITE_MSG)
        return q

    # -- LUT composites / epilogues --------------------------------------- #
    def lut_eval(self, table, x, out=None):
        x = np.asarray(x)
        if not (_fusible_table(table) and x.dtype in _FLOAT_DTYPES):
            return table.evaluate(x, out=out)
        if not x.flags.c_contiguous:
            if out is not None and np.may_share_memory(x, out):
                # In-place evaluation of a strided view: the caller's buffer
                # is the contract, so stay on the numpy gather path.
                return table.evaluate(x, out=out)
            x = _counted_contiguous(x)
        if out is None:
            out = np.empty_like(x)
        elif out.shape != x.shape or out.dtype != x.dtype or not out.flags.c_contiguous:
            return table.evaluate(x, out=out)
        _arrays, table_args = _table_args(table, x.dtype)
        getattr(self._lib, f"repro_lut_eval_{self._suffix(x.dtype)}")(
            x.ctypes.data, out.ctypes.data, x.size, *table_args
        )
        return out

    def _lut_gelu_native(self, op, x, bias, out):
        """Single C pass: (x [+ bias]) -> clip -> LUT -> saturation tails.

        ``out`` receives the result and may be ``x`` itself.
        """
        cols = x.shape[-1] if x.ndim else 1
        rows = x.size // cols if cols else 0
        _arrays, table_args = _table_args(op.gelu_approx, x.dtype)
        if op.clip_range is None:
            lo, hi, has_clip = 0.0, 0.0, 0
        else:
            lo, hi = (float(op.clip_range[0]), float(op.clip_range[1]))
            has_clip = 1
        getattr(self._lib, f"repro_lut_gelu_{self._suffix(x.dtype)}")(
            x.ctypes.data, _ptr(bias), out.ctypes.data, rows, cols,
            *table_args, lo, hi, has_clip,
        )
        return out

    def lut_gelu(self, op, x):
        x = _as_float(np.asarray(x))
        if not (_fusible_table(op.gelu_approx) and _c_ready(x)):
            return _gelu_forward(op, x)
        # The reference path leaves the caller's input intact.
        return self._lut_gelu_native(op, x, None, np.empty_like(x))

    def lut_gelu_bias(self, op, x, bias):
        if not (
            _fusible_table(op.gelu_approx)
            and _c_ready(x)
            and bias is not None
            and bias.dtype == x.dtype
            and bias.flags.c_contiguous
            and x.ndim >= 1
            and bias.shape == (x.shape[-1],)
        ):
            return NUMPY_KERNEL.lut_gelu_bias(op, x, bias)
        return self._lut_gelu_native(op, x, bias, x)

    def lut_softmax(self, op, x, axis):
        x = _as_float(np.asarray(x))
        if not (
            _fusible_table(op.exp_approx)
            and _c_ready(x)
            and x.ndim >= 1
            and x.size
            and axis in (-1, x.ndim - 1)
        ):
            return _softmax_forward(op, x, axis)
        # Front end, one C pass: row max -> subtract -> clip to
        # [exp_clip, 0] -> exp table -> clamp at 0.
        exps = np.empty_like(x)
        cols = x.shape[-1]
        _arrays, table_args = _table_args(op.exp_approx, x.dtype)
        getattr(self._lib, f"repro_softmax_exp_{self._suffix(x.dtype)}")(
            x.ctypes.data, exps.ctypes.data, x.size // cols, cols,
            *table_args, float(op.exp_clip),
        )
        # The rest is _softmax_forward's tail, op for op; the row sum stays
        # with np.sum because its pairwise order is the parity contract.
        denom = np.sum(exps, axis=-1, keepdims=True)
        np.maximum(denom, 1e-12, out=denom)
        inv = self.lut_eval(op.reciprocal_approx, denom, out=denom)
        np.maximum(inv, 0.0, out=inv)
        return np.multiply(exps, inv, out=exps)

    def lut_layernorm(self, op, x, gamma, beta, axis=-1):
        x = _as_float(np.asarray(x))
        if not (
            axis in (-1, x.ndim - 1)
            and gamma is not None
            and beta is not None
            and np.asarray(gamma).dtype == x.dtype
            and np.asarray(beta).dtype == x.dtype
        ):
            return _layernorm_forward(op, x, gamma, beta, axis)

        def normalize(centered, inv_std, gamma_, beta_):
            cols = centered.shape[-1]
            rows = centered.size // cols if cols else 0
            if not (
                _c_ready(centered)
                and cols
                and rows
                and gamma_.flags.c_contiguous
                and beta_.flags.c_contiguous
            ):
                normalised = np.multiply(centered, inv_std, out=centered)
                normalised *= gamma_
                normalised += beta_
                return normalised
            inv = np.ascontiguousarray(inv_std.reshape(-1))
            getattr(self._lib, f"repro_scale_affine_{self._suffix(centered.dtype)}")(
                centered.ctypes.data, inv.ctypes.data, gamma_.ctypes.data,
                beta_.ctypes.data, centered.ctypes.data, rows, cols,
            )
            return centered

        return _layernorm_forward(op, x, gamma, beta, axis, normalize=normalize)

    def bias_residual(self, x, bias, residual):
        if not (
            _c_ready(x)
            and x.ndim >= 1
            and residual.shape == x.shape
            and residual.dtype == x.dtype
            and residual.flags.c_contiguous
            and bias.shape == (x.shape[-1],)
            and bias.dtype == x.dtype
            and bias.flags.c_contiguous
        ):
            return NUMPY_KERNEL.bias_residual(x, bias, residual)
        cols = x.shape[-1]
        rows = x.size // cols if cols else 0
        getattr(self._lib, f"repro_bias_residual_{self._suffix(x.dtype)}")(
            x.ctypes.data, bias.ctypes.data, residual.ctypes.data,
            x.ctypes.data, rows, cols,
        )
        return x

    def bias_relu(self, x, bias):
        if not (
            _c_ready(x)
            and x.ndim >= 1
            and bias.shape == (x.shape[-1],)
            and bias.dtype == x.dtype
            and bias.flags.c_contiguous
        ):
            return NUMPY_KERNEL.bias_relu(x, bias)
        cols = x.shape[-1]
        rows = x.size // cols if cols else 0
        getattr(self._lib, f"repro_bias_relu_{self._suffix(x.dtype)}")(
            x.ctypes.data, bias.ctypes.data, x.ctypes.data, rows, cols
        )
        return x

    def affine(self, x, gamma, beta):
        if not (
            _c_ready(x)
            and x.ndim >= 1
            and gamma.shape == (x.shape[-1],)
            and gamma.dtype == x.dtype
            and beta.shape == gamma.shape
            and beta.dtype == x.dtype
            and gamma.flags.c_contiguous
            and beta.flags.c_contiguous
        ):
            return NUMPY_KERNEL.affine(x, gamma, beta)
        out = np.empty_like(x)
        cols = x.shape[-1]
        rows = x.size // cols if cols else 0
        getattr(self._lib, f"repro_affine_{self._suffix(x.dtype)}")(
            x.ctypes.data, gamma.ctypes.data, beta.ctypes.data,
            out.ctypes.data, rows, cols,
        )
        return out


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
NUMPY_KERNEL = NumpyKernel()
_native_kernel_singleton: NativeKernel | None = None


def _native_singleton() -> NativeKernel:
    global _native_kernel_singleton
    if _native_kernel_singleton is None:
        _native_kernel_singleton = NativeKernel()
    return _native_kernel_singleton


def validate_kernel_name(name: str) -> str:
    if name not in KERNEL_NAMES:
        raise ValueError(f"kernel must be one of {KERNEL_NAMES}, got {name!r}")
    return name


def get_kernel(name: str = "numpy") -> ComputeKernel:
    """Strict kernel lookup: raises when ``name`` cannot be provided."""
    validate_kernel_name(name)
    if name == "numpy":
        return NUMPY_KERNEL
    if not native_available():
        raise RuntimeError(
            f"native kernel unavailable: {native_unavailable_reason()}"
        )
    return _native_singleton()


def resolve_kernel(name: str = "numpy") -> ComputeKernel:
    """Kernel lookup with graceful fallback.

    ``"native"`` on a host without a working C toolchain (or with
    ``REPRO_NATIVE_KERNEL=0``) returns :class:`NumpyKernel` — identical
    results, slower — and emits a single ``RuntimeWarning`` per process.
    """
    global _fallback_warned
    validate_kernel_name(name)
    if name == "numpy":
        return NUMPY_KERNEL
    if native_available():
        return _native_singleton()
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            "native compute kernel unavailable "
            f"({native_unavailable_reason()}); falling back to the numpy "
            "kernel (identical results, no compiled fast path)",
            RuntimeWarning,
            stacklevel=2,
        )
    return NUMPY_KERNEL


def reset_kernel_fallback_warning() -> None:
    """Re-arm the once-per-process fallback warning (test hook)."""
    global _fallback_warned
    _fallback_warned = False


def kernel_info() -> Dict[str, object]:
    """Diagnostics for benchmarks/reports: availability + kernel tiers.

    ``gemm_impl`` / ``gemm_tier`` are the int8 GEMM tier that runs
    (3 / ``"amx"``, 2 / ``"vnni"``, 1 / ``"scalar"``); ``gemm_tier_refused``
    says why a higher tier was turned down (``None`` when the best one
    runs).  ``lut_tier`` is the float32 LUT-operator tier the library was
    compiled with (``"avx512"``, ``"avx2"`` or ``"scalar"``).
    """
    info: Dict[str, object] = {
        "names": list(KERNEL_NAMES),
        "native_available": native_available(),
        "native_unavailable_reason": native_unavailable_reason(),
        "gemm_impl": None,
        "gemm_tier": None,
        "gemm_tier_refused": None,
        "lut_tier": None,
    }
    if info["native_available"]:
        tier = _native_singleton().gemm_impl
        info.update(
            gemm_impl=tier,
            gemm_tier=GEMM_TIER_NAMES[tier],
            gemm_tier_refused=_native_state["gemm_refused"],
            lut_tier=LUT_TIER_NAMES[_native_state["lut_tier"]],
        )
    return info
