#!/usr/bin/env bash
# Dynamic analysis for the native kernel seam: rebuild kernels_native.c with
# sanitizers and run the kernel test suite against the instrumented library.
#
#   ./scripts/sanitize.sh           # AddressSanitizer + UBSan
#   ./scripts/sanitize.sh --tsan    # ThreadSanitizer, 4 concurrent callers
#
# The builder's REPRO_KERNEL_CFLAGS escape hatch injects the -fsanitize flags
# (they participate in the .so cache tag, so sanitizer builds never collide
# with regular ones), and a throwaway REPRO_KERNEL_CACHE_DIR keeps the user's
# cache clean.  Because ctypes loads the .so into an *uninstrumented* CPython,
# the sanitizer runtime must come in via LD_PRELOAD; leak checking is off
# (CPython's own allocations would drown the report) — ASan still catches
# overflows/UAF in kernel code, UBSan undefined behaviour, TSan data races
# between concurrent callers of the one shared kernel (SessionPool replicas:
# own activations and outputs, shared read-only packed weights, column sums
# and table parameters).  Exits 0 with a notice when the toolchain does not
# support the requested sanitizer.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

MODE=asan
if [[ "${1:-}" == "--tsan" ]]; then
    MODE=tsan
    shift
fi

CC_BIN="${REPRO_CC:-}"
if [[ -z "$CC_BIN" ]]; then
    for cand in cc gcc clang; do
        if command -v "$cand" >/dev/null 2>&1; then CC_BIN="$cand"; break; fi
    done
fi
if [[ -z "$CC_BIN" ]]; then
    echo "sanitize.sh: no C compiler found; skipping (nothing to sanitize)"
    exit 0
fi

probe() {
    local tmp
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' RETURN
    echo 'int main(void){return 0;}' > "$tmp/probe.c"
    "$CC_BIN" $1 -o "$tmp/probe" "$tmp/probe.c" >/dev/null 2>&1
}

runtime_lib() {
    local path
    path="$("$CC_BIN" -print-file-name="$1" 2>/dev/null || true)"
    # -print-file-name echoes the bare name back when the library is unknown
    if [[ "$path" == "$1" || -z "$path" ]]; then return 1; fi
    echo "$path"
}

if [[ "$MODE" == "asan" ]]; then
    SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -g"
    if ! probe "$SAN_FLAGS"; then
        echo "sanitize.sh: $CC_BIN does not support -fsanitize=address,undefined; skipping"
        exit 0
    fi
    PRELOAD=""
    for lib in libasan.so libubsan.so; do
        if libpath="$(runtime_lib "$lib")"; then
            PRELOAD="${PRELOAD:+$PRELOAD:}$libpath"
        fi
    done
    if [[ -z "$PRELOAD" ]]; then
        echo "sanitize.sh: sanitizer runtime libraries not found; skipping"
        exit 0
    fi
    export ASAN_OPTIONS="detect_leaks=0:abort_on_error=1:verify_asan_link_order=0"
    export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
    LABEL="ASan+UBSan"
else
    SAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g"
    if ! probe "$SAN_FLAGS"; then
        echo "sanitize.sh: $CC_BIN does not support -fsanitize=thread; skipping"
        exit 0
    fi
    if ! PRELOAD="$(runtime_lib libtsan.so)"; then
        echo "sanitize.sh: libtsan runtime not found; skipping"
        exit 0
    fi
    # Python's daemon threads are never joined — that is not the race we
    # are hunting; halt hard on actual data-race reports in kernel code.
    export TSAN_OPTIONS="halt_on_error=1:report_thread_leaks=0:report_signal_unsafe=0"
    LABEL="TSan (concurrent callers of one kernel)"

    # TSan's runtime requires an instrumented main executable; LD_PRELOAD
    # under a stock CPython usually dies on startup.  Probe it — and when it
    # cannot host Python, fall back to the fully-instrumented native driver:
    # four threads calling the kernel at once the way SessionPool replicas do.
    tsan_hosts_python() {
        # Probe as a background job: bash stays quiet when it dies by signal.
        LD_PRELOAD="$PRELOAD" python -c pass >/dev/null 2>&1 &
        wait "$!" 2>/dev/null
    }
    if ! tsan_hosts_python; then
        echo "sanitize.sh: $LABEL -- TSan cannot be preloaded under this CPython; using the instrumented native driver (scripts/tsan_driver.c)"
        DRIVER_DIR="$(mktemp -d /tmp/repro-tsan-XXXXXX)"
        trap 'rm -rf "$DRIVER_DIR"' EXIT
        build_driver() {
            # -ffp-contract=off as in the real build: the LUT reference in the
            # driver and the kernel must both multiply, then add.
            "$CC_BIN" $SAN_FLAGS -O2 -ffp-contract=off $1 \
                src/repro/core/kernels_native.c scripts/tsan_driver.c \
                -o "$DRIVER_DIR/tsan_driver" -lpthread -lm 2>/dev/null
        }
        build_driver "-march=native" || build_driver ""
        if [[ ! -x "$DRIVER_DIR/tsan_driver" ]]; then
            echo "sanitize.sh: failed to build the TSan driver; skipping"
            exit 0
        fi
        "$DRIVER_DIR/tsan_driver"
        echo "sanitize.sh: $LABEL pass clean (native driver)"
        exit 0
    fi
fi

SAN_CACHE="$(mktemp -d /tmp/repro-sanitize-XXXXXX)"
trap 'rm -rf "$SAN_CACHE"' EXIT
export REPRO_KERNEL_CFLAGS="$SAN_FLAGS"
export REPRO_KERNEL_CACHE_DIR="$SAN_CACHE"
export REPRO_CC="$CC_BIN"
export REPRO_NATIVE_KERNEL=1

echo "sanitize.sh: $LABEL via $CC_BIN -- rebuilding kernels_native.c and running tests/core/test_kernels.py"
LD_PRELOAD="$PRELOAD${LD_PRELOAD:+:$LD_PRELOAD}" \
    python -m pytest tests/core/test_kernels.py -x -q "$@"
echo "sanitize.sh: $LABEL pass clean"
