/* Native compute kernels for the inference engine.
 *
 * Compiled on demand by repro.core.kernels (cc -O3 -march=native
 * -ffp-contract=off -shared -fPIC) and loaded through ctypes; no Python.h
 * involved, so any C compiler the host happens to have is enough.
 *
 * Numerical contract: every floating-point routine performs the *same scalar
 * operations in the same order* as the NumpyKernel reference (multiply then
 * add, no FMA contraction — hence -ffp-contract=off — and round-half-to-even
 * via nearbyint, matching np.round), so float32/float64 results are bitwise
 * equal to numpy's, not merely close.  The int8 GEMM accumulates int8 x int8
 * products in int32 exactly (integer addition is associative, so every tier
 * below gives the same bits); callers guard the contraction length so the
 * accumulator cannot overflow.
 *
 * int8 GEMM operand layout
 * ------------------------
 * The weight (k, n) is packed once, by repro_pack_s8, into column panels
 * of PANEL_COLS columns, each k4-interleaved:
 *
 *     packed[panel][k / 4][PANEL_COLS][4]        (int8, 64-byte aligned)
 *
 * with k zero-padded to a multiple of 64 and n to a multiple of PANEL_COLS.
 * One "k4 group" of a panel is 128 contiguous bytes: two 64-byte vectors of
 * 16 columns x 4 consecutive k each, which is at once the operand shape of
 * vpdpbusd (16 int32 lanes, 4 bytes per lane) and one row of an AMX B tile.
 * Three micro-kernels walk this one layout, best first:
 *
 *     3  AMX    TDPBSSD, 2x2 tiles = 32 rows x one panel per step
 *     2  VNNI   vpdpbusd, 4 activation bytes broadcast against the vectors
 *               of two adjacent panels into a 6 x 64 register tile
 *     1  scalar portable loop (whatever the compiler vectorises)
 *
 * In all three the accumulators *are* the C tile: nothing is reduced
 * horizontally.  Which tiers exist is decided at compile time
 * (__AMX_INT8__ / __AVX512VNNI__ from -march=native); AMX additionally needs
 * the kernel's permission (repro_amx_request, asked once at load).  The
 * caller passes the tier to run; a tier that was not compiled in falls to
 * the next one down.
 *
 * One driver (gemm_s8) runs them, and none of them writes C: a finished tile
 * is handed to the tile store (see "tile store" below), which on the
 * engine's path is the projection's epilogue — dequantise in float64, round
 * to the output type, add the bias — so the int32 sums go from registers (or
 * a 1 KB bounce buffer) to the float output and are never an array in
 * memory.  repro_linear_s8 wraps that in one call: max-abs and quantise each
 * activation row at its own scale into the caller's scratch, GEMM, epilogue.
 * A row's output depends on that row alone, so the result does not depend on
 * what else shares the batch.  repro_gemm_s8 is the same driver with
 * the raw int32 store, kept so the tests and the GOP/s bench can look at each
 * tier's integer sums on their own.
 *
 * LUT operators
 * -------------
 * A first-order table of up to LUT_CORE_ENTRIES entries is evaluated in
 * float32 by one vector core (see "LUT vector core" below): breakpoints,
 * slopes and intercepts sit in registers, the segment index is a count of
 * the breakpoints <= x (searchsorted(side="right"), the paper's comparator),
 * slope and intercept come from an in-register permute on that index, and
 * slope * x, + intercept stay two separate operations.  It has an AVX-512
 * and an AVX2 form, chosen at compile time like the quantise loops; bigger
 * tables, float64 and builds without AVX2 run the scalar loops, which count
 * the breakpoints the same way.
 */

#define _GNU_SOURCE /* syscall() */

#include <errno.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__AVX512VNNI__) && defined(__AVX512F__)
#include <immintrin.h>
#define REPRO_GEMM_VNNI 1
#elif defined(__AVX2__)
#include <immintrin.h>
#endif

#if defined(REPRO_GEMM_VNNI) && defined(__AMX_INT8__) &&                      \
    defined(__AMX_TILE__) && defined(__linux__) && defined(__x86_64__)
#include <sys/syscall.h>
#include <unistd.h>
#define REPRO_GEMM_AMX 1
#endif

#define EXPORT __attribute__((visibility("default")))

/* ------------------------------------------------------------------ */
/* int8 GEMM: a (m,k) row-major int8  x  packed weight (see header).   */
/* Exact integer accumulation; each finished C tile goes to a sink.    */
/* ------------------------------------------------------------------ */

#define PANEL_COLS 32
#define GROUP_BYTES (PANEL_COLS * 4) /* one k4 group of one panel */

/* k4 groups per panel: k rounded up to a multiple of 64, over 4. */
static inline int64_t panel_groups(int64_t k) { return (k + 63) / 64 * 16; }

/* Highest GEMM tier compiled into this library. */
EXPORT int repro_gemm_impl(void) {
#if defined(REPRO_GEMM_AMX)
    return 3;
#elif defined(REPRO_GEMM_VNNI)
    return 2;
#else
    return 1;
#endif
}

/* Ask the kernel for permission to use AMX tile data (Linux grants it per
 * process, threads and children inherit it).  0 on success, else errno;
 * ENOSYS when the AMX tier is not compiled in. */
EXPORT int repro_amx_request(void) {
#ifdef REPRO_GEMM_AMX
    /* arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA) */
    if (syscall(SYS_arch_prctl, 0x1023, 18) != 0)
        return errno ? errno : EPERM;
    return 0;
#else
    return ENOSYS;
#endif
}

/* ---- tile store -------------------------------------------------------- */

/* Where the C tiles of one GEMM go.  The micro-kernels never write C
 * themselves: a finished tile leaves its accumulators (AMX bounce buffer,
 * zmm registers, the portable loop's array) through sink_vec / sink_row,
 * which either keep the exact int32 sums (SINK_S32: repro_gemm_s8) or apply
 * the projection's epilogue on the way out,
 *
 *     out = (T)((double)acc * (row_scale[i] * weight_scale)) [+ bias]
 *                                                    T = float | double
 *
 * one scale per row i, multiply in float64, round once to T, then add the
 * bias in T: numpy's dequantise-then-cast-then-add order, so the float result
 * is bitwise NumpyKernel.linear_int8's and no int32 (m, n) array ever
 * exists. */
enum { SINK_S32, SINK_F32, SINK_F64 };

typedef struct {
    int kind;
    void *out;        /* C, (m, n) row-major, element type per kind */
    int64_t n;
    const double *row_scale; /* float kinds: (m,) activation scales */
    double weight_scale;     /* float kinds */
    const void *bias; /* float kinds: n values of out's type, or NULL */
} tile_sink;

#define SINK_ROW_AS(T)                                                        \
    do {                                                                      \
        T *o = (T *)s->out + at;                                              \
        const T *b = (const T *)s->bias;                                      \
        const double scale = s->row_scale[row] * s->weight_scale;             \
        if (b)                                                                \
            for (int64_t c = 0; c < cols; ++c)                                \
                o[c] = (T)((double)acc[c] * scale) + b[col + c];              \
        else                                                                  \
            for (int64_t c = 0; c < cols; ++c)                                \
                o[c] = (T)((double)acc[c] * scale);                           \
    } while (0)

/* `cols` accumulators of C[row][col...]. */
static inline void sink_row(const tile_sink *s, int64_t row, int64_t col,
                            const int32_t *acc, int64_t cols) {
    const int64_t at = row * s->n + col;
    if (s->kind == SINK_F32)
        SINK_ROW_AS(float);
    else if (s->kind == SINK_F64)
        SINK_ROW_AS(double);
    else
        memcpy((int32_t *)s->out + at, acc, (size_t)cols * sizeof(int32_t));
}

#ifdef REPRO_GEMM_VNNI
/* The same, on sixteen accumulators in a register; `mask` has the lanes
 * that are columns of C (none: the vector lies wholly past the edge).
 * cvtdq2pd is exact, mulpd / cvtpd2ps / addps round as their scalar forms
 * do. */
static inline void sink_vec(const tile_sink *s, int64_t row, int64_t col,
                            __m512i acc, __mmask16 mask) {
    const int64_t at = row * s->n + col;
    if (!mask)
        return;
    if (s->kind == SINK_S32) {
        _mm512_mask_storeu_epi32((int32_t *)s->out + at, mask, acc);
        return;
    }
    const __m512d scale = _mm512_set1_pd(s->row_scale[row] * s->weight_scale);
    __m512d lo = _mm512_mul_pd(
        _mm512_cvtepi32_pd(_mm512_castsi512_si256(acc)), scale);
    __m512d hi = _mm512_mul_pd(
        _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(acc, 1)), scale);
    if (s->kind == SINK_F64) {
        const __mmask8 mlo = (__mmask8)mask, mhi = (__mmask8)(mask >> 8);
        double *o = (double *)s->out + at;
        if (s->bias) {
            const double *b = (const double *)s->bias + col;
            lo = _mm512_add_pd(lo, _mm512_maskz_loadu_pd(mlo, b));
            hi = _mm512_add_pd(hi, _mm512_maskz_loadu_pd(mhi, b + 8));
        }
        _mm512_mask_storeu_pd(o, mlo, lo);
        _mm512_mask_storeu_pd(o + 8, mhi, hi);
        return;
    }
    __m512 v = _mm512_castpd_ps(_mm512_insertf64x4(
        _mm512_castps_pd(_mm512_castps256_ps512(_mm512_cvtpd_ps(lo))),
        _mm256_castps_pd(_mm512_cvtpd_ps(hi)), 1));
    if (s->bias)
        v = _mm512_add_ps(
            v, _mm512_maskz_loadu_ps(mask, (const float *)s->bias + col));
    _mm512_mask_storeu_ps((float *)s->out + at, mask, v);
}

/* Lanes of a 16-column vector starting `left` columns before the edge. */
static inline __mmask16 column_mask(int64_t left) {
    return (__mmask16)(left >= 16 ? 0xffff : left > 0 ? (1u << left) - 1 : 0);
}
#endif

/* ---- tier 1: portable ------------------------------------------------ */

/* SCALAR_ROWS x PANEL_COLS tile: every weight byte loaded feeds
 * SCALAR_ROWS rows. */
#define SCALAR_ROWS 6

static void gemm_scalar(const int8_t *a, const int8_t *packed, int64_t m,
                        int64_t k, int64_t n, const tile_sink *s) {
    const int64_t panel_bytes = panel_groups(k) * GROUP_BYTES;
    for (int64_t j0 = 0; j0 < n; j0 += PANEL_COLS) {
        const int8_t *panel = packed + j0 / PANEL_COLS * panel_bytes;
        const int64_t cols = n - j0 < PANEL_COLS ? n - j0 : PANEL_COLS;
        for (int64_t i = 0; i < m; i += SCALAR_ROWS) {
            const int rows = m - i < SCALAR_ROWS ? (int)(m - i) : SCALAR_ROWS;
            int32_t acc[SCALAR_ROWS][PANEL_COLS] = {{0}};
            for (int64_t kk = 0; kk < k; kk += 4) {
                /* the k4 group of each row, zero past k and past m */
                int16_t av[SCALAR_ROWS][4] = {{0}};
                for (int r = 0; r < rows; ++r)
                    for (int t = 0; t < 4 && kk + t < k; ++t)
                        av[r][t] = a[(i + r) * k + kk + t];
                const int8_t *bg = panel + kk / 4 * GROUP_BYTES;
                for (int j = 0; j < PANEL_COLS; ++j) {
                    const int16_t b0 = bg[4 * j], b1 = bg[4 * j + 1];
                    const int16_t b2 = bg[4 * j + 2], b3 = bg[4 * j + 3];
                    for (int r = 0; r < SCALAR_ROWS; ++r)
                        acc[r][j] += av[r][0] * b0 + av[r][1] * b1 +
                                     av[r][2] * b2 + av[r][3] * b3;
                }
            }
            for (int r = 0; r < rows; ++r)
                sink_row(s, i + r, j0, acc[r], cols);
        }
    }
}

#ifdef REPRO_GEMM_VNNI
/* ---- tier 2: AVX512-VNNI, broadcast-A ---------------------------------- */

static inline __m512i dpbusd(__m512i acc, __m512i u8, __m512i s8) {
    /* The intrinsic makes GCC 12 shuffle and spill the accumulators; the
     * instruction itself keeps them where they are. */
    __asm__("vpdpbusd %2, %1, %0" : "+v"(acc) : "v"(u8), "v"(s8));
    return acc;
}

/* The tile's six rows are spelled out (named accumulators stay in
 * registers; an array of them does not). */
#define VNNI_ROWS(OP, ARG)                                                    \
    OP(0, ARG) OP(1, ARG) OP(2, ARG) OP(3, ARG) OP(4, ARG) OP(5, ARG)

#define VNNI_ROW_INIT(R, UNUSED)                                              \
    const int8_t *a##R = a + (R < rows ? R : rows - 1) * k;                   \
    __m512i c##R##0 = s0, c##R##1 = s1, c##R##2 = s2, c##R##3 = s3;

#define VNNI_ROW_STEP(R, LEN)                                                 \
    {                                                                         \
        int32_t group = 0;                                                    \
        memcpy(&group, a##R + kk, (size_t)(LEN));                             \
        const __m512i av =                                                    \
            _mm512_xor_si512(_mm512_set1_epi32(group), flip);                 \
        c##R##0 = dpbusd(c##R##0, av, b0);                                    \
        c##R##1 = dpbusd(c##R##1, av, b1);                                    \
        c##R##2 = dpbusd(c##R##2, av, b2);                                    \
        c##R##3 = dpbusd(c##R##3, av, b3);                                    \
    }

#define VNNI_ROW_SINK(R, UNUSED)                                              \
    if (R < rows) {                                                           \
        sink_vec(s, row + R, col, c##R##0, mask[0]);                          \
        sink_vec(s, row + R, col + 16, c##R##1, mask[1]);                     \
        sink_vec(s, row + R, col + 32, c##R##2, mask[2]);                     \
        sink_vec(s, row + R, col + 48, c##R##3, mask[3]);                     \
    }

#define VNNI_STEP(LEN)                                                        \
    {                                                                         \
        const int8_t *bg = panel + kk / 4 * GROUP_BYTES;                      \
        const __m512i b0 = _mm512_loadu_si512((const void *)bg);              \
        const __m512i b1 = _mm512_loadu_si512((const void *)(bg + 64));       \
        const __m512i b2 = _mm512_loadu_si512((const void *)(bg + next));     \
        const __m512i b3 = _mm512_loadu_si512((const void *)(bg + next + 64));\
        VNNI_ROWS(VNNI_ROW_STEP, LEN)                                         \
    }

/* One 6 x 64 tile, C[row..][col..], over the whole contraction: the panel at
 * `panel` and the one `next` bytes after it (0 when there is none: the first
 * is read again and `mask` drops the columns).  `rows` (1..6) of the tile
 * are real — the rest recompute the last real row and are not stored.
 * vpdpbusd multiplies unsigned by signed bytes: A is biased by +128 (XOR
 * 0x80 on the broadcast group) and the accumulators start at
 * -128 * colsum[j], which takes the bias back out.  Intermediate sums may
 * wrap; the final one is exact.  The last k4 group is zero-filled past k. */
static void vnni_tile(const int8_t *a, int64_t rows, const int8_t *panel,
                      int64_t next, const int32_t *colsum, int64_t k,
                      const tile_sink *s, int64_t row, int64_t col,
                      const __mmask16 *mask) {
    const __m512i flip = _mm512_set1_epi32((int32_t)0x80808080u);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i *cs = (const __m512i *)colsum;
    const __m512i s0 =
        _mm512_sub_epi32(zero, _mm512_slli_epi32(_mm512_loadu_si512(cs), 7));
    const __m512i s1 = _mm512_sub_epi32(
        zero, _mm512_slli_epi32(_mm512_loadu_si512(cs + 1), 7));
    const __m512i s2 = _mm512_sub_epi32(
        zero, _mm512_slli_epi32(_mm512_loadu_si512(cs + 2), 7));
    const __m512i s3 = _mm512_sub_epi32(
        zero, _mm512_slli_epi32(_mm512_loadu_si512(cs + 3), 7));
    VNNI_ROWS(VNNI_ROW_INIT, 0)
    int64_t kk = 0;
    for (; kk + 4 <= k; kk += 4)
        VNNI_STEP(4)
    if (kk < k)
        VNNI_STEP(k - kk)
    VNNI_ROWS(VNNI_ROW_SINK, 0)
}

static void gemm_vnni(const int8_t *a, const int8_t *packed,
                      const int32_t *colsum, int64_t m, int64_t k, int64_t n,
                      const tile_sink *s) {
    const int64_t panel_bytes = panel_groups(k) * GROUP_BYTES;
    /* Column tiles outermost: two panels of the weight stay in cache while
     * every row tile streams past them. */
    for (int64_t j0 = 0; j0 < n; j0 += 64) {
        const int8_t *panel = packed + j0 / PANEL_COLS * panel_bytes;
        const int64_t next = j0 + PANEL_COLS < n ? panel_bytes : 0;
        __mmask16 mask[4]; /* valid columns of each 16-lane vector */
        for (int v = 0; v < 4; ++v)
            mask[v] = column_mask(n - j0 - 16 * v);
        for (int64_t i = 0; i < m; i += 6)
            vnni_tile(a + i * k, m - i < 6 ? m - i : 6, panel, next,
                      colsum + j0, k, s, i, j0, mask);
    }
}
#endif /* REPRO_GEMM_VNNI */

#ifdef REPRO_GEMM_AMX
/* ---- tier 3: AMX TDPBSSD, 2x2 tiles ------------------------------------ */

/* Tile register roles: 0-3 the C tiles (row half x column half), 4-5 the
 * A tiles (16 rows x 64 k-bytes each), 6-7 the B tiles (16 k4 groups x 16
 * columns each: the two halves of a panel). */
typedef struct {
    uint8_t palette, start_row, reserved[14];
    uint16_t colsb[16];
    uint8_t rows[16];
} __attribute__((aligned(64))) tilecfg_t;

static void amx_config(tilecfg_t *cfg, int rows) {
    const int top = rows < 16 ? rows : 16, bottom = rows - top;
    memset(cfg, 0, sizeof *cfg);
    cfg->palette = 1;
    const int tile_rows[8] = {top, top, bottom, bottom, top, bottom, 16, 16};
    for (int t = 0; t < 8; ++t) {
        cfg->rows[t] = (uint8_t)tile_rows[t];
        cfg->colsb[t] = tile_rows[t] ? 64 : 0;
    }
}

/* C tile `T` = C[row..row+rows][col..col+16] out through the sink: a tile
 * register can only be stored whole, so it lands in a 1 KB bounce buffer
 * (L1-resident) and leaves row by row. */
#define AMX_SINK(T, row, col, rows)                                           \
    do {                                                                      \
        const __mmask16 mask_ = column_mask(s->n - (col));                    \
        if (mask_) {                                                          \
            _tile_stored(T, bounce, 64);                                      \
            for (int r_ = 0; r_ < (rows); ++r_)                               \
                sink_vec(s, (row) + r_, (col),                                \
                         _mm512_load_si512(bounce + 16 * r_), mask_);         \
        }                                                                     \
    } while (0)

/* One (<= 32 rows) x (32 columns) block, C[row..][col..], over the whole
 * contraction.  The tile configuration for `rows` is already loaded; with 16
 * rows or fewer the bottom tiles are unconfigured and stay untouched.  `b`
 * is the block's panel. */
static void amx_block(const int8_t *a, const int8_t *b, int rows, int64_t k,
                      const tile_sink *s, int64_t row, int64_t col) {
    const int top = rows < 16 ? rows : 16, bottom = rows - top;
    int8_t tail[32 * 64] __attribute__((aligned(64)));
    int32_t bounce[16 * 16] __attribute__((aligned(64)));
    _tile_zero(0);
    _tile_zero(1);
    if (bottom) {
        _tile_zero(2);
        _tile_zero(3);
    }
    for (int64_t kk = 0; kk < k; kk += 64, b += 16 * GROUP_BYTES) {
        const int8_t *a0 = a + kk; /* this chunk of the top 16 rows */
        int64_t lda = k;
        if (kk + 64 > k) { /* k tail: a zero-padded copy of A's last chunk */
            memset(tail, 0, sizeof tail);
            for (int r = 0; r < rows; ++r)
                memcpy(tail + 64 * r, a0 + r * k, (size_t)(k - kk));
            a0 = tail;
            lda = 64;
        }
        _tile_loadd(6, b, GROUP_BYTES);
        _tile_loadd(7, b + 64, GROUP_BYTES);
        _tile_loadd(4, a0, (size_t)lda);
        _tile_dpbssd(0, 4, 6);
        _tile_dpbssd(1, 4, 7);
        if (bottom) {
            _tile_loadd(5, a0 + 16 * lda, (size_t)lda);
            _tile_dpbssd(2, 5, 6);
            _tile_dpbssd(3, 5, 7);
        }
    }
    AMX_SINK(0, row, col, top);
    AMX_SINK(1, row, col + 16, top);
    if (bottom) {
        AMX_SINK(2, row + 16, col, bottom);
        AMX_SINK(3, row + 16, col + 16, bottom);
    }
}

static void gemm_amx(const int8_t *a, const int8_t *packed, int64_t m,
                     int64_t k, int64_t n, const tile_sink *s) {
    const int64_t panel_bytes = panel_groups(k) * GROUP_BYTES;
    const int64_t full = m / 32 * 32;
    const int tail = (int)(m - full);
    tilecfg_t cfg_full, cfg_tail;
    amx_config(&cfg_full, 32);
    amx_config(&cfg_tail, tail);
    /* Panels outermost: one panel of the weight stays in cache while every
     * row block streams past it, so the weight is read from memory once per
     * call. */
    for (int64_t j0 = 0; j0 < n; j0 += PANEL_COLS) {
        const int8_t *b = packed + j0 / PANEL_COLS * panel_bytes;
        if (full && (tail || j0 == 0))
            _tile_loadconfig(&cfg_full);
        for (int64_t i = 0; i < full; i += 32)
            amx_block(a + i * k, b, 32, k, s, i, j0);
        if (tail) {
            _tile_loadconfig(&cfg_tail);
            amx_block(a + full * k, b, tail, k, s, full, j0);
        }
    }
    _tile_release();
}
#endif /* REPRO_GEMM_AMX */

/* The one GEMM driver.  `tier` is the micro-kernel to run (repro_gemm_impl's
 * numbering); one that is not compiled in falls to the next one down.  Tier
 * 3 additionally requires that repro_amx_request succeeded in this
 * process. */
static void gemm_s8(const int8_t *a, const int8_t *packed,
                    const int32_t *colsum, int64_t m, int64_t k, int64_t n,
                    int tier, const tile_sink *s) {
#ifdef REPRO_GEMM_AMX
    if (tier >= 3) {
        gemm_amx(a, packed, m, k, n, s);
        return;
    }
#endif
#ifdef REPRO_GEMM_VNNI
    if (tier >= 2) {
        gemm_vnni(a, packed, colsum, m, k, n, s);
        return;
    }
#endif
    (void)colsum;
    (void)tier;
    gemm_scalar(a, packed, m, k, n, s);
}

/* The driver with the raw store: c (m,n) int32 = a @ w exactly.  Not on the
 * engine's path — it is how the tests and the GOP/s bench see each tier's
 * integer sums on their own. */
EXPORT void repro_gemm_s8(const int8_t *a, const int8_t *packed,
                          const int32_t *colsum, int32_t *c, int64_t m,
                          int64_t k, int64_t n, int tier) {
    const tile_sink sink = {SINK_S32, c, n, NULL, 0.0, NULL};
    gemm_s8(a, packed, colsum, m, k, n, tier, &sink);
}

/* The packer: w (k,n) row-major int8 -> the panel layout in the header,
 * every byte of `packed` written (the k and n padding as zeros), and
 * colsum[j] = sum_k w[k][j] in int32 with colsum padded by zeros to a
 * multiple of 64.  One pass: panel by panel, one k4 group at a time, the
 * group's four source rows read 32 bytes each. */
EXPORT void repro_pack_s8(const int8_t *w, int64_t k, int64_t n,
                          int8_t *packed, int32_t *colsum) {
    const int64_t groups = panel_groups(k);
    memset(colsum, 0, (size_t)((n + 63) / 64 * 64) * sizeof(int32_t));
    for (int64_t j0 = 0; j0 < n; j0 += PANEL_COLS) {
        const int64_t cols = n - j0 < PANEL_COLS ? n - j0 : PANEL_COLS;
        int32_t *sum = colsum + j0;
        for (int64_t g = 0; g < groups; ++g, packed += GROUP_BYTES) {
            const int64_t k0 = 4 * g;
            if (cols == PANEL_COLS && k0 + 4 <= k) {
                const int8_t *r0 = w + k0 * n + j0, *r1 = r0 + n;
                const int8_t *r2 = r1 + n, *r3 = r2 + n;
                for (int c = 0; c < PANEL_COLS; ++c) {
                    packed[4 * c] = r0[c];
                    packed[4 * c + 1] = r1[c];
                    packed[4 * c + 2] = r2[c];
                    packed[4 * c + 3] = r3[c];
                    sum[c] += (int32_t)r0[c] + r1[c] + r2[c] + r3[c];
                }
                continue;
            }
            memset(packed, 0, GROUP_BYTES);
            for (int64_t r = 0; r < 4 && k0 + r < k; ++r) {
                const int8_t *row = w + (k0 + r) * n + j0;
                for (int64_t c = 0; c < cols; ++c) {
                    packed[4 * c + r] = row[c];
                    sum[c] += row[c];
                }
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Everything below is macro-instantiated for float32 and float64.     */
/* ------------------------------------------------------------------ */

/* Segment index: a branchless count of the breakpoints <= v, which for
 * sorted breakpoints is searchsorted(bp, v, side="right") — the vector
 * core's algorithm and the paper's comparator.  A NaN counts none (index
 * 0) and comes out NaN. */
#define DEFINE_SEARCH(SUF, T)                                                  \
    static inline int64_t lut_index_##SUF(T v, const T *bp, int64_t nbp) {     \
        int64_t idx = 0;                                                       \
        for (int64_t t = 0; t < nbp; ++t)                                      \
            idx += (v >= bp[t]);                                               \
        return idx;                                                            \
    }

DEFINE_SEARCH(f32, float)
DEFINE_SEARCH(f64, double)

/* max |x| and round(x / scale) -> int8 (the two passes of activation
 * quantisation).  Both return 1 when a non-finite element is seen and
 * write nothing in that case.  The float32 variants carry an AVX2 main
 * loop — the scalar early-return finiteness check otherwise blocks
 * autovectorisation — using only bitwise-exact operations (IEEE divide,
 * vroundps in the default half-to-even mode, min/max clip), so the packed
 * bytes are identical to the scalar path's. */
#define DEFINE_QUANT_SCALAR(SUF, T, NEARBYINT, ISFIN)                          \
    static int maxabs_scalar_##SUF(const T *x, int64_t size, double *out) {    \
        T m = (T)0;                                                            \
        for (int64_t i = 0; i < size; ++i) {                                   \
            T v = x[i];                                                        \
            if (!ISFIN(v))                                                     \
                return 1;                                                      \
            T av = v < (T)0 ? -v : v;                                          \
            if (av > m)                                                        \
                m = av;                                                        \
        }                                                                      \
        *out = (double)m;                                                      \
        return 0;                                                              \
    }                                                                          \
    static int qpack_scalar_##SUF(const T *x, int64_t size, double scale,      \
                                  int8_t *q) {                                 \
        T s = (T)scale;                                                        \
        for (int64_t i = 0; i < size; ++i) {                                   \
            T v = x[i];                                                        \
            if (!ISFIN(v))                                                     \
                return 1;                                                      \
            T r = NEARBYINT(v / s);                                            \
            if (r > (T)127)                                                    \
                r = (T)127;                                                    \
            if (r < (T)-127)                                                   \
                r = (T)-127;                                                   \
            q[i] = (int8_t)r;                                                  \
        }                                                                      \
        return 0;                                                              \
    }

DEFINE_QUANT_SCALAR(f32, float, nearbyintf, isfinite)
DEFINE_QUANT_SCALAR(f64, double, nearbyint, isfinite)

EXPORT int repro_maxabs_f64(const double *x, int64_t size, double *out) {
    return maxabs_scalar_f64(x, size, out);
}

EXPORT int repro_qpack_f64(const double *x, int64_t size, double scale,
                           int8_t *q) {
    return qpack_scalar_f64(x, size, scale, q);
}

EXPORT int repro_maxabs_f32(const float *x, int64_t size, double *out) {
    int64_t i = 0;
    float m = 0.0f;
#ifdef __AVX2__
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256 inf = _mm256_set1_ps(INFINITY);
    __m256 vm = _mm256_setzero_ps();
    __m256 bad = _mm256_setzero_ps();
    for (; i + 8 <= size; i += 8) {
        __m256 av = _mm256_and_ps(_mm256_loadu_ps(x + i), absmask);
        /* NLT_UQ: true when !(av < inf), i.e. av == inf or av is NaN. */
        bad = _mm256_or_ps(bad, _mm256_cmp_ps(av, inf, _CMP_NLT_UQ));
        vm = _mm256_max_ps(vm, av);
    }
    if (_mm256_movemask_ps(bad))
        return 1;
    float lanes[8];
    _mm256_storeu_ps(lanes, vm);
    for (int l = 0; l < 8; ++l)
        if (lanes[l] > m)
            m = lanes[l];
#endif
    double tail = 0.0;
    if (maxabs_scalar_f32(x + i, size - i, &tail))
        return 1;
    *out = (double)(m > (float)tail ? m : (float)tail);
    return 0;
}

EXPORT int repro_qpack_f32(const float *x, int64_t size, double scale,
                           int8_t *q) {
    int64_t i = 0;
#ifdef __AVX2__
    const float s = (float)scale;
    const __m256 vs = _mm256_set1_ps(s);
    const __m256 lim = _mm256_set1_ps(127.0f);
    const __m256 nlim = _mm256_set1_ps(-127.0f);
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256 inf = _mm256_set1_ps(INFINITY);
    /* packs_epi32/epi16 interleave the two 128-bit lanes; this dword
     * permutation restores source order in the packed byte vector. */
    const __m256i unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    for (; i + 32 <= size; i += 32) {
        __m256 v0 = _mm256_loadu_ps(x + i);
        __m256 v1 = _mm256_loadu_ps(x + i + 8);
        __m256 v2 = _mm256_loadu_ps(x + i + 16);
        __m256 v3 = _mm256_loadu_ps(x + i + 24);
        __m256 bad = _mm256_cmp_ps(_mm256_and_ps(v0, absmask), inf,
                                   _CMP_NLT_UQ);
        bad = _mm256_or_ps(bad, _mm256_cmp_ps(_mm256_and_ps(v1, absmask),
                                              inf, _CMP_NLT_UQ));
        bad = _mm256_or_ps(bad, _mm256_cmp_ps(_mm256_and_ps(v2, absmask),
                                              inf, _CMP_NLT_UQ));
        bad = _mm256_or_ps(bad, _mm256_cmp_ps(_mm256_and_ps(v3, absmask),
                                              inf, _CMP_NLT_UQ));
        if (_mm256_movemask_ps(bad))
            return 1;
        const int rc = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
        __m256 r0 = _mm256_round_ps(_mm256_div_ps(v0, vs), rc);
        __m256 r1 = _mm256_round_ps(_mm256_div_ps(v1, vs), rc);
        __m256 r2 = _mm256_round_ps(_mm256_div_ps(v2, vs), rc);
        __m256 r3 = _mm256_round_ps(_mm256_div_ps(v3, vs), rc);
        r0 = _mm256_max_ps(_mm256_min_ps(r0, lim), nlim);
        r1 = _mm256_max_ps(_mm256_min_ps(r1, lim), nlim);
        r2 = _mm256_max_ps(_mm256_min_ps(r2, lim), nlim);
        r3 = _mm256_max_ps(_mm256_min_ps(r3, lim), nlim);
        __m256i p01 = _mm256_packs_epi32(_mm256_cvtps_epi32(r0),
                                         _mm256_cvtps_epi32(r1));
        __m256i p23 = _mm256_packs_epi32(_mm256_cvtps_epi32(r2),
                                         _mm256_cvtps_epi32(r3));
        __m256i p = _mm256_packs_epi16(p01, p23);
        p = _mm256_permutevar8x32_epi32(p, unshuffle);
        _mm256_storeu_si256((__m256i *)(q + i), p);
    }
#endif
    return qpack_scalar_f32(x + i, size - i, scale, q + i);
}

/* ------------------------------------------------------------------ */
/* int8 projection: quantise -> GEMM -> tile store, one call            */
/* ------------------------------------------------------------------ */

/* out (m,n) = (T)((double)(q(x) @ w) * (act_scale[i] * weight_scale))
 *            [+ bias], row i at its own scale.
 *
 *   x          (m,k) activations, float64 when x_f64 else float32 — or NULL
 *              when `q` already holds them quantised at act_scale (a second
 *              projection of the same activation)
 *   q          (m,k) int8: where the quantised activations go / are
 *   act_scale  (m,) float64.  Out with x: each row's scale (max|x_i| / 127, 1
 *              for an all-zero row).  In without: the scales `q` was
 *              quantised at, as the first projection of the shared
 *              activation wrote them
 *   out, bias  float64 when out_f64 else float32; bias may be NULL
 *
 * Each row is scanned and quantised while it is in L1.  Returns 1, with
 * `out` untouched, when x holds a non-finite value. */
EXPORT int repro_linear_s8(const void *x, int x_f64, int8_t *q,
                           double *act_scale, int64_t m, int64_t k,
                           const int8_t *packed, const int32_t *colsum,
                           int64_t n, double weight_scale, const void *bias,
                           void *out, int out_f64, int tier) {
    for (int64_t i = 0; x && i < m; ++i) {
        const double *x64 = (const double *)x + i * k;
        const float *x32 = (const float *)x + i * k;
        double max_abs = 0.0;
        if (x_f64 ? repro_maxabs_f64(x64, k, &max_abs)
                  : repro_maxabs_f32(x32, k, &max_abs))
            return 1;
        act_scale[i] = max_abs == 0.0 ? 1.0 : max_abs / 127.0;
        if (x_f64 ? repro_qpack_f64(x64, k, act_scale[i], q + i * k)
                  : repro_qpack_f32(x32, k, act_scale[i], q + i * k))
            return 1;
    }
    const tile_sink sink = {out_f64 ? SINK_F64 : SINK_F32, out, n, act_scale,
                            weight_scale, bias};
    gemm_s8(q, packed, colsum, m, k, n, tier, &sink);
    return 0;
}

/* ------------------------------------------------------------------ */
/* LUT vector core (float32)                                           */
/* ------------------------------------------------------------------ */

/* Largest table the core holds: 16 slopes / intercepts fill one zmm (two
 * ymm) each, so the look-up is a register permute. */
#define LUT_CORE_ENTRIES 16

/* The few vector operations the LUT loops are written in.  v_max / v_min
 * return their *second* operand when either is NaN or both are zero
 * (MAXPS / MINPS), which is what lets clip and clamp below reproduce
 * numpy's NaN propagation by operand order alone. */
#if defined(__AVX512F__)
#define LUT_TIER 3
enum { VL = 16 };
typedef __m512 vf;
typedef __m512i vi;
typedef __mmask16 vmask;
#define v_set1 _mm512_set1_ps
#define v_load _mm512_loadu_ps
#define v_store _mm512_storeu_ps
#define v_head(n) ((vmask)((1u << (n)) - 1u)) /* first n lanes, n < VL */
#define v_load_head(p, m, fill) _mm512_mask_loadu_ps(fill, m, p)
#define v_store_head(p, m, v) _mm512_mask_storeu_ps(p, m, v)
#define v_add _mm512_add_ps
#define v_sub _mm512_sub_ps
#define v_mul _mm512_mul_ps
#define v_max _mm512_max_ps
#define v_min _mm512_min_ps
#define v_cmp(a, b, pred) _mm512_cmp_ps_mask(a, b, pred)
#define v_select(m, a, b) _mm512_mask_blend_ps(m, a, b) /* m ? b : a */
#define v_any(m) ((m) != 0)
#define v_either(a, b) ((vmask)((a) | (b)))
#define v_zero_index _mm512_setzero_si512
/* idx + 1 in the lanes where m is set */
#define v_count(idx, m)                                                       \
    _mm512_mask_add_epi32(idx, m, idx, _mm512_set1_epi32(1))
/* table[idx], table = 16 floats in one register */
#define v_lookup(table, idx) _mm512_permutexvar_ps(idx, (table)[0])
#elif defined(__AVX2__)
#define LUT_TIER 2
enum { VL = 8 };
typedef __m256 vf;
typedef __m256i vi;
typedef __m256 vmask; /* all-ones / all-zeros lanes */
#define v_set1 _mm256_set1_ps
#define v_load _mm256_loadu_ps
#define v_store _mm256_storeu_ps
#define v_head(n)                                                             \
    _mm256_castsi256_ps(_mm256_cmpgt_epi32(                                   \
        _mm256_set1_epi32((int)(n)), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)))
#define v_load_head(p, m, fill)                                               \
    _mm256_blendv_ps(fill, _mm256_maskload_ps(p, _mm256_castps_si256(m)), m)
#define v_store_head(p, m, v) _mm256_maskstore_ps(p, _mm256_castps_si256(m), v)
#define v_add _mm256_add_ps
#define v_sub _mm256_sub_ps
#define v_mul _mm256_mul_ps
#define v_max _mm256_max_ps
#define v_min _mm256_min_ps
#define v_cmp(a, b, pred) _mm256_cmp_ps(a, b, pred)
#define v_select(m, a, b) _mm256_blendv_ps(a, b, m)
#define v_any(m) (_mm256_movemask_ps(m) != 0)
#define v_either _mm256_or_ps
#define v_zero_index _mm256_setzero_si256
#define v_count(idx, m) _mm256_sub_epi32(idx, _mm256_castps_si256(m))
/* table = 16 floats in two registers: permute both halves on the low three
 * index bits, take the upper half where bit 3 is set (moved to the sign). */
#define v_lookup(table, idx)                                                  \
    _mm256_blendv_ps(_mm256_permutevar8x32_ps((table)[0], idx),               \
                     _mm256_permutevar8x32_ps((table)[1], idx),               \
                     _mm256_castsi256_ps(_mm256_slli_epi32(idx, 28)))
#else
#define LUT_TIER 1
#endif

/* LUT tier compiled into this library: 3 = AVX-512, 2 = AVX2, 1 = scalar. */
EXPORT int repro_lut_impl(void) { return LUT_TIER; }

#if LUT_TIER > 1
/* A table in registers.  Unused breakpoints are +inf and unused entries
 * repeat the last one, so an index counted past the real breakpoints (only
 * x = +inf gets there) still reads the last segment. */
typedef struct {
    vf bp[LUT_CORE_ENTRIES - 1]; /* each breakpoint, broadcast */
    vf sl[LUT_CORE_ENTRIES / VL], ic[LUT_CORE_ENTRIES / VL];
} lut_regs;

static inline void lut_load(lut_regs *t, const float *bp, const float *sl,
                            const float *ic, int64_t nbp) {
    float s[LUT_CORE_ENTRIES], i[LUT_CORE_ENTRIES];
    for (int e = 0; e < LUT_CORE_ENTRIES; ++e) {
        if (e < LUT_CORE_ENTRIES - 1)
            t->bp[e] = v_set1(e < nbp ? bp[e] : INFINITY);
        s[e] = sl[e < nbp ? e : nbp];
        i[e] = ic[e < nbp ? e : nbp];
    }
    for (int h = 0; h < LUT_CORE_ENTRIES / VL; ++h) {
        t->sl[h] = v_load(s + h * VL);
        t->ic[h] = v_load(i + h * VL);
    }
}

/* slope[idx] * x + intercept[idx], idx = #{breakpoints <= x}.  A NaN x
 * compares false everywhere (index 0) and comes out NaN. */
static inline vf lut_apply(const lut_regs *t, vf x) {
    vi idx = v_zero_index();
    for (int e = 0; e < LUT_CORE_ENTRIES - 1; ++e)
        idx = v_count(idx, v_cmp(x, t->bp[e], _CMP_GE_OQ));
    return v_add(v_mul(v_lookup(t->sl, idx), x), v_lookup(t->ic, idx));
}

/* The GELU composite on one vector: table on clip(t, lo, hi), then the
 * saturated tails t > hi -> t, t < lo -> 0.  v_min(hi, v_max(lo, t)) is
 * np.clip: ties and NaN keep t. */
static inline vf lut_gelu_vec(const lut_regs *tab, vf t, int has_clip, vf lo,
                              vf hi) {
    if (!has_clip)
        return lut_apply(tab, t);
    vf y = lut_apply(tab, v_min(hi, v_max(lo, t)));
    y = v_select(v_cmp(t, hi, _CMP_GT_OQ), y, t);
    return v_select(v_cmp(t, lo, _CMP_LT_OQ), y, v_set1(0.0f));
}

/* out = gelu(x [+ bias]) row by row; a ragged last vector is loaded and
 * stored under a mask, so nothing past the row is touched. */
static void lut_gelu_rows(const float *x, const float *bias, float *out,
                          int64_t rows, int64_t cols, const lut_regs *tab,
                          int has_clip, float lo_s, float hi_s) {
    const vf lo = v_set1(lo_s), hi = v_set1(hi_s), zero = v_set1(0.0f);
    const int64_t full = cols / VL * VL;
    const vmask head = v_head(cols - full);
    for (int64_t r = 0; r < rows; ++r) {
        const float *xr = x + r * cols;
        float *or_ = out + r * cols;
        for (int64_t c = 0; c < full; c += VL) {
            vf t = v_load(xr + c);
            if (bias)
                t = v_add(t, v_load(bias + c));
            v_store(or_ + c, lut_gelu_vec(tab, t, has_clip, lo, hi));
        }
        if (full < cols) {
            vf t = v_load_head(xr + full, head, zero);
            if (bias)
                t = v_add(t, v_load_head(bias + full, head, zero));
            v_store_head(or_ + full, head,
                         lut_gelu_vec(tab, t, has_clip, lo, hi));
        }
    }
}

/* max(row) as np.max gives it: NaN if the row holds one. */
static inline float row_max(const float *xr, int64_t cols) {
    const vf ninf = v_set1(-INFINITY);
    vf m = ninf;
    vmask nan = v_cmp(m, m, _CMP_UNORD_Q); /* none */
    int64_t c = 0;
    for (; c + VL <= cols; c += VL) {
        vf v = v_load(xr + c);
        nan = v_either(nan, v_cmp(v, v, _CMP_UNORD_Q));
        m = v_max(v, m); /* a NaN v leaves m alone */
    }
    if (c < cols) {
        vf v = v_load_head(xr + c, v_head(cols - c), ninf);
        nan = v_either(nan, v_cmp(v, v, _CMP_UNORD_Q));
        m = v_max(v, m);
    }
    if (v_any(nan))
        return NAN;
    float lanes[VL], best = -INFINITY;
    v_store(lanes, m);
    for (int l = 0; l < VL; ++l)
        if (lanes[l] > best)
            best = lanes[l];
    return best;
}

/* The softmax front end on one vector: exp table on clip(x - max, clip, 0),
 * clamped at zero the way np.maximum(e, 0.0) does it (NaN stays, -0 -> +0). */
static inline vf softmax_exp_vec(const lut_regs *tab, vf x, vf max, vf clip) {
    const vf zero = v_set1(0.0f);
    vf e = lut_apply(tab, v_min(zero, v_max(clip, v_sub(x, max))));
    return v_add(v_max(zero, e), zero);
}

static void softmax_exp_rows(const float *x, float *out, int64_t rows,
                             int64_t cols, const lut_regs *tab, float clip_s) {
    const vf clip = v_set1(clip_s), zero = v_set1(0.0f);
    const int64_t full = cols / VL * VL;
    const vmask head = v_head(cols - full);
    for (int64_t r = 0; r < rows; ++r) {
        const float *xr = x + r * cols;
        float *or_ = out + r * cols;
        const vf max = v_set1(row_max(xr, cols));
        for (int64_t c = 0; c < full; c += VL)
            v_store(or_ + c, softmax_exp_vec(tab, v_load(xr + c), max, clip));
        if (full < cols)
            v_store_head(or_ + full, head,
                         softmax_exp_vec(tab, v_load_head(xr + full, head, zero),
                                         max, clip));
    }
}
#endif /* LUT_TIER > 1 */

/* The core's two entry points: 1 when the vector core took the call, 0 when
 * the scalar loop must — float64 always; float32 when the table has more
 * than LUT_CORE_ENTRIES entries or no vector tier is compiled. */
#define lut_gelu_core_f64(...) 0
#define softmax_exp_core_f64(...) 0
#if LUT_TIER > 1
static int lut_gelu_core_f32(const float *x, const float *bias, float *out,
                             int64_t rows, int64_t cols, const float *bp,
                             const float *sl, const float *ic, int64_t nbp,
                             int has_clip, float lo, float hi) {
    if (nbp >= LUT_CORE_ENTRIES)
        return 0;
    lut_regs tab;
    lut_load(&tab, bp, sl, ic, nbp);
    lut_gelu_rows(x, bias, out, rows, cols, &tab, has_clip, lo, hi);
    return 1;
}

static int softmax_exp_core_f32(const float *x, float *out, int64_t rows,
                                int64_t cols, const float *bp, const float *sl,
                                const float *ic, int64_t nbp, float clip) {
    if (nbp >= LUT_CORE_ENTRIES)
        return 0;
    lut_regs tab;
    lut_load(&tab, bp, sl, ic, nbp);
    softmax_exp_rows(x, out, rows, cols, &tab, clip);
    return 1;
}
#else
#define lut_gelu_core_f32(...) 0
#define softmax_exp_core_f32(...) 0
#endif

#define DEFINE_OPS(SUF, T, NEARBYINT, ISFIN)                                   \
    /* Piecewise-linear table: out = s[idx] * x + t[idx].              */      \
    EXPORT void repro_lut_eval_##SUF(const T *x, T *out, int64_t size,         \
                                     const T *bp, const T *sl, const T *ic,    \
                                     int64_t nbp) {                            \
        if (lut_gelu_core_##SUF(x, NULL, out, 1, size, bp, sl, ic, nbp, 0,     \
                                (T)0, (T)0))                                   \
            return;                                                            \
        for (int64_t i = 0; i < size; ++i) {                                   \
            T v = x[i];                                                        \
            int64_t idx = lut_index_##SUF(v, bp, nbp);                         \
            out[i] = sl[idx] * v + ic[idx];                                    \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* Fused FFN epilogue: t = x + bias; LUT on clip(t); saturated     */      \
    /* tails (t > hi -> t, t < lo -> 0) exactly as LutGelu does.       */      \
    EXPORT void repro_lut_gelu_##SUF(const T *x, const T *bias, T *out,        \
                                     int64_t rows, int64_t cols, const T *bp,  \
                                     const T *sl, const T *ic, int64_t nbp,    \
                                     double clip_lo_d, double clip_hi_d,       \
                                     int has_clip) {                           \
        T lo = (T)clip_lo_d, hi = (T)clip_hi_d;                                \
        if (lut_gelu_core_##SUF(x, bias, out, rows, cols, bp, sl, ic, nbp,     \
                                has_clip, lo, hi))                             \
            return;                                                            \
        for (int64_t r = 0; r < rows; ++r) {                                   \
            const T *xr = x + r * cols;                                        \
            T *or_ = out + r * cols;                                           \
            for (int64_t c = 0; c < cols; ++c) {                               \
                T t = bias ? xr[c] + bias[c] : xr[c];                          \
                T y;                                                           \
                if (has_clip) {                                                \
                    T inside = t < lo ? lo : (t > hi ? hi : t);                \
                    int64_t idx = lut_index_##SUF(inside, bp, nbp);            \
                    y = sl[idx] * inside + ic[idx];                            \
                    if (t > hi)                                                \
                        y = t;                                                 \
                    if (t < lo)                                                \
                        y = (T)0;                                              \
                } else {                                                       \
                    int64_t idx = lut_index_##SUF(t, bp, nbp);                 \
                    y = sl[idx] * t + ic[idx];                                 \
                }                                                              \
                or_[c] = y;                                                    \
            }                                                                  \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* Softmax front end, one pass per row: m = max(row) (NaN if the   */      \
    /* row holds one, as np.max), e = table(clip(x - m, clip, 0)),     */      \
    /* out = max(e, 0) with NaN kept.  The row sum stays with numpy.   */      \
    EXPORT void repro_softmax_exp_##SUF(const T *x, T *out, int64_t rows,      \
                                        int64_t cols, const T *bp,             \
                                        const T *sl, const T *ic,              \
                                        int64_t nbp, double clip_d) {          \
        T clip = (T)clip_d;                                                    \
        if (softmax_exp_core_##SUF(x, out, rows, cols, bp, sl, ic, nbp,        \
                                   clip))                                      \
            return;                                                            \
        for (int64_t r = 0; r < rows; ++r) {                                   \
            const T *xr = x + r * cols;                                        \
            T *or_ = out + r * cols;                                           \
            T m = xr[0];                                                       \
            for (int64_t c = 1; c < cols; ++c)                                 \
                if (xr[c] > m || xr[c] != xr[c])                               \
                    m = xr[c];                                                 \
            for (int64_t c = 0; c < cols; ++c) {                               \
                T s = xr[c] - m;                                               \
                s = s < clip ? clip : s;                                       \
                s = s > (T)0 ? (T)0 : s;                                       \
                int64_t idx = lut_index_##SUF(s, bp, nbp);                     \
                T e = sl[idx] * s + ic[idx];                                   \
                or_[c] = (e > (T)0 || e != e) ? e : (T)0;                      \
            }                                                                  \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* out = residual + (x + bias); out may alias x.                   */      \
    EXPORT void repro_bias_residual_##SUF(const T *x, const T *bias,           \
                                          const T *res, T *out, int64_t rows,  \
                                          int64_t cols) {                      \
        for (int64_t r = 0; r < rows; ++r) {                                   \
            const T *xr = x + r * cols;                                        \
            const T *rr = res + r * cols;                                      \
            T *or_ = out + r * cols;                                           \
            for (int64_t c = 0; c < cols; ++c)                                 \
                or_[c] = rr[c] + (xr[c] + bias[c]);                            \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* out = max(x + bias, 0) with NaN propagation (np.maximum).       */      \
    EXPORT void repro_bias_relu_##SUF(const T *x, const T *bias, T *out,       \
                                      int64_t rows, int64_t cols) {            \
        for (int64_t r = 0; r < rows; ++r) {                                   \
            const T *xr = x + r * cols;                                        \
            T *or_ = out + r * cols;                                           \
            for (int64_t c = 0; c < cols; ++c) {                               \
                T t = bias ? xr[c] + bias[c] : xr[c];                          \
                or_[c] = (t > (T)0 || t != t) ? t : (T)0;                      \
            }                                                                  \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* LayerNorm tail: out = ((centered * inv_std[row]) * gamma) +     */      \
    /* beta, one pass over the tensor; out may alias centered.         */      \
    EXPORT void repro_scale_affine_##SUF(const T *centered, const T *inv_std,  \
                                         const T *gamma, const T *beta,        \
                                         T *out, int64_t rows, int64_t cols) { \
        for (int64_t r = 0; r < rows; ++r) {                                   \
            const T *xr = centered + r * cols;                                 \
            T *or_ = out + r * cols;                                           \
            T inv = inv_std[r];                                                \
            for (int64_t c = 0; c < cols; ++c)                                 \
                or_[c] = ((xr[c] * inv) * gamma[c]) + beta[c];                 \
        }                                                                      \
    }                                                                          \
                                                                               \
    /* NoNorm affine: out = (x * gamma) + beta; out may alias x.       */      \
    EXPORT void repro_affine_##SUF(const T *x, const T *gamma, const T *beta,  \
                                   T *out, int64_t rows, int64_t cols) {       \
        for (int64_t r = 0; r < rows; ++r) {                                   \
            const T *xr = x + r * cols;                                        \
            T *or_ = out + r * cols;                                           \
            for (int64_t c = 0; c < cols; ++c)                                 \
                or_[c] = (xr[c] * gamma[c]) + beta[c];                         \
        }                                                                      \
    }

DEFINE_OPS(f32, float, nearbyintf, isfinite)
DEFINE_OPS(f64, double, nearbyint, isfinite)
