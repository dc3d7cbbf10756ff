/* ThreadSanitizer driver for kernels_native.c.
 *
 * TSan cannot be LD_PRELOADed under an uninstrumented CPython (the runtime
 * requires the main executable to be instrumented and segfaults otherwise),
 * so scripts/sanitize.sh --tsan falls back to this harness: it links
 * kernels_native.c directly, fully instrumented, and reproduces the one
 * concurrency pattern the engine has — SessionPool replicas: THREADS
 * callers, each making whole kernel calls on its own activations and its
 * own outputs, all sharing the one kernel's read-only operands (the packed
 * weight panels, column sums, bias/gamma/beta vectors, the table
 * parameters).  Any data race between concurrent kernel invocations is
 * visible here; TSan aborts the run on a report.
 *
 * Each caller's tensors are a band of rows of one allocation, so every
 * output row ends in a masked partial vector right up against the next
 * caller's rows: a store past a row's end is a race, not just a wrong
 * answer.
 *
 * The int8 projection (repro_linear_s8: max-abs -> quantise -> GEMM ->
 * tile-store epilogue) runs on every GEMM tier the library can use here
 * (AMX permission is requested the way the Python loader does; each thread's
 * call loads and releases its own tile configuration) over a weight packed
 * into the k4-interleaved panel layout, the way NativeKernel._project calls
 * it: float64 output straight from the caller's activations, then float32
 * output from the already-quantised copy and the per-row scales the first
 * call wrote (the shared-activation call).  The bands, K and N are ragged on
 * purpose: a band ends inside a 6-row and a 32-row tile, and the k tail and
 * the partial panel are exercised; every tenth activation row is all zero.
 * Both outputs are memcmp'd against a scalar dequantise of the int64 product
 * at each row's own activation scale (max|x_i| / 127, 1 for a zero row).
 *
 * The float32 LUT operators (bias + GELU and the softmax front end) run on
 * whatever LUT tier the build has, over rows of LUT_COLS columns — a
 * multiple of neither 16 nor 8 — with a 16-entry table, and are memcmp'd
 * against a plain scalar evaluation of the same table.
 */
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

int repro_gemm_impl(void);
int repro_amx_request(void);
int repro_linear_s8(const void *x, int x_f64, int8_t *q, double *act_scale,
                    int64_t m, int64_t k, const int8_t *packed,
                    const int32_t *colsum, int64_t n, double weight_scale,
                    const void *bias, void *out, int out_f64, int tier);
int repro_maxabs_f64(const double *x, int64_t size, double *out);
int repro_qpack_f64(const double *x, int64_t size, double scale, int8_t *q);
void repro_bias_residual_f64(const double *x, const double *bias,
                             const double *res, double *out, int64_t rows,
                             int64_t cols);
void repro_bias_relu_f64(const double *x, const double *bias, double *out,
                         int64_t rows, int64_t cols);
int repro_lut_impl(void);
void repro_lut_gelu_f32(const float *x, const float *bias, float *out,
                        int64_t rows, int64_t cols, const float *bp,
                        const float *sl, const float *ic, int64_t nbp,
                        double clip_lo, double clip_hi, int has_clip);
void repro_softmax_exp_f32(const float *x, float *out, int64_t rows,
                           int64_t cols, const float *bp, const float *sl,
                           const float *ic, int64_t nbp, double clip);
void repro_scale_affine_f64(const double *centered, const double *inv_std,
                            const double *gamma, const double *beta,
                            double *out, int64_t rows, int64_t cols);

enum { THREADS = 4, M = 190, K = 150, N = 90, ITERS = 25 };
static const double WEIGHT_SCALE = 0.0078125;
/* _PackedInt8Weight's geometry: k padded to 64, n to 32-column panels
 * (the column sums to 64). */
enum { PANEL = 32, K_PAD = (K + 63) / 64 * 64, N_PAD = (N + 63) / 64 * 64 };
/* LUT operators: M rows of LUT_COLS columns, a LUT_BP-breakpoint table. */
enum { LUT_COLS = 37, LUT_BP = 15 };
static const float GELU_LO = -5.0f, GELU_HI = 5.0f, EXP_CLIP = -9.0f;

/* slope[idx] * v + intercept[idx], idx = #{breakpoints <= v}. */
static float lut_scalar(float v, const float *bp, const float *sl,
                        const float *ic) {
    int idx = 0;
    for (int t = 0; t < LUT_BP; ++t)
        idx += v >= bp[t];
    return sl[idx] * v + ic[idx]; /* built with -ffp-contract=off: no FMA */
}

/* Caller `tid` owns rows [band_start(tid), band_start(tid + 1)) of every
 * M-row buffer. */
static int64_t band_start(int tid) { return (int64_t)M * tid / THREADS; }

typedef struct {
    int tid;
    int tiers;
    const double *act; /* M x K activations */
    const int8_t *packed;
    const int32_t *colsum;
    const double *lin_want64; /* the projection, computed the slow way */
    const float *lin_want32;
    const float *bias32;
    int8_t *act_q; /* M x K: each caller packs its own rows */
    double *lin_out64;
    float *lin_out32;
    const double *xf;
    const double *bias;
    const double *res;
    const double *inv_std;
    const double *gamma;
    const double *beta;
    double *out;
    int8_t *q;
    const float *lut_x; /* M x LUT_COLS */
    const float *lut_bias;
    const float *bp, *sl, *ic;
    const float *gelu_want, *softmax_want;
    float *lut_out;
    int failed;
} job_t;

static void *worker(void *arg) {
    job_t *job = (job_t *)arg;
    const int64_t start = band_start(job->tid);
    const int64_t rows = band_start(job->tid + 1) - start;
    for (int iter = 0; iter < ITERS; ++iter) {
        const int tier = 1 + iter % job->tiers;
        double scale[M]; /* per row: written by the first call, read by the second */
        if (repro_linear_s8(job->act + start * K, 1, job->act_q + start * K,
                            scale, rows, K, job->packed, job->colsum, N,
                            WEIGHT_SCALE, job->bias, job->lin_out64 + start * N,
                            1, tier) ||
            repro_linear_s8(NULL, 0, job->act_q + start * K, scale, rows, K,
                            job->packed, job->colsum, N, WEIGHT_SCALE,
                            job->bias32, job->lin_out32 + start * N, 0, tier))
            job->failed |= 1;
        if (memcmp(job->lin_out64 + start * N, job->lin_want64 + start * N,
                   (size_t)rows * N * sizeof(double)) != 0 ||
            memcmp(job->lin_out32 + start * N, job->lin_want32 + start * N,
                   (size_t)rows * N * sizeof(float)) != 0)
            job->failed |= 2;
        repro_bias_residual_f64(job->xf + start * N, job->bias,
                                job->res + start * N, job->out + start * N,
                                rows, N);
        repro_bias_relu_f64(job->xf + start * N, job->bias,
                            job->out + start * N, rows, N);
        repro_scale_affine_f64(job->xf + start * N, job->inv_std + start,
                               job->gamma, job->beta, job->out + start * N,
                               rows, N);
        const float *lx = job->lut_x + start * LUT_COLS;
        float *lo_ = job->lut_out + start * LUT_COLS;
        const size_t lut_bytes = (size_t)rows * LUT_COLS * sizeof(float);
        repro_lut_gelu_f32(lx, job->lut_bias, lo_, rows, LUT_COLS, job->bp,
                           job->sl, job->ic, LUT_BP, GELU_LO, GELU_HI, 1);
        if (memcmp(lo_, job->gelu_want + start * LUT_COLS, lut_bytes) != 0)
            job->failed |= 4;
        repro_softmax_exp_f32(lx, lo_, rows, LUT_COLS, job->bp, job->sl,
                              job->ic, LUT_BP, EXP_CLIP);
        if (memcmp(lo_, job->softmax_want + start * LUT_COLS, lut_bytes) != 0)
            job->failed |= 4;
        double mx = 0.0;
        if (repro_maxabs_f64(job->out + start * N, rows * N, &mx))
            job->failed |= 1;
        if (mx > 0.0 &&
            repro_qpack_f64(job->out + start * N, rows * N, mx / 127.0,
                            job->q + start * N))
            job->failed |= 1;
    }
    return NULL;
}

int main(void) {
    /* every tier compiled in, and AMX only if the OS grants tile data */
    int tiers = repro_gemm_impl();
    if (tiers == 3 && repro_amx_request() != 0)
        tiers = 2;

    static int8_t w[K * N], q[M * N], act_q[M * K];
    static int8_t packed[N_PAD * K_PAD] __attribute__((aligned(64)));
    static int32_t colsum[N_PAD];
    static double act[M * K], lin_out64[M * N], lin_want64[M * N];
    static float lin_out32[M * N], lin_want32[M * N], bias32[N];
    static double xf[M * N], bias[N], res[M * N], inv_std[M];
    static double gamma_[N], beta_[N], out[M * N];
    static float lut_x[M * LUT_COLS], lut_out[M * LUT_COLS], lut_bias[LUT_COLS];
    static float gelu_want[M * LUT_COLS], softmax_want[M * LUT_COLS];
    static float bp[LUT_BP], sl[LUT_BP + 1], ic[LUT_BP + 1];

    unsigned seed = 12345u;
    for (int i = 0; i < M * K; ++i) {
        seed = seed * 1103515245u + 12345u;
        /* rows ~1e3 apart in magnitude, every tenth row all zero */
        const int row = i / K;
        act[i] = row % 10 == 9 ? 0.0
                               : ((double)(seed >> 8) / (1 << 23) - 1.0) * 3.0 *
                                     (row % 3 == 0 ? 1e3 : 1.0);
    }
    for (int i = 0; i < K * N; ++i)
        w[i] = (int8_t)((seed = seed * 1103515245u + 12345u) >> 24);
    for (int j = 0; j < N; ++j) {
        for (int kk = 0; kk < K; ++kk) {
            /* packed[panel][k / 4][column][k % 4] */
            packed[((j / PANEL * (K_PAD / 4) + kk / 4) * PANEL + j % PANEL) * 4 +
                   kk % 4] = w[kk * N + j];
            colsum[j] += w[kk * N + j];
        }
        bias[j] = 0.25 * j;
        bias32[j] = (float)bias[j];
        gamma_[j] = 1.0 + 0.01 * j;
        beta_[j] = -0.5 + 0.01 * j;
    }
    for (int i = 0; i < M * N; ++i) {
        xf[i] = 0.001 * (i % 997) - 0.5;
        res[i] = 0.002 * (i % 991) - 1.0;
    }
    for (int i = 0; i < M; ++i) {
        inv_std[i] = 1.0 / (1.0 + 0.001 * i);
        double act_max = 0.0;
        for (int kk = 0; kk < K; ++kk)
            act_max = fabs(act[i * K + kk]) > act_max ? fabs(act[i * K + kk])
                                                      : act_max;
        const double act_scale = act_max == 0.0 ? 1.0 : act_max / 127.0;
        for (int j = 0; j < N; ++j) {
            int64_t sum = 0;
            for (int kk = 0; kk < K; ++kk) {
                double r = nearbyint(act[i * K + kk] / act_scale);
                r = r > 127.0 ? 127.0 : r < -127.0 ? -127.0 : r;
                sum += (int64_t)r * w[kk * N + j];
            }
            const double scaled = (double)sum * (act_scale * WEIGHT_SCALE);
            lin_want64[i * N + j] = scaled + bias[j];
            lin_want32[i * N + j] = (float)scaled + bias32[j];
        }
    }

    for (int t = 0; t <= LUT_BP; ++t) {
        if (t < LUT_BP)
            bp[t] = -7.0f + 0.9f * (float)t;
        sl[t] = 0.07f * (float)t - 0.3f;
        ic[t] = 0.5f - 0.11f * (float)t;
    }
    for (int j = 0; j < LUT_COLS; ++j)
        lut_bias[j] = 0.05f * (float)j - 0.9f;
    for (int i = 0; i < M; ++i) {
        float *row = lut_x + i * LUT_COLS, row_max = -INFINITY;
        for (int j = 0; j < LUT_COLS; ++j) {
            /* spread over the table, every 7th value an exact breakpoint */
            int n = i * LUT_COLS + j;
            row[j] = n % 7 ? 0.013f * (float)(n % 1259) - 8.0f : bp[n % LUT_BP];
            if (row[j] > row_max)
                row_max = row[j];
        }
        for (int j = 0; j < LUT_COLS; ++j) {
            float t = row[j] + lut_bias[j];
            float inside = t < GELU_LO ? GELU_LO : t > GELU_HI ? GELU_HI : t;
            float y = lut_scalar(inside, bp, sl, ic);
            gelu_want[i * LUT_COLS + j] = t > GELU_HI ? t : t < GELU_LO ? 0.0f : y;
            float s = row[j] - row_max;
            float e = lut_scalar(s < EXP_CLIP ? EXP_CLIP : s, bp, sl, ic);
            softmax_want[i * LUT_COLS + j] = e > 0.0f ? e : 0.0f;
        }
    }

    pthread_t tids[THREADS];
    job_t jobs[THREADS];
    for (int t = 0; t < THREADS; ++t) {
        jobs[t] = (job_t){.tid = t,
                          .tiers = tiers,
                          .act = act,
                          .packed = packed,
                          .colsum = colsum,
                          .lin_want64 = lin_want64,
                          .lin_want32 = lin_want32,
                          .bias32 = bias32,
                          .act_q = act_q,
                          .lin_out64 = lin_out64,
                          .lin_out32 = lin_out32,
                          .xf = xf,
                          .bias = bias,
                          .res = res,
                          .inv_std = inv_std,
                          .gamma = gamma_,
                          .beta = beta_,
                          .out = out,
                          .q = q,
                          .lut_x = lut_x,
                          .lut_bias = lut_bias,
                          .bp = bp,
                          .sl = sl,
                          .ic = ic,
                          .gelu_want = gelu_want,
                          .softmax_want = softmax_want,
                          .lut_out = lut_out,
                          .failed = 0};
        if (pthread_create(&tids[t], NULL, worker, &jobs[t]) != 0) {
            fprintf(stderr, "pthread_create failed\n");
            return 2;
        }
    }
    int failed = 0;
    for (int t = 0; t < THREADS; ++t) {
        pthread_join(tids[t], NULL);
        failed |= jobs[t].failed;
    }
    if (failed) {
        fprintf(stderr,
                failed & 4   ? "tsan_driver: LUT operators deviate from the "
                               "scalar reference\n"
                : failed & 2 ? "tsan_driver: int8 projection deviates from the "
                               "scalar dequantise of q(x) @ w\n"
                             : "tsan_driver: kernel reported non-finite input\n");
        return 1;
    }
    double checksum = 0.0;
    for (int i = 0; i < M * N; ++i)
        checksum += out[i];
    printf("tsan_driver: gemm tiers 1..%d lut tier %d threads=%d iters=%d "
           "checksum=%.6f\n",
           tiers, repro_lut_impl(), THREADS, ITERS, checksum);
    return 0;
}
