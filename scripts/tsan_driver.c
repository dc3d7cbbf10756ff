/* ThreadSanitizer driver for kernels_native.c.
 *
 * TSan cannot be LD_PRELOADed under an uninstrumented CPython (the runtime
 * requires the main executable to be instrumented and segfaults otherwise),
 * so scripts/sanitize.sh --tsan falls back to this harness: it links
 * kernels_native.c directly, fully instrumented, and reproduces the exact
 * concurrency pattern NativeKernel._run_rows uses — N threads working
 * disjoint row blocks of shared output buffers while sharing the read-only
 * operands (the packed weight panels, column sums, bias/gamma/beta vectors).
 * Any data race the threaded Python path could hit between kernel
 * invocations on a shared tensor is visible here; TSan aborts the run on a
 * report.
 *
 * The int8 GEMM runs on every tier the library can use here (AMX permission
 * is requested the way the Python loader does; each thread's call loads and
 * releases its own tile configuration) over a weight packed into the
 * k4-interleaved panel layout, with K and N chosen ragged so the k tail and
 * the partial panel are exercised, and is checked against a plain dot
 * product.
 *
 * Thread count comes from REPRO_KERNEL_THREADS (default 4).
 */
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int repro_gemm_impl(void);
int repro_amx_request(void);
void repro_gemm_s8(const int8_t *a, const int8_t *packed,
                   const int32_t *colsum, int32_t *c, int64_t m, int64_t k,
                   int64_t n, int tier);
int repro_maxabs_f64(const double *x, int64_t size, double *out);
int repro_qpack_f64(const double *x, int64_t size, double scale, int8_t *q);
void repro_dequant_bias_f64(const int32_t *acc, double scale,
                            const double *bias, double *out, int64_t rows,
                            int64_t cols);
void repro_bias_residual_f64(const double *x, const double *bias,
                             const double *res, double *out, int64_t rows,
                             int64_t cols);
void repro_bias_relu_f64(const double *x, const double *bias, double *out,
                         int64_t rows, int64_t cols);
void repro_scale_affine_f64(const double *centered, const double *inv_std,
                            const double *gamma, const double *beta,
                            double *out, int64_t rows, int64_t cols);

enum { M = 192, K = 150, N = 96, ITERS = 25 };
/* _PackedInt8Weight's geometry: k padded to 64, n to 32-column panels
 * (the column sums to 64). */
enum { PANEL = 32, K_PAD = (K + 63) / 64 * 64, N_PAD = (N + 63) / 64 * 64 };

typedef struct {
    int tid;
    int threads;
    int tiers;
    const int8_t *a;
    const int8_t *packed;
    const int32_t *colsum;
    const int32_t *want; /* a @ w, computed the slow way */
    int32_t *acc;
    const double *xf;
    const double *bias;
    const double *res;
    const double *inv_std;
    const double *gamma;
    const double *beta;
    double *out;
    int8_t *q;
    int failed;
} job_t;

static void *worker(void *arg) {
    job_t *job = (job_t *)arg;
    /* Same decomposition as NativeKernel._run_rows: np.linspace row bounds. */
    int64_t start = (int64_t)((double)M * job->tid / job->threads);
    int64_t stop = (int64_t)((double)M * (job->tid + 1) / job->threads);
    int64_t rows = stop - start;
    if (rows <= 0)
        return NULL;
    for (int iter = 0; iter < ITERS; ++iter) {
        repro_gemm_s8(job->a + start * K, job->packed, job->colsum,
                      job->acc + start * N, rows, K, N,
                      1 + iter % job->tiers);
        if (memcmp(job->acc + start * N, job->want + start * N,
                   (size_t)rows * N * sizeof(int32_t)) != 0)
            job->failed = 2;
        repro_dequant_bias_f64(job->acc + start * N, 0.03125, job->bias,
                               job->out + start * N, rows, N);
        repro_bias_residual_f64(job->xf + start * N, job->bias,
                                job->res + start * N, job->out + start * N,
                                rows, N);
        repro_bias_relu_f64(job->xf + start * N, job->bias,
                            job->out + start * N, rows, N);
        repro_scale_affine_f64(job->xf + start * N, job->inv_std + start,
                               job->gamma, job->beta, job->out + start * N,
                               rows, N);
        double mx = 0.0;
        if (repro_maxabs_f64(job->out + start * N, rows * N, &mx))
            job->failed = 1;
        if (mx > 0.0 &&
            repro_qpack_f64(job->out + start * N, rows * N, 127.0 / mx,
                            job->q + start * N))
            job->failed = 1;
    }
    return NULL;
}

int main(void) {
    int threads = 4;
    const char *env = getenv("REPRO_KERNEL_THREADS");
    if (env && atoi(env) > 0)
        threads = atoi(env);

    /* every tier compiled in, and AMX only if the OS grants tile data */
    int tiers = repro_gemm_impl();
    if (tiers == 3 && repro_amx_request() != 0)
        tiers = 2;

    static int8_t a[M * K], w[K * N], q[M * N];
    static int8_t packed[N_PAD * K_PAD] __attribute__((aligned(64)));
    static int32_t colsum[N_PAD], acc[M * N], want[M * N];
    static double xf[M * N], bias[N], res[M * N], inv_std[M];
    static double gamma_[N], beta_[N], out[M * N];

    unsigned seed = 12345u;
    for (int i = 0; i < M * K; ++i)
        a[i] = (int8_t)((seed = seed * 1103515245u + 12345u) >> 24);
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
        gamma_[j] = 1.0 + 0.01 * j;
        beta_[j] = -0.5 + 0.01 * j;
    }
    for (int i = 0; i < M * N; ++i) {
        xf[i] = 0.001 * (i % 997) - 0.5;
        res[i] = 0.002 * (i % 991) - 1.0;
    }
    for (int i = 0; i < M; ++i) {
        inv_std[i] = 1.0 / (1.0 + 0.001 * i);
        for (int j = 0; j < N; ++j)
            for (int kk = 0; kk < K; ++kk)
                want[i * N + j] += (int32_t)a[i * K + kk] * w[kk * N + j];
    }

    pthread_t tids[64];
    job_t jobs[64];
    if (threads > 64)
        threads = 64;
    for (int t = 0; t < threads; ++t) {
        jobs[t] = (job_t){.tid = t,
                          .threads = threads,
                          .tiers = tiers,
                          .a = a,
                          .packed = packed,
                          .colsum = colsum,
                          .want = want,
                          .acc = acc,
                          .xf = xf,
                          .bias = bias,
                          .res = res,
                          .inv_std = inv_std,
                          .gamma = gamma_,
                          .beta = beta_,
                          .out = out,
                          .q = q,
                          .failed = 0};
        if (pthread_create(&tids[t], NULL, worker, &jobs[t]) != 0) {
            fprintf(stderr, "pthread_create failed\n");
            return 2;
        }
    }
    int failed = 0;
    for (int t = 0; t < threads; ++t) {
        pthread_join(tids[t], NULL);
        failed |= jobs[t].failed;
    }
    if (failed) {
        fprintf(stderr, failed & 2
                            ? "tsan_driver: int8 GEMM deviates from a @ w\n"
                            : "tsan_driver: kernel reported non-finite input\n");
        return 1;
    }
    double checksum = 0.0;
    for (int i = 0; i < M * N; ++i)
        checksum += out[i];
    printf("tsan_driver: gemm tiers 1..%d threads=%d iters=%d checksum=%.6f\n",
           tiers, threads, ITERS, checksum);
    return 0;
}
