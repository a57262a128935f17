/* Compiled edge kernels: SDDMM (dot / add / cosine) and the masked row
 * softmax with its backward, as CSR row loops.
 *
 * Built on first use and bound through ctypes by _edge.py; the NumPy
 * code in kernels.py / segment.py is the oracle and the no-compiler
 * install. The file includes itself once per float type, so every entry
 * point exists as <name>_f32 and <name>_f64. Indices are int64, as
 * CSRMatrix stores them; `heads` is 1 for the plain layouts and H for
 * the stacked (n, H, k) / (nnz, H) ones, which are read in place.
 *
 * Every reduction runs over a fixed number of accumulator lanes that are
 * combined in a fixed tree, and a lane is chosen by position within the
 * row or the feature vector alone. A score's bits therefore depend on its
 * operands and on k (or the row's degree), never on pointer alignment,
 * vector width or which batch the row sits in: no -ffast-math, and the
 * compiler may vectorise across lanes but not reassociate within one.
 *
 * Callers validate shapes, dtypes and contiguity before a pointer gets
 * here. Column indices are trusted (CSRMatrix checks them on
 * construction); a raw row pointer handed to the softmax entries is not,
 * so those check each row's bounds and return 1 instead of reading
 * outside the value array. Every entry returns 0 on success.
 */
#ifndef T

#include <math.h>
#include <stdint.h>

#define LANES 8
#define CAT_(a, b) a##_##b
#define CAT(a, b) CAT_(a, b)
#define FN(name) CAT(name, SUFFIX)
/* Combine the lanes in one fixed order. */
#define LANE_SUM(a) \
    (((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7])))
/* The gathered operand row of the edge AHEAD places on: its first two cache
 * lines (a k = 32 float row is two). A hint only; never faults. */
#define AHEAD 8
#if defined(__GNUC__)
#define PREFETCH_ROW(p) \
    (__builtin_prefetch(p), __builtin_prefetch((const char *)(p) + 64))
#else
#define PREFETCH_ROW(p) ((void)0)
#endif

#define T float
#define SUFFIX f32
#define EXP expf
#include "_edge.c"
#undef T
#undef SUFFIX
#undef EXP

#define T double
#define SUFFIX f64
#define EXP exp
#include "_edge.c"

#else /* the kernels, once per float type T */

static inline T FN(dot)(const T *restrict x, const T *restrict y, int64_t k)
{
    T acc[LANES] = {0};
    int64_t i = 0;
    for (; i + LANES <= k; i += LANES)
        for (int j = 0; j < LANES; j++)
            acc[j] += x[i + j] * y[i + j];
    if (i < k) { /* the tail as one more full step over zero-padded copies */
        T tx[LANES] = {0}, ty[LANES] = {0};
        for (int j = 0; i + j < k; j++) {
            tx[j] = x[i + j];
            ty[j] = y[i + j];
        }
        for (int j = 0; j < LANES; j++)
            acc[j] += tx[j] * ty[j];
    }
    return LANE_SUM(acc);
}

/* The row loops are static inline and take `heads` as a parameter: each
 * entry point instantiates them once with the literal 1 (no head loop, unit
 * strides) and once with the run-time count. */

static inline void FN(dot_rows)(int64_t n_rows, const int64_t *indptr,
                                const int64_t *indices, const T *x,
                                const T *y, int64_t heads, int64_t k,
                                T *restrict out)
{
    const int64_t width = heads * k, last = indptr[n_rows] - 1;
    for (int64_t r = 0; r < n_rows; r++) {
        const T *xr = x + r * width;
        for (int64_t e = indptr[r]; e < indptr[r + 1]; e++) {
            const T *yc = y + indices[e] * width;
            PREFETCH_ROW(y + indices[e + AHEAD < last ? e + AHEAD : last] * width);
            for (int64_t h = 0; h < heads; h++)
                out[e * heads + h] = FN(dot)(xr + h * k, yc + h * k, k);
        }
    }
}

/* out[e, h] = x[r, h, :] . y[c, h, :] for every stored (r, c). */
int FN(sddmm_dot)(int64_t n_rows, const int64_t *indptr,
                  const int64_t *indices, const T *x, const T *y,
                  int64_t heads, int64_t k, T *out)
{
    if (heads == 1)
        FN(dot_rows)(n_rows, indptr, indices, x, y, 1, k, out);
    else
        FN(dot_rows)(n_rows, indptr, indices, x, y, heads, k, out);
    return 0;
}

static inline void FN(add_rows)(int64_t n_rows, const int64_t *indptr,
                                const int64_t *indices, const T *u,
                                const T *v, int64_t heads, T *restrict out)
{
    for (int64_t r = 0; r < n_rows; r++) {
        const T *ur = u + r * heads;
        for (int64_t e = indptr[r]; e < indptr[r + 1]; e++) {
            const T *vc = v + indices[e] * heads;
            for (int64_t h = 0; h < heads; h++)
                out[e * heads + h] = ur[h] + vc[h];
        }
    }
}

/* out[e, h] = u[r, h] + v[c, h]. */
int FN(sddmm_add)(int64_t n_rows, const int64_t *indptr,
                  const int64_t *indices, const T *u, const T *v,
                  int64_t heads, T *out)
{
    if (heads == 1)
        FN(add_rows)(n_rows, indptr, indices, u, v, 1, out);
    else
        FN(add_rows)(n_rows, indptr, indices, u, v, heads, out);
    return 0;
}

static inline void FN(cosine_rows)(int64_t n_rows, const int64_t *indptr,
                                   const int64_t *indices, const T *x,
                                   const T *norms, int64_t heads, int64_t k,
                                   T eps, T *restrict denom, T *restrict out)
{
    const int64_t width = heads * k, last = indptr[n_rows] - 1;
    for (int64_t r = 0; r < n_rows; r++) {
        const T *xr = x + r * width, *nr = norms + r * heads;
        for (int64_t e = indptr[r]; e < indptr[r + 1]; e++) {
            const int64_t c = indices[e];
            const T *xc = x + c * width, *nc = norms + c * heads;
            PREFETCH_ROW(x + indices[e + AHEAD < last ? e + AHEAD : last] * width);
            for (int64_t h = 0; h < heads; h++) {
                T d = nr[h] * nc[h];
                d = d < eps ? eps : d;
                out[e * heads + h] = FN(dot)(xr + h * k, xc + h * k, k) / d;
                if (denom)
                    denom[e * heads + h] = d;
            }
        }
    }
}

/* out[e, h] = (x[r, h, :] . x[c, h, :]) / max(norms[r, h] * norms[c, h], eps),
 * scaled in the same sweep; the clipped denominator is written to `denom`
 * when it is not NULL. A NaN denominator stays NaN, as np.maximum has it. */
int FN(sddmm_cosine)(int64_t n_rows, const int64_t *indptr,
                     const int64_t *indices, const T *x, const T *norms,
                     int64_t heads, int64_t k, double eps, T *denom, T *out)
{
    if (heads == 1)
        FN(cosine_rows)(n_rows, indptr, indices, x, norms, 1, k, (T)eps,
                        denom, out);
    else
        FN(cosine_rows)(n_rows, indptr, indices, x, norms, heads, k, (T)eps,
                        denom, out);
    return 0;
}

/* Stable softmax of one row of one head: `deg` values `stride` apart.
 * The max propagates NaN like np.maximum; a zero sum divides by one. */
static inline void FN(softmax_row)(const T *v, T *restrict out, int64_t deg,
                                   int64_t stride)
{
    T m = v[0];
    for (int64_t i = 1; i < deg; i++) {
        const T a = v[i * stride];
        m = (a > m || a != a) ? a : m;
    }
    T acc[LANES] = {0};
    for (int64_t i = 0; i < deg; i++) {
        const T ex = EXP(v[i * stride] - m);
        out[i * stride] = ex;
        acc[i % LANES] += ex;
    }
    T sum = LANE_SUM(acc);
    if (sum == 0)
        sum = 1;
    for (int64_t i = 0; i < deg; i++)
        out[i * stride] /= sum;
}

/* dE = S * (dS - <S, dS>) over one row of one head. */
static inline void FN(softmax_bwd_row)(const T *s, const T *g,
                                       T *restrict out, int64_t deg,
                                       int64_t stride)
{
    T acc[LANES] = {0};
    for (int64_t i = 0; i < deg; i++)
        acc[i % LANES] += s[i * stride] * g[i * stride];
    const T inner = LANE_SUM(acc);
    for (int64_t i = 0; i < deg; i++)
        out[i * stride] = s[i * stride] * (g[i * stride] - inner);
}

/* Row softmax of (nnz, heads) values; heads == 1 takes the unit-stride
 * instance of the row loop. */
int FN(segment_softmax)(int64_t n_rows, const int64_t *indptr, int64_t nnz,
                        const T *values, int64_t heads, T *restrict out)
{
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t lo = indptr[r], hi = indptr[r + 1];
        if (lo < 0 || hi < lo || hi > nnz)
            return 1;
        if (hi == lo)
            continue;
        if (heads == 1)
            FN(softmax_row)(values + lo, out + lo, hi - lo, 1);
        else
            for (int64_t h = 0; h < heads; h++)
                FN(softmax_row)(values + lo * heads + h,
                                out + lo * heads + h, hi - lo, heads);
    }
    return 0;
}

int FN(masked_row_softmax_backward)(int64_t n_rows, const int64_t *indptr,
                                    int64_t nnz, const T *s, const T *g,
                                    int64_t heads, T *restrict out)
{
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t lo = indptr[r], hi = indptr[r + 1];
        if (lo < 0 || hi < lo || hi > nnz)
            return 1;
        if (hi == lo)
            continue;
        if (heads == 1)
            FN(softmax_bwd_row)(s + lo, g + lo, out + lo, hi - lo, 1);
        else
            for (int64_t h = 0; h < heads; h++)
                FN(softmax_bwd_row)(s + lo * heads + h, g + lo * heads + h,
                                    out + lo * heads + h, hi - lo, heads);
    }
    return 0;
}

#endif
