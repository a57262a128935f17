/* The fused attention sweep: SDDMM -> masked row softmax -> SpMM in one
 * CSR row pass, forward and backward; the sampler's weighted selection,
 * each over-fan-out seed's k smallest random keys; and one sampled hop,
 * from the draw to the compacted block.
 *
 * Built on first use and bound through ctypes by _edge.py; the NumPy
 * sweep in megakernel.py, sampling_graph._smallest_per_segment and the
 * NumPy hop of sampling_graph._hop (_floyd, then np.unique) are the
 * oracles and the no-compiler install. The
 * file includes itself once per float type, so every entry point exists
 * as <name>_f32 and <name>_f64. Indices are int64, as CSRMatrix stores
 * them; `heads` is 1 for the plain layouts and H for the stacked
 * (n, H, k) / (n, H) ones, which are read in place.
 *
 * Every reduction runs over a fixed number of accumulator lanes that are
 * combined in a fixed tree, and a lane is chosen by position within the
 * row or the feature vector alone. A score's bits therefore depend on its
 * operands and on k (or the row's degree), never on pointer alignment,
 * which batch the row sits in or the ISA the file is built for: no
 * -ffast-math and -ffp-contract=off (an FMA rounds once where a multiply
 * and an add round twice), so the compiler may vectorise across lanes but
 * not reassociate or fuse within one. _edge.py builds for the host's CPU
 * (-march=native), and the dot product and axpy are explicit LANES-wide
 * vectors so that its vector width pays; a portable build gives the same
 * bits.
 *
 * Callers validate shapes, dtypes and contiguity before a pointer gets
 * here. Column indices are trusted (CSRMatrix checks them on
 * construction); a raw row pointer is not, so each sweep entry checks every
 * row's bounds and returns 1 instead of reading outside the value array,
 * as the selection does for segment lengths and the hop for its
 * destinations. Every entry returns 0 on success.
 */
#ifndef T

#include <math.h>
#include <stdint.h>

#define LANES 8
/* Score kinds of the fused attention entries (megakernel.PSI_KINDS order). */
enum { DOT, ADD, COSINE };
/* What a backward sweep produces: every exit, with the softmax's row inner
 * sum_e psi_e dpsi_e reduced in the row (IN_ROW) or read from `row_inner`
 * (GIVEN: a row split across column blocks), or dY alone (DY_ONLY). */
enum { IN_ROW, GIVEN, DY_ONLY };
#define CAT_(a, b) a##_##b
#define CAT(a, b) CAT_(a, b)
#define FN(name) CAT(name, SUFFIX)
/* Combine the lanes in one fixed order. */
#define LANE_SUM(a) \
    (((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7])))
/* The gathered operand row of the edge AHEAD places on: its first two cache
 * lines (a k = 32 float row is two). A hint only; never faults. 16 since the
 * host-ISA build shortened each edge's work (8 measured ~2 % slower). */
#define AHEAD 16
/* The fused sweep's row loops and their helpers are always inlined, so every
 * instance is specialised on its kind, mode, head count and (forward, one
 * head) output width: left to its own heuristics the compiler stops
 * part-way in functions this large. GNU C (gcc, clang) throughout: the
 * reductions are written in its vector extension. */
#define NOINLINE __attribute__((noinline))
#define SPECIALISED __attribute__((always_inline)) inline
#define PREFETCH_ROW(p) \
    (__builtin_prefetch(p), __builtin_prefetch((const char *)(p) + 64))
/* Code that follows the sweep optimised for size: the sampler's hop walks
 * scattered rows, where wide vector code buys nothing, and small code
 * leaves the pages the sweep occupies as they were. GCC only: clang has no
 * per-function optimisation level and warns on the attribute. */
#if defined(__GNUC__) && !defined(__clang__)
#define SMALL __attribute__((optimize("Os")))
#else
#define SMALL
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

/* LANES consecutive T; alignment of one T, so any address loads. */
typedef T FN(lanes) __attribute__((vector_size(LANES * sizeof(T)),
                                   aligned(sizeof(T))));

/* LANE_SUM of a vector in vector halves: a[j] + a[j + 4], then the same
 * pairs on those four lanes: half the instructions of lane-by-lane. */
typedef T FN(half) __attribute__((vector_size(LANES / 2 * sizeof(T))));
static inline T FN(lane_sum)(const FN(lanes) *a)
{
    FN(half) lo, hi;
    __builtin_memcpy(&lo, a, sizeof lo);
    __builtin_memcpy(&hi, (const char *)a + sizeof lo, sizeof hi);
    lo += hi;
    return (lo[0] + lo[2]) + (lo[1] + lo[3]);
}

static SPECIALISED T FN(dot)(const T *restrict x, const T *restrict y, int64_t k)
{
    FN(lanes) acc = {0};
    int64_t i = 0;
    for (; i + LANES <= k; i += LANES)
        acc += *(const FN(lanes) *)(x + i) * *(const FN(lanes) *)(y + i);
    if (i < k) { /* the tail as one more full step over zero-padded copies */
        FN(lanes) tx = {0}, ty = {0};
        for (int j = 0; i + j < k; j++) {
            tx[j] = x[i + j];
            ty[j] = y[i + j];
        }
        acc += tx * ty;
    }
    return FN(lane_sum)(&acc);
}

/* ---- Fused attention: SDDMM -> masked row softmax -> SpMM, one row sweep.
 *
 * `kind` is DOT (src = x_src (n, H, k), dst = x_dst (m, H, k)), ADD (src = u
 * (n, H), dst = v (m, H), coef = the LeakyReLU slope; k unused) or COSINE
 * (DOT's operands, norms (n, H) at the row endpoint and norms_dst (m, H) at
 * the column one, coef = beta; a zero norm product scores 0; the other kinds
 * read neither, which may be NULL). The score is multiplied by the edge's
 * `mask` value before the softmax. Per-edge values live in `scratch`, a few
 * vectors of `max_row * heads`: a row longer than `max_row` is refused like a
 * bad row pointer. Nothing edge-sized is read or written. */

static SPECIALISED void FN(axpy)(T a, const T *restrict x, T *restrict y, int64_t k)
{
    int64_t j = 0;
    for (; j + LANES <= k; j += LANES)
        *(FN(lanes) *)(y + j) += a * *(const FN(lanes) *)(x + j);
    for (; j < k; j++)
        y[j] += a * x[j];
}

/* Stable softmax of one row of one head (`deg` values `stride` apart) in
 * place, reporting the row's shift and (zero-repaired) sum. The max
 * propagates NaN like np.maximum; a zero sum divides by one. */
static inline void FN(softmax_row_stats)(T *v, int64_t deg, int64_t stride,
                                         T *shift, T *denom)
{
    T m = v[0];
    for (int64_t i = 1; i < deg; i++) {
        const T a = v[i * stride];
        m = (a > m || a != a) ? a : m;
    }
    T acc[LANES] = {0};
    for (int64_t i = 0; i < deg; i++) {
        const T ex = EXP(v[i * stride] - m);
        v[i * stride] = ex;
        acc[i % LANES] += ex;
    }
    T sum = LANE_SUM(acc);
    if (sum == 0)
        sum = 1;
    for (int64_t i = 0; i < deg; i++)
        v[i * stride] /= sum;
    *shift = m;
    *denom = sum;
}

/* Masked scores of one row into s (deg, heads). The backward also keeps, per
 * edge, the pre-activation logit (ADD) or the norm product (COSINE) in `aux`
 * and the unscaled cosine in `aux2`; the forward passes NULL for both. */
static SPECIALISED void FN(score_row)(int kind, int64_t r, int64_t lo, int64_t hi,
                                 int64_t last, const int64_t *indices,
                                 const T *mask, const T *src, const T *dst,
                                 const T *norms, const T *norms_dst,
                                 int64_t heads, int64_t k, T coef,
                                 T *restrict s, T *restrict aux,
                                 T *restrict aux2)
{
    const int64_t width = kind == ADD ? heads : heads * k;
    const T *sr = src + r * width;
    for (int64_t e = lo; e < hi; e++) {
        const int64_t c = indices[e], i = (e - lo) * heads;
        const T *dc = dst + c * width;
        if (kind != ADD)
            PREFETCH_ROW(dst + indices[e + AHEAD < last ? e + AHEAD : last] * width);
        for (int64_t h = 0; h < heads; h++) {
            T v;
            if (kind == ADD) {
                const T pre = sr[h] + dc[h];
                v = pre > 0 ? pre : coef * pre;
                if (aux)
                    aux[i + h] = pre;
            } else {
                v = FN(dot)(sr + h * k, dc + h * k, k);
                if (kind == COSINE) {
                    const T den = norms[r * heads + h] * norms_dst[c * heads + h];
                    v = den == 0 ? 0 : v / den;
                    if (aux) {
                        aux[i + h] = den;
                        aux2[i + h] = v;
                    }
                    v *= coef;
                }
            }
            s[i + h] = v * mask[e];
        }
    }
}

static SPECIALISED int FN(attention_fwd_rows)(
    int kind, int64_t n_rows, const int64_t *indptr, const int64_t *indices,
    int64_t nnz, const T *mask, int softmax, const T *src, const T *dst,
    const T *norms, const T *norms_dst, int64_t heads, int64_t k, T coef,
    const T *y, int64_t kp, int64_t max_row, T *scratch, T *shift, T *denom,
    T *restrict z)
{
    const int64_t yw = heads * kp, last = nnz - 1;
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t lo = indptr[r], hi = indptr[r + 1];
        if (lo < 0 || hi < lo || hi > nnz || hi - lo > max_row)
            return 1;
        T *zr = z + r * yw;
        for (int64_t j = 0; j < yw; j++)
            zr[j] = 0;
        if (softmax)
            for (int64_t h = 0; h < heads; h++) {
                shift[r * heads + h] = 0;
                denom[r * heads + h] = 1;
            }
        if (hi == lo)
            continue;
        FN(score_row)(kind, r, lo, hi, last, indices, mask, src, dst, norms,
                      norms_dst, heads, k, coef, scratch, 0, 0);
        if (softmax)
            for (int64_t h = 0; h < heads; h++)
                FN(softmax_row_stats)(scratch + h, hi - lo, heads,
                                      shift + r * heads + h,
                                      denom + r * heads + h);
        for (int64_t e = lo; e < hi; e++) {
            const T *yc = y + indices[e] * yw, *p = scratch + (e - lo) * heads;
            PREFETCH_ROW(y + indices[e + AHEAD < last ? e + AHEAD : last] * yw);
            for (int64_t h = 0; h < heads; h++)
                FN(axpy)(p[h], yc + h * kp, zr + h * kp, kp);
        }
    }
    return 0;
}

/* z[r] = sum_e psi_e y[c] with psi the (softmaxed) masked scores; shift and
 * denom (n, heads) receive the softmax statistics the backward recomputes
 * psi from (0 and 1 on an empty row), and are not touched without softmax. */
int FN(attention_forward)(int64_t n_rows, const int64_t *indptr,
                          const int64_t *indices, int64_t nnz, const T *mask,
                          int64_t kind, int64_t softmax, const T *src,
                          const T *dst, const T *norms, const T *norms_dst,
                          int64_t heads, int64_t k, double coef, const T *y,
                          int64_t kp, int64_t max_row, T *scratch, T *shift,
                          T *denom, T *z)
{
#define FWD(KIND, HEADS, KP) \
    FN(attention_fwd_rows)(KIND, n_rows, indptr, indices, nnz, mask, \
                           softmax != 0, src, dst, norms, norms_dst, HEADS, \
                           k, (T)coef, y, KP, max_row, scratch, shift, \
                           denom, z)
/* One head's rows at the widths the models use, with kp a literal: each
 * edge's axpy into z's row is then whole vectors, unrolled, with no tail.
 * The backward is not specialised so: measured 2-15 % slower. */
#define FWD_WIDTHS(KIND) \
    (heads != 1 ? FWD(KIND, heads, kp) \
     : kp == 8 ? FWD(KIND, 1, 8) \
     : kp == 16 ? FWD(KIND, 1, 16) \
     : kp == 32 ? FWD(KIND, 1, 32) \
     : kp == 64 ? FWD(KIND, 1, 64) : FWD(KIND, 1, kp))
    switch (kind) {
    case DOT: return FWD_WIDTHS(DOT);
    case ADD: return FWD_WIDTHS(ADD);
    case COSINE: return FWD_WIDTHS(COSINE);
    }
    return 1;
#undef FWD_WIDTHS
#undef FWD
}

static SPECIALISED int FN(attention_bwd_rows)(
    int kind, int mode, int64_t n_rows, const int64_t *indptr,
    const int64_t *indices, int64_t nnz, const T *mask, int softmax,
    const T *src, const T *dst, const T *norms, const T *norms_dst,
    int64_t heads, int64_t k, T coef, const T *y, const T *dz, int64_t kp,
    const T *shift, const T *denom, const T *row_inner, int64_t max_row,
    T *scratch, T *restrict d_y, T *restrict d_dst, T *restrict d_norm_row,
    T *restrict d_norm_col, T *restrict d_coef, T *restrict d_src)
{
    const int64_t yw = heads * kp, last = nnz - 1;
    const int64_t width = kind == ADD ? heads : heads * k;
    T *p = scratch, *d = p + max_row * heads, *aux = d + max_row * heads,
      *aux2 = aux + max_row * heads;
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t lo = indptr[r], hi = indptr[r + 1], deg = hi - lo;
        if (lo < 0 || hi < lo || hi > nnz || deg > max_row)
            return 1;
        T *dsr = d_src + r * width;
        if (mode != DY_ONLY) {
            for (int64_t j = 0; j < width; j++)
                dsr[j] = 0;
            if (kind == COSINE)
                for (int64_t h = 0; h < heads; h++)
                    d_norm_row[r * heads + h] = 0;
        }
        if (deg == 0)
            continue;
        const T *dzr = dz + r * yw, *sr = src + r * width;
        /* The row's masked scores again, and dpsi_e = dz[r] . y[c]. */
        FN(score_row)(kind, r, lo, hi, last, indices, mask, src, dst, norms,
                      norms_dst, heads, k, coef, p, mode == DY_ONLY ? 0 : aux,
                      aux2);
        if (mode != DY_ONLY)
            for (int64_t e = lo; e < hi; e++) {
                const T *yc = y + indices[e] * yw;
                PREFETCH_ROW(y + indices[e + AHEAD < last ? e + AHEAD : last] * yw);
                for (int64_t h = 0; h < heads; h++)
                    d[(e - lo) * heads + h] = FN(dot)(dzr + h * kp, yc + h * kp, kp);
            }
        /* Score gradient per head: psi from the saved statistics and its
         * softmax backward, the mask, then the score function's own
         * derivative; row-side scalars reduce here. */
        for (int64_t h = 0; h < heads; h++) {
            if (softmax) {
                const T sh = shift[r * heads + h], dn = denom[r * heads + h];
                T inner;
                if (mode == IN_ROW) {
                    T acc[LANES] = {0};
                    for (int64_t i = 0; i < deg; i++) {
                        const T ps = EXP(p[i * heads + h] - sh) / dn;
                        p[i * heads + h] = ps;
                        acc[i % LANES] += ps * d[i * heads + h];
                    }
                    inner = LANE_SUM(acc);
                } else {
                    for (int64_t i = 0; i < deg; i++)
                        p[i * heads + h] = EXP(p[i * heads + h] - sh) / dn;
                    inner = mode == GIVEN ? row_inner[r * heads + h] : 0;
                }
                if (mode != DY_ONLY)
                    for (int64_t i = 0; i < deg; i++)
                        d[i * heads + h] = p[i * heads + h] * (d[i * heads + h] - inner);
            }
            if (mode == DY_ONLY)
                continue;
            T acc[LANES] = {0}, cacc[LANES] = {0};
            for (int64_t i = 0; i < deg; i++) {
                const int64_t ih = i * heads + h;
                T g = d[ih] * mask[lo + i];
                if (kind == ADD) {
                    g = aux[ih] > 0 ? g : g * coef;
                    acc[i % LANES] += g;
                } else if (kind == COSINE) {
                    cacc[i % LANES] += g * aux2[ih]; /* d(score)/d(beta) */
                    g = aux[ih] == 0 ? 0 : g * coef / aux[ih];
                    aux2[ih] = -(g * aux2[ih]); /* d(norm product) */
                    acc[i % LANES] += aux2[ih] * norms_dst[indices[lo + i] * heads + h];
                }
                d[ih] = g;
            }
            if (kind == ADD)
                dsr[h] = LANE_SUM(acc);
            else if (kind == COSINE)
                d_norm_row[r * heads + h] = LANE_SUM(acc);
            if (kind == COSINE && d_coef)
                d_coef[h] += LANE_SUM(cacc);
        }
        /* Column-side exits scatter; dRow accumulates in edge order. */
        for (int64_t e = lo; e < hi; e++) {
            const int64_t c = indices[e], i = (e - lo) * heads;
            const int64_t ahead = indices[e + AHEAD < last ? e + AHEAD : last];
            PREFETCH_ROW(d_y + ahead * yw);
            if (kind != ADD && mode != DY_ONLY) {
                PREFETCH_ROW(dst + ahead * width);
                PREFETCH_ROW(d_dst + ahead * width);
            }
            for (int64_t h = 0; h < heads; h++) {
                FN(axpy)(p[i + h], dzr + h * kp, d_y + c * yw + h * kp, kp);
                if (mode == DY_ONLY)
                    continue;
                if (kind == ADD) {
                    d_dst[c * heads + h] += d[i + h];
                    continue;
                }
                FN(axpy)(d[i + h], dst + c * width + h * k, dsr + h * k, k);
                FN(axpy)(d[i + h], sr + h * k, d_dst + c * width + h * k, k);
                if (kind == COSINE)
                    d_norm_col[c * heads + h] += norms[r * heads + h] * aux2[i + h];
            }
        }
    }
    return 0;
}

#define BWD(KIND, MODE, HEADS) \
    FN(attention_bwd_rows)(KIND, MODE, n_rows, indptr, indices, nnz, mask, \
                           softmax != 0, src, dst, norms, norms_dst, HEADS, \
                           k, (T)coef, y, dz, kp, shift, denom, row_inner, \
                           max_row, scratch, d_y, d_dst, d_norm_row, \
                           d_norm_col, d_coef, d_src)
#define BWD_HEADS(KIND, MODE) \
    (heads == 1 ? BWD(KIND, MODE, 1) : BWD(KIND, MODE, heads))
#define BWD_KINDS(MODE) \
    switch (kind) { \
    case DOT: return BWD_HEADS(DOT, MODE); \
    case ADD: return BWD_HEADS(ADD, MODE); \
    case COSINE: return BWD_HEADS(COSINE, MODE); \
    } \
    return 1

/* A split row's modes (GIVEN, DY_ONLY) in a function of their own, so the
 * entry holds the same six IN_ROW instances a caller that never splits a row
 * runs: one function holding all eighteen measured slower on those. */
static NOINLINE int FN(attention_backward_split)(
    int64_t n_rows, const int64_t *indptr, const int64_t *indices, int64_t nnz,
    const T *mask, int64_t kind, int64_t softmax, const T *src, const T *dst,
    const T *norms, const T *norms_dst, int64_t heads, int64_t k, double coef,
    const T *y, const T *dz, int64_t kp, const T *shift, const T *denom,
    const T *row_inner, int64_t score_grad, int64_t max_row, T *scratch, T *d_y,
    T *d_dst, T *d_norm_row, T *d_norm_col, T *d_coef, T *d_src)
{
    if (!score_grad) {
        BWD_KINDS(DY_ONLY);
    }
    BWD_KINDS(GIVEN);
}

/* Every gradient exit of attention_forward in one row pass. Row-side exits
 * are written whole: d_src (dU, or dRow) and d_norm_row (COSINE). Column-side
 * ones are scattered into arrays the caller zeroed: d_y (m, heads, kp), d_dst
 * (dV, or dCol) and d_norm_col (COSINE). d_coef (heads; COSINE, may be NULL,
 * zeroed by the caller) takes d/d(beta): sum_e dS_e cos_e mask_e, row after
 * row. `row_inner` (n, heads; may be NULL) replaces the softmax's in-row
 * inner product; `score_grad` 0 computes d_y alone and leaves every other
 * output untouched. `scratch` holds four vectors. */
int FN(attention_backward)(int64_t n_rows, const int64_t *indptr,
                           const int64_t *indices, int64_t nnz, const T *mask,
                           int64_t kind, int64_t softmax, const T *src,
                           const T *dst, const T *norms, const T *norms_dst,
                           int64_t heads, int64_t k, double coef, const T *y,
                           const T *dz, int64_t kp, const T *shift,
                           const T *denom, const T *row_inner,
                           int64_t score_grad, int64_t max_row, T *scratch,
                           T *d_y, T *d_dst, T *d_norm_row, T *d_norm_col,
                           T *d_coef, T *d_src)
{
    if (row_inner || !score_grad)
        return FN(attention_backward_split)(
            n_rows, indptr, indices, nnz, mask, kind, softmax, src, dst, norms,
            norms_dst, heads, k, coef, y, dz, kp, shift, denom, row_inner,
            score_grad, max_row, scratch, d_y, d_dst, d_norm_row, d_norm_col,
            d_coef, d_src);
    BWD_KINDS(IN_ROW);
}
#undef BWD_KINDS
#undef BWD_HEADS
#undef BWD

/* ---- Sampler selection: each segment's k smallest keys.
 *
 * `keys` (num_keys, not NaN) concatenates num_seg segments of `lengths`, each
 * longer than k >= 1. Row s of `out` (num_seg, k) receives the within-segment
 * positions of segment s's k smallest keys, ascending. Equal keys rank by
 * position, lowest first, as a stable sort would: a later +inf (zero-weight)
 * key never displaces an earlier one. Row s of `out` and `scratch` (k keys)
 * hold the best k (key, position) pairs seen so far, sorted; a candidate
 * enters only if its key is strictly below the k-th, so most cost one
 * compare. Lengths that overrun num_keys or do not sum to it, a length <= k,
 * or k < 1 are refused. */
int FN(smallest_per_segment)(int64_t num_seg, const int64_t *lengths,
                             int64_t num_keys, const T *keys, int64_t k,
                             T *scratch, int64_t *out)
{
    if (k < 1)
        return 1;
    int64_t start = 0;
    for (int64_t s = 0; s < num_seg; s++) {
        const int64_t len = lengths[s];
        if (len <= k || len > num_keys - start)
            return 1;
        const T *seg = keys + start;
        int64_t *pos = out + s * k;
        for (int64_t i = 0; i < len; i++) {
            const T key = seg[i];
            if (i >= k && !(key < scratch[k - 1]))
                continue;
            int64_t j = i < k ? i : k - 1;
            for (; j > 0 && scratch[j - 1] > key; j--) {
                scratch[j] = scratch[j - 1];
                pos[j] = pos[j - 1];
            }
            scratch[j] = key;
            pos[j] = i;
        }
        for (int64_t i = 1; i < k; i++) { /* the winners in position order */
            const int64_t p = pos[i];
            int64_t j = i;
            for (; j > 0 && pos[j - 1] > p; j--)
                pos[j] = pos[j - 1];
            pos[j] = p;
        }
        start += len;
    }
    return start != num_keys;
}

/* ---- One sampled hop: selection, edge gather, compaction and local ids.
 *
 * `dst` (num_dst, strictly increasing ids in [0, n)) are the hop's
 * destinations; `indptr` / `indices` / `data` the (n, n) pattern, rows read as
 * in-adjacency. A destination of degree deg keeps every edge when k < 0 or
 * deg <= k, else k of them: row j of `picked` (within-row positions, sorted,
 * from smallest_per_segment) for the j-th such destination, or, when `picked`
 * is NULL, Floyd's choice from row j of `u` (k uniforms in [0, 1)): pick i
 * is floor(u_i * (deg - k + i + 1)), or deg - k + i if that position was
 * already taken, which exceeds every earlier pick. Kept edges stay in CSR
 * order, so sampling_graph._floyd and this pick the same edges.
 *
 * The sources of the hop are the destinations and the kept edges' columns;
 * `src_nodes` (room for num_dst + kept edges) receives them distinct and
 * ascending, `num_src` their count, `dst_positions` each destination's
 * place among them, `out_indptr` (num_dst + 1) / `out_indices` / `out_data`
 * the rectangular block over local column ids: np.unique's compaction, bit
 * for bit. `bits` (one bit per vertex, zero on entry and on return) marks
 * the sources as they are met; they are read back in word order over the
 * words between the lowest and the highest, O(span / 64 + sources), and
 * `ranks` (one entry per word, only read where this call wrote it) keeps the
 * count of sources below each word, so a source's local id is its word's
 * rank plus the marked bits below it in the word. Destinations that are out
 * of range or not strictly increasing are refused before anything is
 * written. */
SMALL int FN(sample_hop)(int64_t n, const int64_t *indptr, const int64_t *indices,
                   const T *data, int64_t num_dst, const int64_t *dst,
                   int64_t k, const double *u, const int64_t *picked,
                   uint64_t *bits, int64_t *ranks, int64_t *dst_positions,
                   int64_t *out_indptr, int64_t *out_indices, T *out_data,
                   int64_t *src_nodes, int64_t *num_src)
{
    for (int64_t i = 0; i < num_dst; i++)
        if (dst[i] < 0 || dst[i] >= n || (i > 0 && dst[i] <= dst[i - 1]))
            return 1;
    int64_t d = 0, lo = n, hi = -1, e = 0, over = 0;
#define MEET(v) \
    do { \
        const int64_t v_ = (v); \
        const uint64_t bit_ = (uint64_t)1 << (v_ & 63); \
        if (!(bits[v_ >> 6] & bit_)) { \
            bits[v_ >> 6] |= bit_; \
            src_nodes[d++] = v_; \
            lo = v_ < lo ? v_ : lo; \
            hi = v_ > hi ? v_ : hi; \
        } \
    } while (0)
    for (int64_t i = 0; i < num_dst; i++)
        MEET(dst[i]);
    out_indptr[0] = 0;
    for (int64_t i = 0; i < num_dst; i++) {
        const int64_t start = indptr[dst[i]], deg = indptr[dst[i] + 1] - start;
        int64_t *row = out_indices + e, count = deg;
        if (k < 0 || deg <= k) {
            for (int64_t j = 0; j < deg; j++)
                row[j] = j;
        } else if (picked) {
            count = k;
            for (int64_t j = 0; j < k; j++)
                row[j] = picked[over * k + j];
            over++;
        } else { /* Floyd, each pick inserted in order */
            count = k;
            for (int64_t j = 0; j < k; j++) {
                const int64_t m = deg - k + j + 1;
                int64_t t = (int64_t)(u[over * k + j] * (double)m), at = j;
                for (int64_t q = 0; q < j; q++)
                    t = row[q] == t ? m - 1 : t;
                for (; at > 0 && row[at - 1] > t; at--)
                    row[at] = row[at - 1];
                row[at] = t;
            }
            over++;
        }
        for (int64_t j = 0; j < count; j++) {
            const int64_t c = indices[start + row[j]];
            out_data[e + j] = data[start + row[j]];
            row[j] = c;
            MEET(c);
        }
        e += count;
        out_indptr[i + 1] = e;
    }
#undef MEET
    int64_t at = 0;
    for (int64_t w = lo >> 6; w <= hi >> 6; w++) {
        ranks[w] = at;
        for (uint64_t b = bits[w]; b; b &= b - 1)
            src_nodes[at++] = (w << 6) + __builtin_ctzll(b);
    }
#define LOCAL(v) \
    (ranks[(v) >> 6] + \
     __builtin_popcountll(bits[(v) >> 6] & (((uint64_t)1 << ((v) & 63)) - 1)))
    for (int64_t i = 0; i < num_dst; i++)
        dst_positions[i] = LOCAL(dst[i]);
    for (int64_t j = 0; j < e; j++)
        out_indices[j] = LOCAL(out_indices[j]);
#undef LOCAL
    for (int64_t w = lo >> 6; w <= hi >> 6; w++)
        bits[w] = 0;
    *num_src = d;
    return 0;
}

#endif
