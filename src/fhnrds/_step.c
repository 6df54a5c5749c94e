/* The IMEX step of fhnrds.model.solve_batch, one call per step, the norm
 * sums of fhnrds.fields and of the step's records, and the OU block fill
 * and the Gaussian draws of fhnrds.noise.
 *
 * Every operation is one IEEE double operation, in the order of the numpy
 * expressions it replaces (model._Step); built with -ffp-contract=off and
 * without -ffast-math, each rounds as numpy's does, so a step is bitwise
 * the numpy step, and a draw is bitwise scipy.special.ndtri of the numpy
 * hash, whose libm log and sqrt it calls too.  That holds at -O3 and in
 * each x86-64 level built (below): a vector lane rounds as the scalar
 * operation would, no FMA is formed, and no float reduction is reordered.
 * So the draws may run in passes, the middle rational of ndtri vectorized,
 * and the OU windows side by side, each value rounded as one at a time.
 * Point i of row b sits at i*ps + b*rs:
 * rows innermost (ps = B, rs = 1) on 1-D grids, where the step solves
 * across the rows at once on the plan's LDL^T factor, and row-major
 * (ps = 1, rs = n) on 2-D grids, whose caller solves.  The explicit update
 * is written once (EXPLICIT), on doubles along a 2-D row and on vectors of
 * rows in the 1-D sweep, and the whole step (STEP) is built once per
 * level and picked by one CPU test.  The 1-D sweep runs on whole vectors
 * of rows, 4 lanes in the x86-64-v3 code and 2 in the baseline, and
 * carries each row's forward elimination and back substitution in
 * registers; it divides by D in the forward pass, as soon as a right-hand
 * side is final, which rounds as dptts2's division in the back
 * substitution does.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define INLINE static inline __attribute__((always_inline))

typedef struct {
    int64_t n, B;              /* points of a row, rows; 1-D: B is a multiple of 4 */
    int64_t ps, rs;            /* strides of a point and of a row in u and v */
    double *u, *v;
    double *shifted, *f;       /* u + h1*z1 and f of it, packed as u with A rows; f NULL: p = 4 */
    const double *h1, *lap_h1, *h2, *gprof, *hprof;
    const double *z1, *z2;     /* S values per step */
    int64_t S;
    const int64_t *group;      /* the z series of each row */
    double sign, dt, alpha, beta, ev, gain;
    double threshold;          /* model.BLOWUP_THRESHOLD */
    const double *d, *e;       /* 1-D: the LDL^T factor of T; d NULL: the caller solves (2-D) */
    const double *w;           /* periodic: T^-1 u of the Sherman-Morrison correction; else NULL */
    double scale;
    double *scratch;           /* 3*B values: each row's z1, alpha*z2 and beta*z1 (row_z) */
} fhn_plan;

/* A value is out of range when |x| <= threshold fails, NaN included. */
INLINE int out_of_range(double x, double threshold) { return !(fabs(x) <= threshold); }

/* z1, alpha*z2 and beta*z1 of the rows b < m at step j. */
static void row_z(const fhn_plan *p, int64_t m, int64_t j, double *z1, double *az2, double *bz1)
{
    const double *z1s = p->z1 + j * p->S, *z2s = p->z2 + j * p->S;
    for (int64_t b = 0; b < m; b++) {
        const int64_t g = p->group[b];
        z1[b] = z1s[g];
        az2[b] = p->alpha * z2s[g];
        bz1[b] = p->beta * z1s[g];
    }
}

/* shifted = u + h1*z1 for the rows b < A at step j, for f outside the kernel. */
void fhn_shift(const fhn_plan *p, int64_t A, int64_t j)
{
    double *z1 = p->scratch, *az2 = z1 + p->B, *bz1 = az2 + p->B;
    row_z(p, A, j, z1, az2, bz1);
    for (int64_t i = 0; i < p->n; i++)
        for (int64_t b = 0; b < A; b++) {
            const int64_t at = i * p->ps + b * p->rs;
            p->shifted[p->ps == 1 ? at : i * A + b] = p->u[at] + p->h1[i] * z1[b];
        }
}

/* The explicit update of one point, the one definition of both grids: on
 * TYPE double along a 2-D row, and on TYPE a vector of rows in the 1-D
 * sweep, where the point's values (g, h, h1, lh, h2) stay doubles.  From
 * the old uo and vo, the row's z1, az2 = alpha*z2 and bz1 = beta*z1, the
 * forcing values g = G*gf and h = H*hf, and K's sign, dt, alpha, beta, ev
 * and gain, it sets, one IEEE operation at a time in this order,
 *   rhs = uo + dt*(f(uo + h1*z1) + g - alpha*vo + lh*z1 - h2*az2)
 *   vn  = ev*vo + gain*(beta*uo + h + h1*bz1)
 * with f read at fp, or formed as Nonlinearity does for p = 4 (fp NULL),
 * ((s*s)*s)*sign. */
#define EXPLICIT(TYPE, rhs, vn, uo, vo, fp, g, h, h1, lh, h2, z1, az2, bz1, K) \
    do {                                                                       \
        const TYPE uo_ = (uo), vo_ = (vo);                                     \
        TYPE f_;                                                               \
        if (fp) {                                                              \
            f_ = *(fp);                                                        \
        } else {                                                               \
            const TYPE s_ = uo_ + (h1) * (z1);                                 \
            f_ = s_ * s_;                                                      \
            f_ = f_ * s_;                                                      \
            f_ = f_ * (K).sign;                                                \
        }                                                                      \
        TYPE ac_ = f_ + (g);                                                   \
        ac_ = ac_ - vo_ * (K).alpha;                                           \
        ac_ = ac_ + (lh) * (z1);                                               \
        ac_ = ac_ - (h2) * (az2);                                              \
        ac_ = ac_ * (K).dt;                                                    \
        TYPE bv_ = uo_ * (K).beta + (h);                                       \
        bv_ = bv_ + (h1) * (bz1);                                              \
        bv_ = bv_ * (K).gain;                                                  \
        (rhs) = uo_ + ac_;                                                     \
        (vn) = vo_ * (K).ev + bv_;                                             \
    } while (0)

/* KEEP + 4 - r: the keep mask of a vector whose first r lanes are active
 * (below), read from memory, where the compiler cannot see its lanes and
 * so blends with whole-vector logic, not lane by lane. */
static const int64_t KEEP[8] = {0, 0, 0, 0, -1, -1, -1, -1};

/* STEP(NAME, VD, VI, L, ATTR) defines NAME(p, A, gf, hf), the step of the
 * rows b < A after row_z, each function carrying ATTR.  A 2-D row takes the
 * explicit update point after point (NAME_row), a loop the compiler
 * vectorizes, and u gets rhs, for the caller to solve.  A 1-D grid is
 * swept on vectors VD of L doubles (VI: L int64), in tiles of up to four
 * vectors of rows, as even as the count allows; within a tile the explicit
 * update and dptts2's forward elimination run point after point, then the
 * back substitution, each recurrence carried in registers: the forward
 * pass keeps each row's rhs and stores rhs / d[i] once rhs is final, so
 * the back substitution is y = q[i] - y_next*e[i], the same operations in
 * the same order as dptts2's x[i]/d[i] - x[i+1]*e[i].  A periodic grid
 * then applies x - ((x_0 - x_(n-1))*scale)*w, whose values alone decide
 * the flag.  Vectors are loaded and stored unaligned.  The lanes of the
 * last vector past A are computed, from the zeros or whatever values their
 * rows hold, but not stored (`keep`) and not flagged; the packed f is read
 * one vector past A*n there, which its buffer pads. */
#define STEP(NAME, VD, VI, L, ATTR)                                                        \
    /* The explicit update of one 2-D row; f is its packed f, or NULL */                   \
    ATTR INLINE void NAME##_row(const fhn_plan *p, double *restrict u, double *restrict v, \
                                const double *restrict f, double gf, double hf,            \
                                double z1, double az2, double bz1)                         \
    {                                                                                      \
        const struct { double sign, dt, alpha, beta, ev, gain; } k = {                     \
            p->sign, p->dt, p->alpha, p->beta, p->ev, p->gain};                            \
        const double *h1 = p->h1, *lh = p->lap_h1, *h2 = p->h2;                            \
        const double *gprof = p->gprof, *hprof = p->hprof;                                 \
        for (int64_t i = 0; i < p->n; i++)                                                 \
            EXPLICIT(double, u[i], v[i], u[i], v[i], f ? f + i : NULL, gprof[i] * gf,      \
                     hprof[i] * hf, h1[i], lh[i], h2[i], z1, az2, bz1, k);                 \
    }                                                                                      \
                                                                                           \
    /* x in the lanes where keep is 0, old where it is -1 */                               \
    ATTR INLINE VD NAME##_blend(VD x, VD old, VI keep)                                     \
    {                                                                                      \
        return (VD)(((VI)x & ~keep) | ((VI)old & keep));                                   \
    }                                                                                      \
                                                                                           \
    /* -1 in the lanes that are out of range, NaN included */                              \
    ATTR INLINE VI NAME##_out(VD x, double threshold)                                      \
    {                                                                                      \
        return ~((VD)((VI)x & INT64_MAX) <= threshold);                                    \
    }                                                                                      \
                                                                                           \
    ATTR INLINE VD NAME##_splat(double x)                                                  \
    {                                                                                      \
        VD v;                                                                              \
        for (int l = 0; l < L; l++)                                                        \
            v[l] = x;                                                                      \
        return v;                                                                          \
    }                                                                                      \
                                                                                           \
    /* the plan's constants in every lane, held in registers, where the                    \
     * stores to u and v could not overwrite them */                                       \
    struct NAME##_constants { VD sign, dt, alpha, beta, ev, gain; };                       \
                                                                                           \
    /* The explicit update and forward elimination of point i of the T vectors             \
     * of rows from b0, with rhs carried in c (none before i = 0). */                      \
    ATTR INLINE void NAME##_point(const fhn_plan *p, int64_t A, int64_t b0, const int T,   \
                                  int64_t i, const int first, double gf, double hf,        \
                                  struct NAME##_constants kc, const VD *z1,                \
                                  const VD *az2, const VD *bz1, const VI *keep, VD *c)     \
    {                                                                                      \
        const int64_t B = p->B;                                                            \
        const double *f = p->f;                                                            \
        const double g = p->gprof[i] * gf, h = p->hprof[i] * hf;                           \
        const double h1 = p->h1[i], lh = p->lap_h1[i], h2 = p->h2[i], d = p->d[i];         \
        const double em = first ? 0.0 : p->e[i - 1];                                       \
        for (int k = 0; k < T; k++) {                                                      \
            VD *u = (VD *)(p->u + i * B + b0 + k * L);                                     \
            VD *v = (VD *)(p->v + i * B + b0 + k * L);                                     \
            const VD uo = *u, vo = *v;                                                     \
            VD rhs, vn;                                                                    \
            EXPLICIT(VD, rhs, vn, uo, vo, f ? (const VD *)(f + i * A + b0 + k * L) : NULL, \
                     g, h, h1, lh, h2, z1[k], az2[k], bz1[k], kc);                         \
            if (!first)                                                                    \
                rhs = rhs - c[k] * em;                                                     \
            c[k] = rhs;                                                                    \
            *u = NAME##_blend(rhs / d, uo, keep[k]);                                       \
            *v = NAME##_blend(vn, vo, keep[k]);                                            \
        }                                                                                  \
    }                                                                                      \
                                                                                           \
    /* One tile: the T vectors of rows from b0; returns whether a value of                 \
     * the new u in the rows b < A is out of range. */                                     \
    ATTR INLINE int NAME##_tile(const fhn_plan *p, int64_t A, int64_t b0, const int T,     \
                                double gf, double hf)                                      \
    {                                                                                      \
        const int64_t n = p->n, B = p->B;                                                  \
        const double threshold = p->threshold;                                             \
        double *const x = p->u + b0;                                                       \
        VD c[4], y[4], last[4];                                                            \
        /* keep: -1 in the lanes of the rows past A, in the tile's last vector */          \
        VI bad = {0}, keep[4] = {{0}};                                                     \
        const int64_t active = A - b0 - (T - 1) * L; /* rows of the last vector */         \
        keep[T - 1] = *(const VI *)(KEEP + 4 - (active < L ? active : L));                 \
        const struct NAME##_constants kc = {                                               \
            NAME##_splat(p->sign), NAME##_splat(p->dt), NAME##_splat(p->alpha),            \
            NAME##_splat(p->beta), NAME##_splat(p->ev), NAME##_splat(p->gain)};            \
        VD z1[4], az2[4], bz1[4];                                                          \
        for (int k = 0; k < T; k++) {                                                      \
            z1[k] = *(const VD *)(p->scratch + b0 + k * L);                                \
            az2[k] = *(const VD *)(p->scratch + B + b0 + k * L);                           \
            bz1[k] = *(const VD *)(p->scratch + 2 * B + b0 + k * L);                       \
        }                                                                                  \
        NAME##_point(p, A, b0, T, 0, 1, gf, hf, kc, z1, az2, bz1, keep, c);                \
        for (int64_t i = 1; i < n; i++)                                                    \
            NAME##_point(p, A, b0, T, i, 0, gf, hf, kc, z1, az2, bz1, keep, c);            \
        for (int k = 0; k < T; k++) {                                                      \
            y[k] = last[k] = *(const VD *)(x + (n - 1) * B + k * L);                       \
            bad |= NAME##_out(y[k], threshold) & ~keep[k];                                 \
        }                                                                                  \
        for (int64_t i = n - 2; i >= 0; i--) {                                             \
            const double e = p->e[i];                                                      \
            for (int k = 0; k < T; k++) {                                                  \
                VD *at = (VD *)(x + i * B + k * L);                                        \
                const VD q = *at;                                                          \
                y[k] = q - y[k] * e;                                                       \
                *at = NAME##_blend(y[k], q, keep[k]);                                      \
                bad |= NAME##_out(y[k], threshold) & ~keep[k];                             \
            }                                                                              \
        }                                                                                  \
        if (p->w) {                                                                        \
            VD coef[4];                                                                    \
            bad = (VI){0}; /* the corrected values decide */                               \
            for (int k = 0; k < T; k++)                                                    \
                coef[k] = (y[k] - last[k]) * p->scale;                                     \
            for (int64_t i = 0; i < n; i++) {                                              \
                const double w = p->w[i];                                                  \
                for (int k = 0; k < T; k++) {                                              \
                    VD *at = (VD *)(x + i * B + k * L);                                    \
                    const VD old = *at, yc = old - coef[k] * w;                            \
                    *at = NAME##_blend(yc, old, keep[k]);                                  \
                    bad |= NAME##_out(yc, threshold) & ~keep[k];                           \
                }                                                                          \
            }                                                                              \
        }                                                                                  \
        int any = 0;                                                                       \
        for (int l = 0; l < L; l++)                                                        \
            any |= bad[l] != 0;                                                            \
        return any;                                                                        \
    }                                                                                      \
                                                                                           \
    ATTR __attribute__((noinline)) static int NAME(const fhn_plan *p, int64_t A,           \
                                                   double gf, double hf)                   \
    {                                                                                      \
        if (!p->d) { /* 2-D */                                                             \
            const double *z1 = p->scratch, *az2 = z1 + p->B, *bz1 = az2 + p->B;            \
            for (int64_t b = 0; b < A; b++) {                                              \
                double *u = p->u + b * p->rs, *v = p->v + b * p->rs;                       \
                if (p->f)                                                                  \
                    NAME##_row(p, u, v, p->f + b * p->n, gf, hf, z1[b], az2[b], bz1[b]);   \
                else                                                                       \
                    NAME##_row(p, u, v, NULL, gf, hf, z1[b], az2[b], bz1[b]);              \
            }                                                                              \
            return 0;                                                                      \
        }                                                                                  \
        const int64_t vectors = (A + L - 1) / L, tiles = (vectors + 3) / 4;                \
        int bad = 0;                                                                       \
        for (int64_t t = 0, b0 = 0; t < tiles; t++) {                                      \
            const int64_t T = vectors / tiles + (t < vectors % tiles);                     \
            bad |= T == 4   ? NAME##_tile(p, A, b0, 4, gf, hf)                             \
                   : T == 3 ? NAME##_tile(p, A, b0, 3, gf, hf)                             \
                   : T == 2 ? NAME##_tile(p, A, b0, 2, gf, hf)                             \
                            : NAME##_tile(p, A, b0, 1, gf, hf);                            \
            b0 += T * L;                                                                   \
        }                                                                                  \
        return bad;                                                                        \
    }

/* Vectors of 2 and 4 doubles and int64s, loaded and stored at any 8-byte
 * alignment, since numpy aligns its buffers to 16 bytes only. */
typedef double vd2 __attribute__((vector_size(16), aligned(8)));
typedef int64_t vi2 __attribute__((vector_size(16), aligned(8)));
typedef double vd4 __attribute__((vector_size(32), aligned(8)));
typedef int64_t vi4 __attribute__((vector_size(32), aligned(8)));

/* The step (STEP) is built once for each x86-64 level, its 1-D sweep on 4
 * lanes (32-byte vectors) at x86-64-v3 (AVX2) and on 2 lanes (16-byte
 * vectors) in the baseline, where 32-byte vectors split in two ran 3-4x
 * slower, and its 2-D loop over points vectorized at each level; fhn_step
 * picks one by fhn_isa's CPU test, which names the level: 3, or 0 for the
 * baseline.  That is the step's one dispatch.  fhn_scan and fhn_norms,
 * whose loops vectorize, and fhn_increments, whose middle pass does, carry
 * an x86-64-v3 and a baseline clone (CLONES); the dynamic loader picks one by
 * the same test when the object loads.  fhn_ou_blocks has no clone: its
 * clone measured no faster.  The v3 code is built only by GCC 12 or later,
 * the version tested (GCC 11's target_clones is reported to reject x86-64
 * levels), and only on glibc, whose ifunc the clones need; every other
 * compiler, C library and machine builds the baseline copy alone, with the
 * 4-lane sweep where it targets AVX2. */
#if defined(__x86_64__) && defined(__GLIBC__) && !defined(__clang__) && __GNUC__ >= 12
#define CLONES __attribute__((target_clones("arch=x86-64-v3", "default")))
int fhn_isa(void) { return __builtin_cpu_supports("x86-64-v3") ? 3 : 0; }
STEP(step4, vd4, vi4, 4, __attribute__((target("arch=x86-64-v3"))))
STEP(step2, vd2, vi2, 2, )
static int step(const fhn_plan *p, int64_t A, double gf, double hf)
{
    return fhn_isa() ? step4(p, A, gf, hf) : step2(p, A, gf, hf);
}
#else
#define CLONES
int fhn_isa(void) { return 0; }
#ifdef __AVX2__
STEP(step, vd4, vi4, 4, )
#else
STEP(step, vd2, vi2, 2, )
#endif
#endif

/* Whether a value of the rows b < A of u is out of range, read in memory
 * order: one run of A*n values on 2-D grids, n runs of A at stride B on
 * 1-D grids.  The loop over a run vectorizes in the x86-64-v3 clone, a
 * flag as wide as a double letting it; GCC 12 leaves it scalar in the
 * baseline. */
CLONES int fhn_scan(const fhn_plan *p, int64_t A)
{
    const double threshold = p->threshold;
    const int one_run = p->ps == 1;
    const int64_t runs = one_run ? 1 : p->n, length = one_run ? A * p->n : A;
    int64_t bad = 0;
    for (int64_t r = 0; r < runs; r++) {
        const double *run = p->u + r * p->ps;
        for (int64_t k = 0; k < length; k++)
            bad |= out_of_range(run[k], threshold);
    }
    return bad != 0;
}

/* The norm sums of fhnrds.fields, which model.solve_batch's records take
 * too: for each of the m rows rows[r] of x, whose point i sits at
 * x[i*ps + rows[r]*rs], with B rows in all,
 *   out[r]       = the sum of x*x,
 *   out[m + r]   = the sum of |x|^p               (sums >= 2),
 *   out[2*m + r] = the sum of |x + h1[i]*z[r]|^p  (sums = 3),
 * each adding its n points in point order, i = 0, 1, ..., n-1.  |x|^p is
 * (x*x)*(x*x) for p = 4; the product a*a*...*a of p factors a = |x|, in
 * that order, for any other integer p from 1 to NORM_PRODUCTS; and libm's
 * pow(|x|, p) for any other p, whose last bit may differ between CPUs
 * (glibc picks an FMA variant of pow).  So a row's sums depend neither on
 * the layout nor on the other rows nor on the build.  Consecutive rows at
 * unit row stride (the 1-D step's layout) are summed NORM_ROWS at a time,
 * side by side, read in place as the lanes of a loop that vectorizes: no
 * sum is reordered, each lane carrying one row's.  Any other rows (2-D
 * rows, a single field, an index list) are summed one at a time along
 * their points, each sum carried in a register.  Returns -1, writing
 * nothing, if a row is outside 0 <= rows[r] < B. */
#define NORM_ROWS 64
#define NORM_PRODUCTS 64

/* |x|^p of one value x, with x2 = x*x: kind 4 (p = 4), 1 (q factors), 0 (pow) */
INLINE double norm_power(double x, double x2, double p, int64_t q, const int kind)
{
    if (kind == 4)
        return x2 * x2;
    const double a = fabs(x);
    if (kind == 0)
        return pow(a, p);
    double y = a;
    for (int64_t k = 1; k < q; k++)
        y = y * a;
    return y;
}

/* The sums of the m <= NORM_ROWS rows from x + rows[0] (lanes) or of the
 * m rows rows[r] one at a time, into out at stride `stride` */
INLINE void norm_rows(const double *x, int64_t n, int64_t ps, int64_t rs, const int64_t *rows,
                      int64_t m, double p, int64_t q, const double *h1, const double *z,
                      double *out, int64_t stride, const int kind, const int sums, const int lanes)
{
    if (lanes) {
        double sq[NORM_ROWS] = {0}, pw[NORM_ROWS] = {0}, spw[NORM_ROWS] = {0};
        for (int64_t i = 0; i < n; i++) {
            const double *at = x + i * ps + rows[0];
            const double h = sums == 3 ? h1[i] : 0.0;
            for (int64_t r = 0; r < m; r++) {
                const double v = at[r], v2 = v * v;
                sq[r] += v2;
                if (sums >= 2)
                    pw[r] += norm_power(v, v2, p, q, kind);
                if (sums == 3) {
                    const double s = v + h * z[r];
                    spw[r] += norm_power(s, s * s, p, q, kind);
                }
            }
        }
        for (int64_t r = 0; r < m; r++) {
            out[r] = sq[r];
            if (sums >= 2)
                out[stride + r] = pw[r];
            if (sums == 3)
                out[2 * stride + r] = spw[r];
        }
        return;
    }
    for (int64_t r = 0; r < m; r++) {
        const double *at = x + rows[r] * rs;
        double sq = 0.0, pw = 0.0, spw = 0.0;
        for (int64_t i = 0; i < n; i++) {
            const double v = at[i * ps], v2 = v * v;
            sq += v2;
            if (sums >= 2)
                pw += norm_power(v, v2, p, q, kind);
            if (sums == 3) {
                const double s = v + h1[i] * z[r];
                spw += norm_power(s, s * s, p, q, kind);
            }
        }
        out[r] = sq;
        if (sums >= 2)
            out[stride + r] = pw;
        if (sums == 3)
            out[2 * stride + r] = spw;
    }
}

CLONES int fhn_norms(const double *x, int64_t n, int64_t ps, int64_t rs, int64_t B,
                     const int64_t *rows, int64_t m, int64_t sums, double p,
                     const double *h1, const double *z, double *out)
{
    int lanes = rs == 1 && m > 1;
    for (int64_t r = 0; r < m; r++) {
        if (rows[r] < 0 || rows[r] >= B)
            return -1;
        lanes &= rows[r] == rows[0] + r;
    }
    const int kind = p == 4.0 ? 4 : p >= 1.0 && p <= NORM_PRODUCTS && p == (double)(int64_t)p ? 1 : 0;
    const int64_t q = kind == 1 ? (int64_t)p : 0;
    for (int64_t r0 = 0; r0 < m; r0 += NORM_ROWS) {
        const int64_t mb = m - r0 < NORM_ROWS ? m - r0 : NORM_ROWS;
        const double *zr = z ? z + r0 : NULL;
#define NORM_ROWS_OF(KIND, SUMS)                                                              \
    lanes ? norm_rows(x, n, ps, rs, rows + r0, mb, p, q, h1, zr, out + r0, m, KIND, SUMS, 1) \
          : norm_rows(x, n, ps, rs, rows + r0, mb, p, q, h1, zr, out + r0, m, KIND, SUMS, 0)
        if (sums == 1)
            NORM_ROWS_OF(4, 1);
        else if (kind == 4)
            sums == 2 ? NORM_ROWS_OF(4, 2) : NORM_ROWS_OF(4, 3);
        else if (kind == 1)
            sums == 2 ? NORM_ROWS_OF(1, 2) : NORM_ROWS_OF(1, 3);
        else
            sums == 2 ? NORM_ROWS_OF(0, 2) : NORM_ROWS_OF(0, 3);
#undef NORM_ROWS_OF
    }
    return 0;
}

/* One step of the rows b < A at step j of the z series, with the forcing
 * factors gf and hf: the explicit update on both grids, with the solve on
 * 1-D grids.  Returns whether a value of the new u is out of range (0 on
 * 2-D grids, whose caller solves and then scans). */
int fhn_step(const fhn_plan *p, int64_t A, int64_t j, double gf, double hf)
{
    double *z1 = p->scratch, *az2 = z1 + p->B, *bz1 = az2 + p->B;
    /* 1-D: the rows of A's last vector of 4 too, whose spare lanes read them */
    row_z(p, p->d ? (A + 3) & ~(int64_t)3 : A, j, z1, az2, bz1);
    return step(p, A, gf, hf);
}

/* The forced parts of m OU blocks of B values (fhnrds.noise.OuProcess).
 * Window i is the 2B-1 increments from xi + i*B; y = xi[k] + a*y runs over
 * it from y = xi[i*B], and its last B values are added to block i, which
 * holds the decayed stationary draw.  Each y is the one rounded sum that
 * lfilter([1], [1, -a]) forms as xi[k] - (-a)*y.  The windows run OU_LANES
 * at a time, one independent chain each, so the chains' latencies overlap;
 * a group of fewer windows repeats its last window in the spare lanes and
 * writes it once. */
#define OU_LANES 4

void fhn_ou_blocks(const double *xi, int64_t m, int64_t B, double a, double *blocks)
{
    for (int64_t i = 0; i < m; i += OU_LANES) {
        const int64_t lanes = m - i < OU_LANES ? m - i : OU_LANES;
        const double *x[OU_LANES];
        double y[OU_LANES];
        for (int j = 0; j < OU_LANES; j++) {
            x[j] = xi + (i + (j < lanes ? j : lanes - 1)) * B;
            y[j] = x[j][0];
        }
        for (int64_t k = 1; k < B; k++)
            for (int j = 0; j < OU_LANES; j++)
                y[j] = x[j][k] + a * y[j];
        for (int j = 0; j < lanes; j++)
            blocks[(i + j) * B] += y[j];
        for (int64_t k = 1; k < B; k++) {
            for (int j = 0; j < OU_LANES; j++)
                y[j] = x[j][B - 1 + k] + a * y[j];
            for (int j = 0; j < lanes; j++)
                blocks[(i + j) * B + k] += y[j];
        }
    }
}

/* The normal draws of fhnrds.noise: a splitmix64-style counter hash of
 * (seed, component, tag, step) gives a uniform in (0, 1), Cephes' ndtri
 * maps it to N(0, 1), and one product scales it.  The uint64 operations
 * wrap modulo 2^64, as numpy's do. */
static const uint64_t GOLDEN = 0x9E3779B97F4A7C15u;

INLINE uint64_t mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9u;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBu;
    return x ^ (x >> 31);
}

INLINE uint64_t stream_key(uint64_t seed, int64_t component, uint64_t tag)
{
    return mix64(seed + GOLDEN * (uint64_t)(component + 1) + tag);
}

/* The top 53 bits of the hash of step k, offset by half a unit so that the
 * uniform is never 0, and at most 1 - 2^-53: the sum rounds up to 1 for the
 * largest, which the clamp takes back to the uniform below it.  The clamp is
 * a compare and select, a min instruction, where fmin would be a libm call. */
INLINE double uniform01(uint64_t key, int64_t k)
{
    const uint64_t x = mix64(mix64((uint64_t)k * GOLDEN + key) ^ key);
    const double u = (double)(int64_t)(x >> 11) * 0x1p-53 + 0x1p-54;
    return u < 1.0 - 0x1p-53 ? u : 1.0 - 0x1p-53;
}

/* Cephes' ndtri (S. L. Moshier, Methods and Programs for Mathematical
 * Functions, 1989), with its coefficients and its order of operations,
 * as scipy.special.ndtri evaluates it: a rational function of (y - 1/2)^2
 * for exp(-2) < y < 1 - exp(-2), and x - log(x)/x - R(1/x) with
 * x = sqrt(-2 log y) in the tails, whose rational R changes at x = 8. */
static const double NDTRI_P0[5] = {
    -5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
    1.39312609387279679503E1, -1.23916583867381258016E0,
};
static const double NDTRI_Q0[8] = {
    1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
    -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
    1.59056225126211695515E1, -1.18331621121330003142E0,
};
static const double NDTRI_P1[9] = {
    4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
    4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
    -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4,
};
static const double NDTRI_Q1[8] = {
    1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
    1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
    -3.80806407691578277194E-2, -9.33259480895457427372E-4,
};
static const double NDTRI_P2[9] = {
    3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
    1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
    3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9,
};
static const double NDTRI_Q2[8] = {
    6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
    2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
    2.89247864745380683936E-6, 6.79019408009981274425E-9,
};

/* Horner's rule on c[0] x^n + ... + c[n], and on x^n + c[0] x^(n-1) + ... */
INLINE double polevl(double x, const double *c, int n)
{
    double a = c[0];
    for (int i = 1; i <= n; i++)
        a = a * x + c[i];
    return a;
}

INLINE double p1evl(double x, const double *c, int n)
{
    double a = x + c[0];
    for (int i = 1; i < n; i++)
        a = a * x + c[i];
    return a;
}

static const double NDTRI_E2 = 0.13533528323661269189; /* exp(-2) */

/* The middle rational of ndtri, for NDTRI_E2 < y <= 1 - NDTRI_E2; free of
 * branches, so a loop of it vectorizes. */
INLINE double ndtri_mid(double y)
{
    y = y - 0.5;
    const double y2 = y * y;
    const double x = y + y * (y2 * polevl(y2, NDTRI_P0, 4) / p1evl(y2, NDTRI_Q0, 8));
    return x * 2.50662827463100050242E0; /* sqrt(2 pi) */
}

INLINE int ndtri_is_mid(double y) { return NDTRI_E2 < y && y <= 1.0 - NDTRI_E2; }

INLINE double ndtri(double y0)
{
    if (y0 == 0.0)
        return -INFINITY;
    if (y0 == 1.0)
        return INFINITY;
    if (y0 < 0.0 || y0 > 1.0)
        return NAN;
    double y = y0;
    int negate = 1;
    if (y > 1.0 - NDTRI_E2) {
        y = 1.0 - y;
        negate = 0;
    }
    if (y > NDTRI_E2)
        return ndtri_mid(y);
    const double x = sqrt(-2.0 * log(y));
    const double x0 = x - log(x) / x;
    const double z = 1.0 / x;
    double x1;
    if (x < 8.0) /* y > exp(-32) */
        x1 = z * polevl(z, NDTRI_P1, 8) / p1evl(z, NDTRI_Q1, 8);
    else
        x1 = z * polevl(z, NDTRI_P2, 8) / p1evl(z, NDTRI_Q2, 8);
    return negate ? -(x0 - x1) : x0 - x1;
}

/* out[i] = ndtri(u) * scale for the uniform u of step steps[i] of the
 * stream (seed, component, tag): fhnrds.noise's Wiener increments and
 * stationary OU draws.  Each chunk of DRAW_CHUNK runs in three passes: the
 * hash of its uniforms; the middle rational of every lane, which vectorizes;
 * and the scalar ndtri of the lanes outside the middle (about 27% of them,
 * u = 1 - 2^-53 included), exactly those ndtri's own tests send elsewhere. */
#define DRAW_CHUNK 512

CLONES void fhn_increments(uint64_t seed, int64_t component, uint64_t tag, const int64_t *steps,
                    int64_t count, double scale, double *out)
{
    const uint64_t key = stream_key(seed, component, tag);
    double u[DRAW_CHUNK];
    for (int64_t c = 0; c < count; c += DRAW_CHUNK) {
        const int64_t n = count - c < DRAW_CHUNK ? count - c : DRAW_CHUNK;
        double *o = out + c;
        for (int64_t i = 0; i < n; i++)
            u[i] = uniform01(key, steps[c + i]);
        for (int64_t i = 0; i < n; i++)
            o[i] = ndtri_mid(u[i]) * scale;
        for (int64_t i = 0; i < n; i++)
            if (!ndtri_is_mid(u[i]))
                o[i] = ndtri(u[i]) * scale;
    }
}

/* The two halves of fhn_increments alone, which the tests pin one by one:
 * the uniforms of the steps, and ndtri(y) * scale of any y. */
void fhn_uniforms(uint64_t seed, int64_t component, uint64_t tag, const int64_t *steps,
                  int64_t count, double *out)
{
    const uint64_t key = stream_key(seed, component, tag);
    for (int64_t i = 0; i < count; i++)
        out[i] = uniform01(key, steps[i]);
}

void fhn_ndtri(const double *y, int64_t count, double scale, double *out)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = ndtri(y[i]) * scale;
}
