/* Eigenvalues and eigenvectors of a complex symmetric tridiagonal
   matrix H in O(n^2), and the impulse response of its modes.  The
   vectors are streamed: no n x n array is formed.

   ritz_values(nt, simd, n, alpha, off, h_max, theta, work, busy): alpha
   (n >= 1) is the diagonal, off (n - 1) the off-diagonal and h_max the
   caller's max |H|, which scales the polish's tolerances; theta (n)
   receives the eigenvalues, and work (n values) and busy (n ints) are
   workspace.  H should have max |H| near 1 (the caller scales it by a
   power of two), since the QL squares the off-diagonal.  Returns 0, or 1
   when the values did not converge: the QL exceeds MAX_ITER sweeps for a
   value or leaves one not finite, or the polish is unsettled after
   MAX_SWEEPS (the caller's NearDefectiveError).

   The values come from an implicit QL with Wilkinson shifts and
   complex-orthogonal rotations (c^2 + s^2 = 1, not unitary), the
   complex form of tqli (Cullum & Willoughby, SIAM J. Matrix Anal. Appl.
   17, 1996), run root-free: the Pal-Walker-Kahan QL (LAPACK's xSTERF;
   Parlett, The Symmetric Eigenvalue Problem, 8.15) works on the squared
   off-diagonal, with two square roots per iteration (the shift) and none
   per rotation.  A rotation is a chain of dependent operations and the
   QL is latency-bound, so each rotation is written with its two
   reciprocals side by side (see ql()).  Sweep EXCEPTIONAL_ITER of a
   value shifts by d[l] + 0.75 |sqrt(e^2[l])|, not Wilkinson's root,
   which can cycle on a sound H; in seeded sweeps of small H, the QL then
   fails only where an eigenvector is quasi-isotropic (|s^T s| < 4e-8).
   The presets' values take at most 11 sweeps (desk) or 9 (paper, m =
   500 to 9000).  Complex-orthogonal rotations are not backward stable,
   and the values are good to only 1e-11 to 1e-10 of max |H|, so
   Jacobi-style Ehrlich-Aberth sweeps (Bini, Gemignani & Tisseur, SIAM J.
   Matrix Anal. Appl. 27, 2005) polish them to rounding level: the first
   moves every value, later ones (typically one, on 10-30 % of the
   values) those whose last step exceeded STEP_TOL of max |H|.

   ritz_vectors(...) gives the eigenvectors by inverse iteration, O(n)
   per value, and emits from each what the caller needs of it; impulse(...)
   sums the modes' kernel terms.  Their comments state the arguments.
   kernel_simd() is 1 when this CPU runs the AVX2 path.

   The per-value stages run on nt OpenMP threads: the steps of one polish
   sweep (each from the values before the sweep) and the vectors of the
   inverse iteration (each value on its own, a cluster member after the
   one before it), each the same operations on the same operands on any
   thread, so bitwise the same for any nt.  Both run their per-value
   recurrences (the Newton quotient and the repel sum; the LU, the solves
   and the sums over a vector) for LANES = 8 values in lockstep, in the
   lane stages.  These are written once, on GCC vector types of W lanes,
   in the section at the end of this file, which is compiled twice: with
   W = 4 under target("avx2"), the AVX2 path that simd chooses
   (kernel_simd()), and with W = 2 on the baseline path.  LANES / W
   independent recurrences hide each other's latency, and the pivot and
   j == i branches are selects on comparison masks.  Each lane is its
   value's own operations, the same as alone: mul() with no product and
   sum fused, inv() with its two divisions, -1 + z leaving Im z as it is,
   a skipped repel term added as +0.0 (a no-op on a sum that starts at
   +0.0).  So theta, the vectors and every emitted value are bitwise the
   same on either path.  The QL is one serial pass.  The memory beyond
   O(n) is ritz_vectors' block partials, 2 n values per BLOCK values. */

#ifndef W  /* the file proper; W is set while the lane section is read */
#define _GNU_SOURCE  /* sincos */
#include <complex.h>
#include <math.h>
#include <omp.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_ITER 30
#define EXCEPTIONAL_ITER 20
#define MAX_SWEEPS 8
#define STEP_TOL 1e-12
/* values run in lockstep by the polish and the inverse iteration */
#define LANES 8
/* values per block of ritz_vectors' partial sums */
#define BLOCK 64
/* samples per block of impulse's recurrence */
#define RUN 8

/* a loop over the lanes, unrolled */
#define EACH_LANE(l) \
    _Pragma("GCC unroll 8") for (int l = 0; l < LANES; l++)

/* A lane array holds one complex entry per row and lane, planar by row:
   row i's LANES real parts, then its LANES imaginary parts */
#define RE(a, i, l) (a)[2 * LANES * (size_t)(i) + (l)]
#define IM(a, i, l) (a)[2 * LANES * (size_t)(i) + LANES + (l)]

typedef double complex cplx;

static cplx get(const double *a, int i, int l)
{
    return __builtin_complex(RE(a, i, l), IM(a, i, l));
}

static void put(double *a, int i, int l, cplx z)
{
    RE(a, i, l) = creal(z);
    IM(a, i, l) = cimag(z);
}

/* 1 / a by two real divisions */
static cplx inv(cplx a)
{
    return conj(a) / (creal(a) * creal(a) + cimag(a) * cimag(a));
}

/* 1 / a for the QL, whose operands fall far below unit scale on a
   steeply graded H: where |a|^2 would underflow (both parts below
   2^-500), a is scaled by 2^600 first and the reciprocal by 2^600 after,
   both exact; elsewhere it is bitwise inv(a).  The test is two
   comparisons, not fmax() of the two parts, and takes the same branch
   for every input: max(x, y) >= t exactly when x >= t or y >= t, and a
   NaN part compares false, as fmax() drops a NaN operand for the other
   (two NaN parts take the scaled branch either way).  Forced inline,
   the rotation's two reciprocals make no call. */
static inline __attribute__((always_inline)) cplx inv_graded(cplx a)
{
    if (fabs(creal(a)) >= 0x1p-500 || fabs(cimag(a)) >= 0x1p-500)
        return inv(a);
    return inv(a * 0x1p600) * 0x1p600;
}

/* a b, bitwise the a * b of C for finite a and b: it leaves out the
   recovery of infinite products (C99 Annex G), which only an infinite or
   NaN operand reaches, and whose test and library call after every
   product would slow the loops that call it (vmul() is its lane form) */
static cplx mul(cplx a, cplx b)
{
    return __builtin_complex(creal(a) * creal(b) - cimag(a) * cimag(b),
                             creal(a) * cimag(b) + cimag(a) * creal(b));
}

/* |Re a| + |Im a|, LAPACK's CABS1 */
static double cabs1(cplx a)
{
    return fabs(creal(a)) + fabs(cimag(a));
}

/* d: diagonal in, eigenvalues out; e: n entries, the squared
   off-diagonal e^2 in e[0 .. n-2], destroyed.

   One sweep of the root-free QL (LAPACK's xSTERF) carries the squares
   c = cos^2, s = sin^2 (c + s = 1) of its rotations and p = gamma^2 / c,
   so a rotation takes two reciprocals and no square root; the shift
   takes csqrt(e^2[l]) and the root of g^2 + 1.  xSTERF's rotation
   divides by r = p + e^2[i] for c = p / r, then by c for the next p.
   This one forms X = p (d[i] - sigma) - e^2[i] gamma_old and takes
   gamma = X (1 / r) and p' = gamma (X (1 / p)), the same numbers since
   gamma r = X and c = p / r: both reciprocals wait on p alone, so they
   run side by side and shorten the rotation's chain.  The values move
   within the QL's rounding.
   X (1 / p) keeps the two divisions apart: X^2 / (r p) under- or
   overflows where p and r are both tiny.  Where p = 0 (gamma = 0), p' =
   c_old e^2[i] instead.  The reciprocals are inv_graded(), since deep in
   a graded H the squares p and r fall below 1e-308 while their
   quotients stay in range.

   e[m] splits the matrix when |e[m]| + (|d[m]| + |d[m+1]|) rounds to
   |d[m]| + |d[m+1]|.  The scan first compares the cheap CABS1 values:
   since |z| <= cabs1(z) <= sqrt(2) |z|, cabs1(e^2) > 2^-80 (cabs1(d[m]) +
   cabs1(d[m+1]))^2 puts |e| far above half an ulp of the sum, so the test
   fails and the three moduli need not be computed.  The split found is
   the same; a NaN or an infinite d falls through to the full test.  The
   caller scales H to max |H| ~ 1, so the squares neither overflow nor
   underflow where they matter. */
static int ql(int n, cplx *d, cplx *e)
{
    e[n - 1] = 0.0;
    for (int l = 0; l < n; l++) {
        for (int iter = 0;; iter++) {
            int m, i;
            for (m = l; m < n - 1; m++) {
                double d1 = cabs1(d[m]) + cabs1(d[m + 1]);
                if (cabs1(e[m]) > 0x1p-80 * d1 * d1)
                    continue;
                double dd = cabs(d[m]) + cabs(d[m + 1]);
                if (sqrt(cabs(e[m])) + dd == dd)
                    break;
            }
            if (m == l)
                break;
            if (iter == MAX_ITER)
                return 1;
            cplx rte = csqrt(e[l]);
            cplx g = (d[l + 1] - d[l]) / (2.0 * rte);
            cplx r = csqrt(g * g + 1.0);
            /* the root of the 2 x 2 block nearer d[l] */
            cplx sigma = d[l] - rte / (cabs(g + r) >= cabs(g - r) ? g + r
                                                                  : g - r);
            if (iter == EXCEPTIONAL_ITER)
                sigma = d[l] + 0.75 * cabs(rte);
            cplx s = 0.0, c = 1.0, gamma = d[m] - sigma, p = gamma * gamma;
            for (i = m - 1; i >= l; i--) {
                cplx bb = e[i];
                r = p + bb;
                if (i != m - 1)
                    e[i + 1] = s * r;
                if (r == 0.0) { /* split (or an isotropic rotation): reshift */
                    d[i + 1] = sigma + gamma;
                    e[m] = 0.0;
                    break;
                }
                /* x = gamma r, so 1 / r and 1 / p both wait on p alone */
                cplx old_c = c, old_gamma = gamma, ir = inv_graded(r);
                cplx x = p * (d[i] - sigma) - bb * old_gamma;
                c = p * ir;
                s = bb * ir;
                gamma = x * ir;
                d[i + 1] = old_gamma + (d[i] - gamma);
                p = p != 0.0 ? gamma * (x * inv_graded(p)) : old_c * bb;
            }
            if (r == 0.0 && i >= l)
                continue;
            e[l] = s * p;
            d[l] = sigma + gamma;
            e[m] = 0.0;
        }
    }
    for (int i = 0; i < n; i++)
        if (!isfinite(creal(d[i])) || !isfinite(cimag(d[i])))
            return 1;
    return 0;
}

/* The lane stages, read from the section at the end of this file once
   per path, each path at the widest vector it keeps in registers: a
   32-byte vector has none without AVX.  Their names are stage_avx2 (W =
   4, under target("avx2")) and stage_base (W = 2). */
#if defined(__x86_64__) || defined(__i386__)
#define HAVE_AVX2 1
#define W 4
#define PATH(stage) stage##_avx2
#define TARGET __attribute__((target("avx2")))
#include "_ritz.c"
/* a lane stage on the path simd chooses */
#define ON_PATH(simd, stage, ...) \
    ((simd) ? stage##_avx2(__VA_ARGS__) : stage##_base(__VA_ARGS__))
#else
#define ON_PATH(simd, stage, ...) ((void)(simd), stage##_base(__VA_ARGS__))
#endif
#define W 2
#define PATH(stage) stage##_base
#define TARGET
#include "_ritz.c"

/* Jacobi-style Ehrlich-Aberth sweeps on the eigenvalues z:
   z_i -= N_i / (1 - N_i sum_{j != i} 1 / (z_i - z_j)), N_i the Newton
   quotient, every step of a sweep from the values before it.  The
   first sweep moves every value, later ones those whose last step
   exceeded tol (listed in busy, n ints); a step that is not finite
   leaves its value alone.  The steps of a sweep go LANES at a time to
   nt threads.  Returns 0 once no step exceeds tol, 1 after MAX_SWEEPS
   sweeps. */
static int aberth(int nt, int simd, int n, const cplx *alpha,
                  const cplx *off, cplx *z, cplx *step, int *busy,
                  double tol, double tiny)
{
    for (int i = 0; i < n; i++)
        step[i] = INFINITY;
    for (int sweep = 0;; sweep++) {
        int nb = 0;
        for (int i = 0; i < n; i++) {
            if (cabs(step[i]) > tol)
                busy[nb++] = i;
            else
                step[i] = 0.0;
        }
        if (!nb)
            return 0;
        if (sweep == MAX_SWEEPS)
            return 1;
#pragma omp parallel for num_threads(nt) schedule(dynamic, 4)
        for (int g = 0; g < nb; g += LANES) {
            int idx[LANES];
            cplx nq[LANES], repel[LANES];
            EACH_LANE(l)  /* a short last group repeats its last value */
                idx[l] = busy[g + l < nb ? g + l : nb - 1];
            ON_PATH(simd, polish, n, alpha, off, z, idx, tiny, nq, repel);
            for (int l = 0; l < LANES && g + l < nb; l++)
                step[idx[l]] = nq[l] / (1.0 - nq[l] * repel[l]);
        }
        for (int i = 0; i < n; i++) {
            if (isfinite(creal(step[i])) && isfinite(cimag(step[i])))
                z[i] -= step[i];
            else
                step[i] = 0.0;
        }
    }
}

int kernel_simd(void)
{
#ifdef HAVE_AVX2
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

int ritz_values(int nt, int simd, int n, const cplx *alpha, const cplx *off,
                double h_max, cplx *theta, cplx *work, int *busy)
{
    memcpy(theta, alpha, n * sizeof(cplx));
    for (int k = 0; k + 1 < n; k++)
        work[k] = off[k] * off[k];
    return ql(n, theta, work)
           || aberth(nt, simd, n, alpha, off, theta, work, busy,
                     STEP_TOL * h_max, 1e-300 + 0x1p-52 * h_max);
}

/* Component k of the start vector of value i: splitmix64 (Steele, Lea
   & Flood, OOPSLA 2014) of the counter (i, k), its top 53 bits mapped to
   [-1, 1) */
static double start_component(int i, int k)
{
    uint64_t z = ((uint64_t)i << 32 | (uint32_t)k) + 0x9e3779b97f4a7c15u;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9u;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebu;
    z ^= z >> 31;
    return (double)(z >> 11) * 0x1p-52 - 1.0;
}

/* The arguments of ritz_vectors that every lane group reads; stride is
   n rounded up to a multiple of LANES, the rows of a lane array and the
   length of each plane of the block partials, so that emit_sums takes
   whole blocks of W rows */
struct invit {
    int n, stride, steps, chain, np, simd;
    const cplx *alpha, *off, *theta, *rows;
    const int *prev, *next;
    double nudge, defect_tol;
    cplx *first, *probe;
};

/* A lane's failure: the lowest failing value, its code and *bad */
struct failure {
    int value, code;
    cplx bad;
};

static void fail(struct failure *f, int value, int code, cplx bad)
{
#pragma omp critical
    if (value < f->value) {
        f->value = value;
        f->code = code;
        f->bad = bad;
    }
}

/* The vectors of values v[l] (-1 for an idle lane), lane l at position
   pos[l] of its cluster chain, into chain slot pos[l] of lane l; the
   earlier slots hold the chain's earlier members.  Their first
   components, probe rows and terms s theta c, s c are emitted, the
   last two added into the block partials sums (emit_sums) in lane
   order.  A lane that fails is recorded in *f and set idle.  work holds
   five lane arrays of stride rows (10 LANES stride doubles) and piv
   LANES n doubles. */
static void lane_group(const struct invit *a, int *v, const int *pos,
                       cplx **slots, double *sums, double *work,
                       double *piv, struct failure *f)
{
    int n = a->n, simd = a->simd, lead = 0;
    size_t size = 2 * LANES * (size_t)a->stride;
    double *dl = work, *d = work + size, *du = work + 2 * size,
           *du2 = work + 3 * size, *x = work + 4 * size;
    cplx sigma[LANES];
    int tries[LANES] = {0};
    while (v[lead] < 0)
        lead++;
    /* an idle lane repeats the lead lane's shift and start */
    EACH_LANE(l) {
        int w = v[l] < 0 ? lead : l;
        sigma[l] = a->theta[v[w]] + pos[w] * a->nudge;
    }
    for (;;) {
        int zero = ON_PATH(simd, gttrf, n, a->alpha, a->off, sigma, dl, d,
                           du, du2, piv);
        int retry = 0;
        for (int l = 0; l < LANES; l++) {
            if (v[l] < 0 || !(zero >> l & 1))
                continue;
            sigma[l] += a->nudge;
            if (++tries[l] == 3) {
                fail(f, v[l], 1, sigma[l]);
                v[l] = -1;
            } else {
                retry = 1;
            }
        }
        if (!retry)
            break;
    }
    for (lead = 0; lead < LANES && v[lead] < 0; lead++)
        ;
    if (lead == LANES)
        return;
    for (int k = 0; k < n; k++)
        EACH_LANE(l)
            put(x, k, l, start_component(v[l] < 0 ? v[lead] : v[l], k));
    for (int step = 0; step < a->steps; step++) {
        ON_PATH(simd, normalize, n, x);
        ON_PATH(simd, gttrs, n, dl, d, du, du2, piv, x);
        /* x -= sum_j (s_j^T x) s_j over the chain's earlier members,
           the latest first, all coefficients from the same x */
        for (int l = 0; l < LANES; l++) {
            if (v[l] < 0)
                continue;
            cplx coef[pos[l] + 1];
            for (int c = pos[l] - 1; c >= 0; c--) {
                coef[c] = 0.0;
                for (int k = 0; k < n; k++)
                    coef[c] += mul(slots[l][(size_t)c * n + k], get(x, k, l));
            }
            for (int c = pos[l] - 1; c >= 0; c--)
                for (int k = 0; k < n; k++)
                    put(x, k, l, get(x, k, l)
                                 - mul(coef[c], slots[l][(size_t)c * n + k]));
        }
    }
    ON_PATH(simd, normalize, n, x);
    cplx quasi[LANES], scale[LANES];
    ON_PATH(simd, quasi_sums, n, x, quasi);
    for (int l = 0; l < LANES; l++) {
        scale[l] = 0.0;
        if (v[l] < 0)
            continue;
        if (cabs(quasi[l]) < a->defect_tol) {
            fail(f, v[l], 2, quasi[l]);
            v[l] = -1;
            continue;
        }
        scale[l] = inv(csqrt(quasi[l]));
    }
    ON_PATH(simd, scale_lanes, n, x, scale);
    cplx tc[LANES], x0[LANES], acc[LANES];
    for (int l = 0; l < LANES; l++) {
        if (v[l] < 0)
            continue;
        x0[l] = a->first[v[l]] = get(x, 0, l);
        tc[l] = mul(a->theta[v[l]], x0[l]);
        if (a->next[v[l]] >= 0) {  /* kept for the chain's next member */
            cplx *s = slots[l] + (size_t)pos[l] * n;
            for (int k = 0; k < n; k++)
                s[k] = get(x, k, l);
        }
    }
    for (int p = 0; p < a->np; p++) {
        ON_PATH(simd, row_dots, n, a->rows + (size_t)p * n, x, acc);
        for (int l = 0; l < LANES; l++)
            if (v[l] >= 0)
                a->probe[(size_t)p * n + v[l]] = acc[l];
    }
    ON_PATH(simd, emit_sums, n, a->stride, x, tc, x0, v, sums);
}

/* The vector loop of one block of ritz_vectors: the chains headed by
   values b BLOCK .. b BLOCK + BLOCK - 1, LANES at a time in lockstep, a
   lane taking the block's next head when its chain ends.  Their terms of
   the sums go to the block's partials (4 stride doubles at partial +
   4 stride b, zeroed here: the real, then the imaginary parts of hs,
   then of ss).  own holds the lane arrays (10 LANES stride doubles) and
   the chain slots (LANES chain n values), piv LANES n doubles. */
static void run_block(const struct invit *a, int b, double *partial,
                      cplx *own, double *piv, struct failure *f)
{
    int n = a->n, head = b * BLOCK, end = head + BLOCK < n ? head + BLOCK : n;
    int v[LANES], pos[LANES];
    double *sums = partial + (size_t)b * 4 * a->stride;
    cplx *slots[LANES];
    memset(sums, 0, 4 * a->stride * sizeof(double));
    EACH_LANE(l) {
        slots[l] = own + 5 * LANES * (size_t)a->stride
                   + (size_t)a->chain * l * n;
        v[l] = -1;
    }
    for (;;) {
        int busy = 0;
        for (int l = 0; l < LANES; l++) {
            if (v[l] >= 0 && a->next[v[l]] >= 0) {
                v[l] = a->next[v[l]];
                pos[l]++;
            } else {
                while (head < end && a->prev[head] >= 0)
                    head++;
                v[l] = head < end ? head++ : -1;
                pos[l] = 0;
            }
            busy |= v[l] >= 0;
        }
        if (!busy)
            return;
        lane_group(a, v, pos, slots, sums, (double *)own, piv, f);
    }
}

/* The eigenvectors s_i (scaled to s^T s = 1) of the tridiagonal
   (alpha, off) for the eigenvalues theta, by inverse iteration, streamed:
   no n x n array is formed.  For each value i: one pivoted LU of
   H - sigma I, then steps solves x <- (H - sigma I)^{-1} x / ||x|| from
   the real start vector of start_component(i, .), a fixed counter hash,
   so that the vectors are deterministic (as LAPACK's xSTEIN fixes its
   seed).  The kernel emits first[i] = c_i = s_i[0], the probe rows
   probe[p n + i] = rows_p . s_i (np rows of n, rows[p n + k]), and the
   sums hs = sum_i s_i theta_i c_i (= S diag(theta) S^T e_1) in sums[0 ..
   n - 1] and ss = sum_i s_i c_i (= S S^T e_1) in sums[n .. 2 n - 1].
   simd chooses the lanes' path (kernel_simd()).

   prev[i] is the member of value i's cluster computed just before it,
   or -1, and next[i] the one just after it, or -1 (prev[i] < i <
   next[i]).  The solves are orthogonalized in the bilinear form (x -=
   sum_j (s_j^T x) s_j, all coefficients from the same x) against the
   earlier members, and sigma sits members * nudge from theta[i].  An
   exactly zero pivot moves sigma by nudge and factors again, at most
   three times.

   A value with no cluster predecessor heads a chain, run down through
   next.  The heads are cut into blocks of BLOCK values, run_block each,
   on nt threads; the blocks' partials of hs and ss are summed in block
   order.  So every vector, emitted value and sum is the same operations
   on the same operands on any thread count.  Memory beyond O(n) is the
   partials, 2 n per block.  Returns 0; else the code of the lowest
   failing value: 1 when H - sigma I stays singular (*bad = the last
   sigma), 2 when |s^T s| of a unit-norm vector is below defect_tol
   (*bad = s^T s); 3 when the workspace cannot be allocated. */
int ritz_vectors(int nt, int simd, int n, const cplx *alpha, const cplx *off,
                 const cplx *theta, const int *prev, const int *next,
                 double nudge, int steps, double defect_tol, int np,
                 const cplx *rows, cplx *first, cplx *probe, cplx *sums,
                 cplx *bad)
{
    int chain = 1, stride = (n + LANES - 1) / LANES * LANES;
    for (int i = 0; i < n; i++) {
        int members = 1;
        for (int j = prev[i]; j >= 0; j = prev[j])
            members++;
        chain = members > chain ? members : chain;
    }
    struct invit a = {n, stride, steps, chain, np, simd, alpha, off, theta,
                      rows, prev, next, nudge, defect_tol, first, probe};
    struct failure f = {n, 0, 0.0};
    int blocks = (n + BLOCK - 1) / BLOCK, nomem = 0;
    double *partial = malloc((size_t)blocks * 4 * stride * sizeof(double));
    if (!partial)
        return 3;
#pragma omp parallel num_threads(nt)
    {
        /* zeroed, so that the rows of x past n are finite */
        cplx *own = calloc(LANES * (5 * (size_t)stride + (size_t)chain * n),
                           sizeof(cplx));
        double *piv = malloc((size_t)LANES * n * sizeof(double));
#pragma omp for schedule(dynamic, 1)
        for (int b = 0; b < blocks; b++) {
            if (own && piv)
                run_block(&a, b, partial, own, piv, &f);
            else
#pragma omp atomic write
                nomem = 1;
        }
        free(own);
        free(piv);
    }
    for (int k = 0; !nomem && k < 2 * n; k++) {
        /* hs[k] or ss[k - n]: its real part at 2 stride (k >= n) + k % n */
        double re = 0.0, im = 0.0;
        for (int b = 0; b < blocks; b++) {
            const double *p = partial + ((size_t)4 * b + 2 * (k / n)) * stride
                              + k % n;
            re += p[0];
            im += p[stride];
        }
        sums[k] = __builtin_complex(re, im);
    }
    free(partial);
    if (nomem)
        return 3;
    *bad = f.bad;
    return f.code;
}

/* The impulse response u[p ns + j] = Re sum_i g[p nm + i] exp(-sq_i t_j)
   of nm modes at np probes and ns times t, a uniform grid of step dt,
   with w_i = exp(-sq_i dt).  The samples go in blocks of RUN, fixed by
   sample index: a block computes each mode's term exactly at its first
   sample t_j and multiplies it by w_i for each next one, which moves u
   by a few ulps of the terms against a direct sum.  Each sample sums its
   modes in order, and the blocks are split over nt threads, so u is the
   same on any thread count. */
void impulse(int nt, int nm, int np, const cplx *sq, const cplx *w,
             const cplx *g, int ns, const double *t, double *u)
{
    int blocks = (ns + RUN - 1) / RUN;
#pragma omp parallel for num_threads(nt) schedule(static)
    for (int b = 0; b < blocks; b++) {
        int j0 = RUN * b, len = ns - j0 < RUN ? ns - j0 : RUN;
        double acc[np][RUN];
        memset(acc, 0, sizeof acc);
        for (int i = 0; i < nm; i++) {
            /* exp(-sq t) = e (cos(b t) - i sin(b t)), e = exp(-Re(sq) t) */
            double e = exp(-creal(sq[i]) * t[j0]), sn, cs;
            sincos(cimag(sq[i]) * t[j0], &sn, &cs);
            cplx term = __builtin_complex(e * cs, -(e * sn));
            for (int s = 0; s < len; s++) {
                for (int p = 0; p < np; p++) {
                    cplx gi = g[(size_t)p * nm + i];
                    acc[p][s] += creal(gi) * creal(term)
                                 - cimag(gi) * cimag(term);
                }
                term = mul(term, w[i]);
            }
        }
        for (int p = 0; p < np; p++)
            for (int s = 0; s < len; s++)
                u[(size_t)p * ns + j0 + s] = acc[p][s];
    }
}

#else  /* the lane section, read with W, PATH and TARGET set */

/* this path's names: W lanes of doubles, their comparison masks, W lanes
   of complex values, and the helpers on them */
#define vr PATH(vr)
#define vm PATH(vm)
#define vc PATH(vc)
#define vset1 PATH(vset1)
#define vload PATH(vload)
#define vstore PATH(vstore)
#define vgather PATH(vgather)
#define vscatter PATH(vscatter)
#define vadd PATH(vadd)
#define vsub PATH(vsub)
#define vmul PATH(vmul)
#define vinv PATH(vinv)
#define vsel PATH(vsel)
#define vzero PATH(vzero)
#define vcabs1 PATH(vcabs1)
#define vtranspose PATH(vtranspose)
/* LANES is GROUPS vectors of W */
#define GROUPS (LANES / W)
#define EACH_GROUP(h) \
    _Pragma("GCC unroll 8") for (int h = 0; h < GROUPS; h++)

typedef double vr __attribute__((vector_size(8 * W)));
typedef int64_t vm __attribute__((vector_size(8 * W)));
typedef struct {
    vr re, im;
} vc;

/* a in every lane; x - (vr){} keeps a -0.0, which (vr){} + x would not */
TARGET static inline vc vset1(cplx a)
{
    return (vc){creal(a) - (vr){}, cimag(a) - (vr){}};
}

/* lanes W h .. W h + W - 1 of row i of a lane array */
TARGET static inline vc vload(const double *a, int i, int h)
{
    vc z;
    memcpy(&z.re, &RE(a, i, W * h), sizeof z.re);
    memcpy(&z.im, &IM(a, i, W * h), sizeof z.im);
    return z;
}

TARGET static inline void vstore(double *a, int i, int h, vc z)
{
    memcpy(&RE(a, i, W * h), &z.re, sizeof z.re);
    memcpy(&IM(a, i, W * h), &z.im, sizeof z.im);
}

/* lanes W h .. W h + W - 1 of an array of complex values */
TARGET static inline vc vgather(const cplx *a, int h)
{
    vc z = {};
    for (int w = 0; w < W; w++) {
        z.re[w] = creal(a[W * h + w]);
        z.im[w] = cimag(a[W * h + w]);
    }
    return z;
}

TARGET static inline void vscatter(cplx *a, int h, vc z)
{
    for (int w = 0; w < W; w++)
        a[W * h + w] = __builtin_complex(z.re[w], z.im[w]);
}

TARGET static inline vc vadd(vc a, vc b)
{
    return (vc){a.re + b.re, a.im + b.im};
}

TARGET static inline vc vsub(vc a, vc b)
{
    return (vc){a.re - b.re, a.im - b.im};
}

/* mul() */
TARGET static inline vc vmul(vc a, vc b)
{
    return (vc){a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

/* inv() */
TARGET static inline vc vinv(vc a)
{
    vr den = a.re * a.re + a.im * a.im;
    return (vc){a.re / den, -a.im / den};
}

/* mask ? a : b, lane by lane */
TARGET static inline vc vsel(vm mask, vc a, vc b)
{
    return (vc){(vr)((mask & (vm)a.re) | (~mask & (vm)b.re)),
                (vr)((mask & (vm)a.im) | (~mask & (vm)b.im))};
}

/* the lanes where a == 0.0 */
TARGET static inline vm vzero(vc a)
{
    return (a.re == 0.0) & (a.im == 0.0);
}

/* cabs1() */
TARGET static inline vr vcabs1(vc a)
{
    return (vr)((vm)a.re & INT64_MAX) + (vr)((vm)a.im & INT64_MAX);
}

/* The W x W block of a lane array's parts (real or imaginary) from p,
   lanes l .. l + W - 1 of W rows, p = &RE(a, i, l), transposed: col[w]
   holds lane l + w of the W rows.  Stage s (1, 2, .. W / 2) pairs row
   i with row i + s (i & s == 0), lo taking the even s-blocks of both
   and hi the odd ones. */
TARGET static inline void vtranspose(const double *p, vr *col)
{
    static const int64_t iota[LANES] = {0, 1, 2, 3, 4, 5, 6, 7};
    vm e;
    memcpy(&e, iota, sizeof e);
    _Pragma("GCC unroll 8") for (int w = 0; w < W; w++)
        memcpy(&col[w], p + 2 * LANES * w, sizeof col[w]);
    _Pragma("GCC unroll 3") for (int s = 1; s < W; s *= 2) {
        vm lo = e + (((e & s) != 0) & (W - s)), hi = lo + s;
        _Pragma("GCC unroll 8") for (int i = 0; i < W; i++) {
            if (i & s)
                continue;
            vr a = col[i], b = col[i + s];
            col[i] = __builtin_shuffle(a, b, lo);
            col[i + s] = __builtin_shuffle(a, b, hi);
        }
    }
}

/* One polish step's parts for the LANES values z[idx[l]] in lockstep:
   the Newton quotients det / det' of H - z I, from the ratios r_k =
   (alpha_k - z) - off_{k-1}^2 / r_{k-1} = det_k / det_{k-1} and their
   derivatives q_k (det' / det = sum_k q_k / r_k), and the repel sums
   sum_{j != i} 1 / (z_i - z_j).  An exactly zero r_k is taken as tiny. */
TARGET static void PATH(polish)(int n, const cplx *alpha, const cplx *off,
                                const cplx *z, const int *idx, double tiny,
                                cplx *quotient, cplx *repel)
{
    cplx zl[LANES];
    vc zg[GROUPS], ir[GROUPS], q[GROUPS], ld[GROUPS], vtiny = vset1(tiny);
    vm self[GROUPS];
    EACH_LANE(l)
        zl[l] = z[idx[l]];
    EACH_GROUP(h) {
        zg[h] = vgather(zl, h);
        ir[h] = q[h] = ld[h] = (vc){};
    }
    for (int k = 0; k < n; k++) {
        vc o2 = vset1(k ? off[k - 1] * off[k - 1] : 0.0), a = vset1(alpha[k]);
        EACH_GROUP(h) {
            vc r = vsub(vsub(a, zg[h]), vmul(o2, ir[h]));
            vc t = vmul(vmul(vmul(o2, q[h]), ir[h]), ir[h]);
            q[h] = (vc){-1.0 + t.re, t.im};
            ir[h] = vinv(vsel(vzero(r), vtiny, r));
            ld[h] = vadd(ld[h], vmul(q[h], ir[h]));
        }
    }
    EACH_GROUP(h) {
        vscatter(quotient, h, vinv(ld[h]));
        for (int w = 0; w < W; w++)
            self[h][w] = idx[W * h + w];
        ld[h] = (vc){};  /* now the repel sums */
    }
    for (int j = 0; j < n; j++) {
        vc zj = vset1(z[j]);
        EACH_GROUP(h)  /* the term j == idx as +0.0 */
            ld[h] = vadd(ld[h], vsel(self[h] == j, (vc){},
                                     vinv(vsub(zg[h], zj))));
    }
    EACH_GROUP(h)
        vscatter(repel, h, ld[h]);
}

/* Pivoted LU of the tridiagonals with diagonal alpha - sigma_l and
   off-diagonal off, LANES shifts in lockstep, each as LAPACK's xGTTRF:
   unit lower L with multipliers dl, upper U with diagonal d (stored
   inverted) and superdiagonals du and du2, all lane arrays; piv[LANES i
   + l] holds the bits of the swap mask, all ones (a NaN) where lane l
   swapped rows i and i + 1, else zero.  One pass down the rows, d and du
   of the next row carried, each pivot inverted as soon as it is final.
   Returns the mask of the lanes with an exactly zero pivot. */
TARGET static int PATH(gttrf)(int n, const cplx *alpha, const cplx *off,
                              const cplx *sigma, double *dl, double *d,
                              double *du, double *du2, double *piv)
{
    vc sg[GROUPS], dc[GROUPS], duc[GROUPS], zero = {};
    vm singular[GROUPS];
    EACH_GROUP(h) {
        sg[h] = vgather(sigma, h);
        dc[h] = vsub(vset1(alpha[0]), sg[h]);
        duc[h] = n > 1 ? vset1(off[0]) : zero;
        singular[h] = (vm){};
    }
    for (int i = 0; i < n; i++) {
        vc dli = i + 1 < n ? vset1(off[i]) : zero;
        vc a1 = i + 1 < n ? vset1(alpha[i + 1]) : zero;
        vc du1 = i + 2 < n ? vset1(off[i + 1]) : zero;
        EACH_GROUP(h) {
            /* the pivot fin: dl where the lane swaps (never in the last
               row, where dl is zero), else d; one reciprocal serves the
               multiplier and the stored pivot */
            vc di = dc[h];
            vm p = vcabs1(di) < vcabs1(dli);
            vc fin = vsel(p, dli, di), ifin = vinv(fin);
            if (i + 1 < n) {
                vc d1 = vsub(a1, sg[h]), dui = duc[h];
                vm z = vzero(di);
                /* no swap: f = dl / d, d1 - f du (nothing where d is
                   zero); a swap: f = d / dl, u - f d1 */
                vc f = vmul(vsel(p, di, dli), ifin);
                vstore(dl, i, h, vsel(p, f, vsel(z, dli, f)));
                vstore(du, i, h, vsel(p, d1, dui));
                vstore(du2, i, h, vsel(p, du1, zero));
                dc[h] = vsel(p, vsub(dui, vmul(f, d1)),
                             vsel(z, d1, vsub(d1, vmul(f, dui))));
                duc[h] = vsel(p, vmul(du1, (vc){-f.re, -f.im}), du1);
                memcpy(piv + LANES * i + W * h, &p, sizeof p);
            }
            vm z = vzero(fin);
            singular[h] |= z;
            vstore(d, i, h, vsel(z, fin, ifin));
        }
    }
    int mask = 0;
    EACH_GROUP(h)
        for (int w = 0; w < W; w++)
            mask |= (int)(singular[h][w] & 1) << (W * h + w);
    return mask;
}

/* b <- (LU)^{-1} b in each lane, with the factors of gttrf, the running
   entries of each pass carried */
TARGET static void PATH(gttrs)(int n, const double *dl, const double *d,
                               const double *du, const double *du2,
                               const double *piv, double *b)
{
    vc bi[GROUPS], x0[GROUPS], x1[GROUPS];
    EACH_GROUP(h)
        bi[h] = vload(b, 0, h);
    for (int i = 0; i + 1 < n; i++)
        EACH_GROUP(h) {
            vr swap;  /* the mask back from a comparison, which blends */
            memcpy(&swap, piv + LANES * i + W * h, sizeof swap);
            vm p = swap != swap;
            vc b1 = vload(b, i + 1, h);
            vc top = vsel(p, b1, bi[h]), low = vsel(p, bi[h], b1);
            vstore(b, i, h, top);
            bi[h] = vsub(low, vmul(vload(dl, i, h), top));
        }
    EACH_GROUP(h) {
        x0[h] = x1[h] = vmul(bi[h], vload(d, n - 1, h));
        vstore(b, n - 1, h, x1[h]);
        if (n > 1) {
            x0[h] = vmul(vsub(vload(b, n - 2, h),
                              vmul(vload(du, n - 2, h), x1[h])),
                         vload(d, n - 2, h));
            vstore(b, n - 2, h, x0[h]);
        }
    }
    for (int i = n - 3; i >= 0; i--)
        EACH_GROUP(h) {
            vc x = vmul(vsub(vsub(vload(b, i, h),
                                  vmul(vload(du, i, h), x0[h])),
                             vmul(vload(du2, i, h), x1[h])),
                        vload(d, i, h));
            vstore(b, i, h, x);
            x1[h] = x0[h];
            x0[h] = x;
        }
}

/* x <- x / ||x|| in each lane */
TARGET static void PATH(normalize)(int n, double *x)
{
    vr ss[GROUPS], r[GROUPS];
    EACH_GROUP(h)
        ss[h] = (vr){};
    for (int k = 0; k < n; k++)
        EACH_GROUP(h) {
            vc xk = vload(x, k, h);
            ss[h] += xk.re * xk.re + xk.im * xk.im;
        }
    EACH_GROUP(h)
        for (int w = 0; w < W; w++)
            r[h][w] = 1.0 / sqrt(ss[h][w]);
    for (int k = 0; k < n; k++)
        EACH_GROUP(h) {
            vc xk = vload(x, k, h);
            vstore(x, k, h, (vc){xk.re * r[h], xk.im * r[h]});
        }
}

/* quasi[l] = x^T x in each lane */
TARGET static void PATH(quasi_sums)(int n, const double *x, cplx *quasi)
{
    vc sum[GROUPS];
    EACH_GROUP(h)
        sum[h] = (vc){};
    for (int k = 0; k < n; k++)
        EACH_GROUP(h) {
            vc xk = vload(x, k, h);
            sum[h] = vadd(sum[h], vmul(xk, xk));
        }
    EACH_GROUP(h)
        vscatter(quasi, h, sum[h]);
}

/* x <- x scale[l] in each lane */
TARGET static void PATH(scale_lanes)(int n, double *x, const cplx *scale)
{
    EACH_GROUP(h) {
        vc s = vgather(scale, h);
        for (int k = 0; k < n; k++)
            vstore(x, k, h, vmul(vload(x, k, h), s));
    }
}

/* acc[l] = row . x in each lane */
TARGET static void PATH(row_dots)(int n, const cplx *row, const double *x,
                                  cplx *acc)
{
    vc sum[GROUPS];
    EACH_GROUP(h)
        sum[h] = (vc){};
    for (int k = 0; k < n; k++) {
        vc rk = vset1(row[k]);
        EACH_GROUP(h)
            sum[h] = vadd(sum[h], vmul(rk, vload(x, k, h)));
    }
    EACH_GROUP(h)
        vscatter(acc, h, sum[h]);
}

/* The sums' terms of the rows k < n: sums[k] += x_k tc, sums[2 stride +
   k] += x_k x0 (each planar, the imaginary part stride on), over the
   lanes with v[l] >= 0, in lane order.  W rows go side by side, so the
   rows of x and sums up to n rounded up to W are read and written too
   (stride, a multiple of LANES, is past them). */
TARGET static void PATH(emit_sums)(int n, int stride, const double *x,
                                   const cplx *tc, const cplx *x0,
                                   const int *v, double *sums)
{
    for (int k = 0; k < n; k += W) {
        vr part[4];  /* the real and imaginary parts of hs, then of ss */
        _Pragma("GCC unroll 4") for (int c = 0; c < 4; c++)
            memcpy(&part[c], sums + (size_t)c * stride + k, sizeof part[c]);
        vc h = {part[0], part[1]}, s = {part[2], part[3]};
        EACH_GROUP(g) {
            vr re[W], im[W];
            vtranspose(&RE(x, k, W * g), re);
            vtranspose(&IM(x, k, W * g), im);
            _Pragma("GCC unroll 8") for (int w = 0; w < W; w++) {
                if (v[W * g + w] < 0)
                    continue;
                vc xk = {re[w], im[w]};
                h = vadd(h, vmul(xk, vset1(tc[W * g + w])));
                s = vadd(s, vmul(xk, vset1(x0[W * g + w])));
            }
        }
        part[0] = h.re, part[1] = h.im, part[2] = s.re, part[3] = s.im;
        _Pragma("GCC unroll 4") for (int c = 0; c < 4; c++)
            memcpy(sums + (size_t)c * stride + k, &part[c], sizeof part[c]);
    }
}

#undef W
#undef PATH
#undef TARGET
#endif
