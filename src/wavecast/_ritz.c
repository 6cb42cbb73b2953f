/* Eigenvalues and eigenvectors of a complex symmetric tridiagonal
   matrix H in O(n^2), and the impulse response of its modes.  The
   vectors are streamed: no n x n array is formed.

   ritz_values(nt, simd, n, alpha, off, theta, work, busy): alpha (n >=
   1) is the diagonal, off (n - 1) the off-diagonal, theta (n) receives
   the eigenvalues, and work (n values) and busy (n ints) are workspace.
   H should have max |H| near 1 (the caller scales it by a power of two),
   since the QL squares the off-diagonal.  Returns 0, or 1 when the
   values did not converge: the QL exceeds MAX_ITER sweeps for a value or
   leaves one not finite, or the polish is unsettled after MAX_SWEEPS
   (the caller's NearDefectiveError).

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
   ritz_simd() is 1 when this CPU runs the AVX2 path.

   The per-value stages run on nt OpenMP threads: the steps of one polish
   sweep (each from the values before the sweep) and the vectors of the
   inverse iteration (each value on its own, a cluster member after the
   one before it), each the same operations on the same operands on any
   thread, so bitwise the same for any nt.  Both run their per-value
   recurrences (the Newton quotient and the repel sum; the LU, the solves
   and the sums over a vector) for LANES = 8 values in lockstep.  With
   simd set (ritz_simd()), the lanes are two AVX2 registers of four, so
   two independent recurrences hide each other's latency, and the pivot
   and j == i branches are blends; else a scalar loop over the lanes runs
   them.  Either way each lane is its value's own operations, the same as
   alone: mul() with no product and sum fused, inv() with its two
   divisions, -1 + z leaving Im z as it is, a skipped repel term added as
   +0.0 (a no-op on a sum that starts at +0.0).  So theta, the vectors and
   every emitted value are bitwise the same on either path.  The QL is
   one serial pass.  The memory beyond O(n) is ritz_vectors' block
   partials, 2 n values per BLOCK values. */

#define _GNU_SOURCE  /* sincos */
#include <complex.h>
#include <math.h>
#include <omp.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__) || defined(__i386__)
#define HAVE_AVX2 1
#include <immintrin.h>
/* a lane stage on the path simd chooses: stage##_simd or stage */
#define ON_PATH(simd, stage, ...) \
    ((simd) ? stage##_simd(__VA_ARGS__) : stage(__VA_ARGS__))
#else
#define ON_PATH(simd, stage, ...) ((void)(simd), stage(__VA_ARGS__))
#endif

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
   both exact; elsewhere it is bitwise inv(a) */
static cplx inv_graded(cplx a)
{
    if (fmax(fabs(creal(a)), fabs(cimag(a))) >= 0x1p-500)
        return inv(a);
    return inv(a * 0x1p600) * 0x1p600;
}

/* a b, bitwise the a * b of C for finite a and b: it leaves out the
   recovery of infinite products (C99 Annex G), which only an infinite or
   NaN operand reaches, and whose test and library call after every
   product made the lockstep vectors a quarter slower (ritz_vectors at
   n = 1650 on one thread: 158 against 121 ms, medians of 15) */
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
   run side by side.  On the desk presets' H the QL took 55.3 against
   72.8 ms (ring-desk), 38.5 against 51.2 (waveguide-desk) and 50.4
   against 67.6 (homogeneous-desk), on a 2-core x86-64 VM, best of 7.
   The values move within the QL's rounding.
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

/* One polish step's parts for the LANES values z[idx[l]] in lockstep:
   the Newton quotients det / det' of H - z I, from the ratios r_k =
   (alpha_k - z) - off_{k-1}^2 / r_{k-1} = det_k / det_{k-1} and their
   derivatives q_k (det' / det = sum_k q_k / r_k), and the repel sums
   sum_{j != i} 1 / (z_i - z_j).  Each lane runs its own operations, the
   same as alone. */
static void polish(int n, const cplx *alpha, const cplx *off, const cplx *z,
                   const int *idx, double tiny, cplx *quotient, cplx *repel)
{
    cplx ir[LANES], q[LANES], log_deriv[LANES];
    EACH_LANE(l)
        ir[l] = q[l] = log_deriv[l] = 0.0;
    for (int k = 0; k < n; k++) {
        cplx o2 = k ? off[k - 1] * off[k - 1] : 0.0;
        EACH_LANE(l) {
            cplx r = alpha[k] - z[idx[l]] - mul(o2, ir[l]);
            q[l] = -1.0 + mul(mul(mul(o2, q[l]), ir[l]), ir[l]);
            ir[l] = inv(r == 0.0 ? tiny : r);
            log_deriv[l] += mul(q[l], ir[l]);
        }
    }
    EACH_LANE(l) {
        quotient[l] = inv(log_deriv[l]);
        repel[l] = 0.0;
        for (int j = 0; j < n; j++)
            if (j != idx[l])
                repel[l] += inv(z[idx[l]] - z[j]);
    }
}

#ifdef HAVE_AVX2
/* The AVX2 path: four lanes per register pair, real parts in one and
   imaginary parts in the other; LANES = 8 is two such groups, h = 0, 1.
   Built without FMA, each operation is the scalar lanes' own. */
#define AVX2 __attribute__((target("avx2")))
#define GROUPS (LANES / 4)
#define EACH_GROUP(h) \
    _Pragma("GCC unroll 2") for (int h = 0; h < GROUPS; h++)

typedef struct {
    __m256d re, im;
} vc;

AVX2 static inline vc vset1(cplx a)
{
    return (vc){_mm256_set1_pd(creal(a)), _mm256_set1_pd(cimag(a))};
}

/* lanes 4 h .. 4 h + 3 of row i of a lane array */
AVX2 static inline vc vload(const double *a, int i, int h)
{
    const double *p = &RE(a, i, 4 * h);
    return (vc){_mm256_loadu_pd(p), _mm256_loadu_pd(p + LANES)};
}

AVX2 static inline void vstore(double *a, int i, int h, vc z)
{
    double *p = &RE(a, i, 4 * h);
    _mm256_storeu_pd(p, z.re);
    _mm256_storeu_pd(p + LANES, z.im);
}

/* lanes 4 h .. 4 h + 3 of an array of complex values */
AVX2 static inline vc vgather(const cplx *a, int h)
{
    const cplx *p = a + 4 * h;
    return (vc){_mm256_setr_pd(creal(p[0]), creal(p[1]), creal(p[2]),
                               creal(p[3])),
                _mm256_setr_pd(cimag(p[0]), cimag(p[1]), cimag(p[2]),
                               cimag(p[3]))};
}

AVX2 static inline void vscatter(cplx *a, int h, vc z)
{
    double re[4], im[4];
    _mm256_storeu_pd(re, z.re);
    _mm256_storeu_pd(im, z.im);
    for (int l = 0; l < 4; l++)
        a[4 * h + l] = __builtin_complex(re[l], im[l]);
}

AVX2 static inline vc vadd(vc a, vc b)
{
    return (vc){_mm256_add_pd(a.re, b.re), _mm256_add_pd(a.im, b.im)};
}

AVX2 static inline vc vsub(vc a, vc b)
{
    return (vc){_mm256_sub_pd(a.re, b.re), _mm256_sub_pd(a.im, b.im)};
}

AVX2 static inline __m256d vflip(__m256d a)  /* -a, the sign bit flipped */
{
    return _mm256_xor_pd(a, _mm256_set1_pd(-0.0));
}

/* mul() */
AVX2 static inline vc vmul(vc a, vc b)
{
    return (vc){_mm256_sub_pd(_mm256_mul_pd(a.re, b.re),
                              _mm256_mul_pd(a.im, b.im)),
                _mm256_add_pd(_mm256_mul_pd(a.re, b.im),
                              _mm256_mul_pd(a.im, b.re))};
}

/* inv() */
AVX2 static inline vc vinv(vc a)
{
    __m256d den = _mm256_add_pd(_mm256_mul_pd(a.re, a.re),
                                _mm256_mul_pd(a.im, a.im));
    return (vc){_mm256_div_pd(a.re, den), _mm256_div_pd(vflip(a.im), den)};
}

/* mask ? a : b, lane by lane */
AVX2 static inline vc vblend(__m256d mask, vc a, vc b)
{
    return (vc){_mm256_blendv_pd(b.re, a.re, mask),
                _mm256_blendv_pd(b.im, a.im, mask)};
}

/* the lanes where a == 0.0 */
AVX2 static inline __m256d vzero(vc a)
{
    __m256d zero = _mm256_setzero_pd();
    return _mm256_and_pd(_mm256_cmp_pd(a.re, zero, _CMP_EQ_OQ),
                         _mm256_cmp_pd(a.im, zero, _CMP_EQ_OQ));
}

/* cabs1() */
AVX2 static inline __m256d vcabs1(vc a)
{
    __m256d sign = _mm256_set1_pd(-0.0);
    return _mm256_add_pd(_mm256_andnot_pd(sign, a.re),
                         _mm256_andnot_pd(sign, a.im));
}

/* polish() */
AVX2 static void polish_simd(int n, const cplx *alpha, const cplx *off,
                             const cplx *z, const int *idx, double tiny,
                             cplx *quotient, cplx *repel)
{
    cplx zl[LANES];
    vc zg[GROUPS], ir[GROUPS], q[GROUPS], ld[GROUPS];
    vc vtiny = vset1(tiny), zero = vset1(0.0);
    __m256d minus_one = _mm256_set1_pd(-1.0);
    for (int l = 0; l < LANES; l++)
        zl[l] = z[idx[l]];
    EACH_GROUP(h) {
        zg[h] = vgather(zl, h);
        ir[h] = q[h] = ld[h] = zero;
    }
    for (int k = 0; k < n; k++) {
        vc o2 = vset1(k ? off[k - 1] * off[k - 1] : 0.0), a = vset1(alpha[k]);
        EACH_GROUP(h) {
            vc r = vsub(vsub(a, zg[h]), vmul(o2, ir[h]));
            vc t = vmul(vmul(vmul(o2, q[h]), ir[h]), ir[h]);
            q[h] = (vc){_mm256_add_pd(minus_one, t.re), t.im};
            ir[h] = vinv(vblend(vzero(r), vtiny, r));
            ld[h] = vadd(ld[h], vmul(q[h], ir[h]));
        }
    }
    __m256d self[GROUPS];
    EACH_GROUP(h) {
        vscatter(quotient, h, vinv(ld[h]));
        self[h] = _mm256_setr_pd(idx[4 * h], idx[4 * h + 1], idx[4 * h + 2],
                                 idx[4 * h + 3]);
        ld[h] = zero;  /* now the repel sums */
    }
    for (int j = 0; j < n; j++) {
        vc zj = vset1(z[j]);
        __m256d at = _mm256_set1_pd(j);
        EACH_GROUP(h) {
            vc t = vinv(vsub(zg[h], zj));
            __m256d skip = _mm256_cmp_pd(self[h], at, _CMP_EQ_OQ);
            ld[h].re = _mm256_add_pd(ld[h].re, _mm256_andnot_pd(skip, t.re));
            ld[h].im = _mm256_add_pd(ld[h].im, _mm256_andnot_pd(skip, t.im));
        }
    }
    EACH_GROUP(h)
        vscatter(repel, h, ld[h]);
}
#endif

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

int ritz_simd(void)
{
#ifdef HAVE_AVX2
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

int ritz_values(int nt, int simd, int n, const cplx *alpha, const cplx *off,
                cplx *theta, cplx *work, int *busy)
{
    double scale = 0.0;
    for (int k = 0; k < n; k++)
        scale = fmax(scale, cabs(alpha[k]));
    for (int k = 0; k + 1 < n; k++)
        scale = fmax(scale, cabs(off[k]));
    memcpy(theta, alpha, n * sizeof(cplx));
    for (int k = 0; k + 1 < n; k++)
        work[k] = off[k] * off[k];
    if (ql(n, theta, work))
        return 1;
    return aberth(nt, simd, n, alpha, off, theta, work, busy,
                  STEP_TOL * scale, 1e-300 + 0x1p-52 * scale);
}

/* Pivoted LU of the tridiagonals with diagonal alpha - sigma_l and
   off-diagonal off, LANES shifts in lockstep, each as LAPACK's xGTTRF:
   unit lower L with multipliers dl, upper U with diagonal d (stored
   inverted) and superdiagonals du and du2, all lane arrays; piv[LANES i
   + l] = -1 where lane l swapped rows i and i + 1, else 0.  Returns the
   mask of the lanes with an exactly zero pivot. */
static int gttrf(int n, const cplx *alpha, const cplx *off,
                 const cplx *sigma, double *dl, double *d, double *du,
                 double *du2, int *piv)
{
    for (int i = 0; i < n; i++)
        EACH_LANE(l)
            put(d, i, l, alpha[i] - sigma[l]);
    for (int i = 0; i + 1 < n; i++)
        EACH_LANE(l) {
            put(dl, i, l, off[i]);
            put(du, i, l, off[i]);
            put(du2, i, l, 0.0);
        }
    for (int i = 0; i + 1 < n; i++) {
        EACH_LANE(l) {
            cplx di = get(d, i, l), dli = get(dl, i, l);
            piv[LANES * i + l] = cabs1(di) < cabs1(dli) ? -1 : 0;
            if (!piv[LANES * i + l]) {
                if (di != 0.0) {  /* else dl is zero too */
                    cplx f = mul(dli, inv(di));
                    put(dl, i, l, f);
                    put(d, i + 1, l, get(d, i + 1, l) - mul(f, get(du, i, l)));
                }
                continue;
            }
            cplx f = mul(di, inv(dli)), u = get(du, i, l),
                 d1 = get(d, i + 1, l);
            put(d, i, l, dli);
            put(dl, i, l, f);
            put(du, i, l, d1);
            put(d, i + 1, l, u - mul(f, d1));
            if (i + 2 < n) {
                cplx du1 = get(du, i + 1, l);
                put(du2, i, l, du1);
                put(du, i + 1, l, mul(du1, -f));
            }
        }
    }
    int zero = 0;
    for (int i = 0; i < n; i++)
        EACH_LANE(l) {
            cplx di = get(d, i, l);
            if (di == 0.0)
                zero |= 1 << l;
            else
                put(d, i, l, inv(di));
        }
    return zero;
}

/* b <- (LU)^{-1} b in each lane, with the factors of gttrf */
static void gttrs(int n, const double *dl, const double *d, const double *du,
                  const double *du2, const int *piv, double *b)
{
    for (int i = 0; i + 1 < n; i++) {
        EACH_LANE(l) {
            cplx b0 = get(b, i, l), b1 = get(b, i + 1, l);
            if (piv[LANES * i + l]) {
                put(b, i, l, b1);
                put(b, i + 1, l, b0 - mul(get(dl, i, l), b1));
            } else {
                put(b, i + 1, l, b1 - mul(get(dl, i, l), b0));
            }
        }
    }
    EACH_LANE(l)
        put(b, n - 1, l, mul(get(b, n - 1, l), get(d, n - 1, l)));
    if (n > 1)
        EACH_LANE(l)
            put(b, n - 2, l, mul(get(b, n - 2, l) - mul(get(du, n - 2, l),
                                                         get(b, n - 1, l)),
                                 get(d, n - 2, l)));
    for (int i = n - 3; i >= 0; i--)
        EACH_LANE(l)
            put(b, i, l, mul(get(b, i, l) - mul(get(du, i, l),
                                                get(b, i + 1, l))
                             - mul(get(du2, i, l), get(b, i + 2, l)),
                             get(d, i, l)));
}

/* x <- x / ||x|| in each lane */
static void normalize(int n, double *x)
{
    double ss[LANES], r[LANES];
    EACH_LANE(l)
        ss[l] = 0.0;
    for (int k = 0; k < n; k++)
        EACH_LANE(l)
            ss[l] += RE(x, k, l) * RE(x, k, l) + IM(x, k, l) * IM(x, k, l);
    EACH_LANE(l)
        r[l] = 1.0 / sqrt(ss[l]);
    for (int k = 0; k < n; k++)
        EACH_LANE(l) {
            RE(x, k, l) *= r[l];
            IM(x, k, l) *= r[l];
        }
}

/* quasi[l] = x^T x in each lane */
static void quasi_sums(int n, const double *x, cplx *quasi)
{
    EACH_LANE(l)
        quasi[l] = 0.0;
    for (int k = 0; k < n; k++)
        EACH_LANE(l)
            quasi[l] += mul(get(x, k, l), get(x, k, l));
}

/* x <- x scale[l] in each lane */
static void scale_lanes(int n, double *x, const cplx *scale)
{
    for (int k = 0; k < n; k++)
        EACH_LANE(l)
            put(x, k, l, mul(get(x, k, l), scale[l]));
}

/* acc[l] = row . x in each lane */
static void row_dots(int n, const cplx *row, const double *x, cplx *acc)
{
    EACH_LANE(l)
        acc[l] = 0.0;
    for (int k = 0; k < n; k++)
        EACH_LANE(l)
            acc[l] += mul(row[k], get(x, k, l));
}

/* The sums' terms of rows k0 .. n - 1: sums[k] += x_k tc, sums[2 n + k]
   += x_k x0 (each planar, the imaginary part n on), lane by lane over
   the act lanes (na of them, in order) */
static void emit_sums(int n, int k0, const double *x, const cplx *tc,
                      const cplx *x0, const int *act, int na, double *sums)
{
    for (int k = k0; k < n; k++)
        for (int j = 0; j < na; j++) {
            cplx xk = get(x, k, act[j]), h = mul(xk, tc[act[j]]),
                 s = mul(xk, x0[act[j]]);
            sums[k] += creal(h);
            sums[n + k] += cimag(h);
            sums[2 * n + k] += creal(s);
            sums[3 * n + k] += cimag(s);
        }
}

#ifdef HAVE_AVX2
/* gttrf(): one pass down the rows, d and du of the next row carried in
   registers, each pivot inverted as soon as it is final */
AVX2 static int gttrf_simd(int n, const cplx *alpha, const cplx *off,
                           const cplx *sigma, double *dl, double *d,
                           double *du, double *du2, int *piv)
{
    vc sg[GROUPS], dc[GROUPS], duc[GROUPS], zero = vset1(0.0);
    __m256i odd = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
    int zmask = 0;
    EACH_GROUP(h) {
        sg[h] = vgather(sigma, h);
        dc[h] = vsub(vset1(alpha[0]), sg[h]);
        duc[h] = n > 1 ? vset1(off[0]) : zero;
    }
    for (int i = 0; i < n; i++) {
        vc dli = i + 1 < n ? vset1(off[i]) : zero;
        vc a1 = i + 1 < n ? vset1(alpha[i + 1]) : zero;
        vc du1 = i + 2 < n ? vset1(off[i + 1]) : zero;
        EACH_GROUP(h) {
            vc di = dc[h], fin = di;
            if (i + 1 < n) {
                vc d1 = vsub(a1, sg[h]), dui = duc[h];
                __m256d p = _mm256_cmp_pd(vcabs1(di), vcabs1(dli), _CMP_LT_OQ);
                __m256d z = vzero(di);
                /* no swap: dl / d, d1 - (dl / d) du (nothing where d is
                   zero); a swap: f = d / dl, u - f d1 */
                vc f_keep = vmul(dli, vinv(di));
                vc d1_keep = vblend(z, d1, vsub(d1, vmul(f_keep, dui)));
                vc f_swap = vmul(di, vinv(dli));
                fin = vblend(p, dli, di);
                vstore(dl, i, h, vblend(p, f_swap, vblend(z, dli, f_keep)));
                vstore(du, i, h, vblend(p, d1, dui));
                vstore(du2, i, h, vblend(p, du1, zero));
                dc[h] = vblend(p, vsub(dui, vmul(f_swap, d1)), d1_keep);
                duc[h] = vblend(p, vmul(du1, (vc){vflip(f_swap.re),
                                                  vflip(f_swap.im)}), du1);
                __m256i p32 = _mm256_permutevar8x32_epi32(
                    _mm256_castpd_si256(p), odd);
                _mm_storeu_si128((__m128i *)(piv + LANES * i + 4 * h),
                                 _mm256_castsi256_si128(p32));
            }
            __m256d z = vzero(fin);
            zmask |= _mm256_movemask_pd(z) << 4 * h;
            vstore(d, i, h, vblend(z, fin, vinv(fin)));
        }
    }
    return zmask;
}

/* gttrs(), the running entries of each pass carried in registers */
AVX2 static void gttrs_simd(int n, const double *dl, const double *d,
                            const double *du, const double *du2,
                            const int *piv, double *b)
{
    vc bi[GROUPS], x0[GROUPS], x1[GROUPS];
    EACH_GROUP(h)
        bi[h] = vload(b, 0, h);
    for (int i = 0; i + 1 < n; i++)
        EACH_GROUP(h) {
            __m256d p = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(
                _mm_loadu_si128((const __m128i *)(piv + LANES * i + 4 * h))));
            vc b1 = vload(b, i + 1, h);
            vc top = vblend(p, b1, bi[h]), low = vblend(p, bi[h], b1);
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

AVX2 static void normalize_simd(int n, double *x)
{
    __m256d ss[GROUPS], r[GROUPS];
    EACH_GROUP(h)
        ss[h] = _mm256_setzero_pd();
    for (int k = 0; k < n; k++)
        EACH_GROUP(h) {
            vc xk = vload(x, k, h);
            ss[h] = _mm256_add_pd(ss[h],
                                  _mm256_add_pd(_mm256_mul_pd(xk.re, xk.re),
                                                _mm256_mul_pd(xk.im, xk.im)));
        }
    EACH_GROUP(h)
        r[h] = _mm256_div_pd(_mm256_set1_pd(1.0), _mm256_sqrt_pd(ss[h]));
    for (int k = 0; k < n; k++)
        EACH_GROUP(h) {
            vc xk = vload(x, k, h);
            vstore(x, k, h, (vc){_mm256_mul_pd(xk.re, r[h]),
                                 _mm256_mul_pd(xk.im, r[h])});
        }
}

AVX2 static void quasi_sums_simd(int n, const double *x, cplx *quasi)
{
    vc sum[GROUPS];
    EACH_GROUP(h)
        sum[h] = vset1(0.0);
    for (int k = 0; k < n; k++)
        EACH_GROUP(h) {
            vc xk = vload(x, k, h);
            sum[h] = vadd(sum[h], vmul(xk, xk));
        }
    EACH_GROUP(h)
        vscatter(quasi, h, sum[h]);
}

AVX2 static void scale_lanes_simd(int n, double *x, const cplx *scale)
{
    EACH_GROUP(h) {
        vc s = vgather(scale, h);
        for (int k = 0; k < n; k++)
            vstore(x, k, h, vmul(vload(x, k, h), s));
    }
}

AVX2 static void row_dots_simd(int n, const cplx *row, const double *x,
                               cplx *acc)
{
    vc sum[GROUPS];
    EACH_GROUP(h)
        sum[h] = vset1(0.0);
    for (int k = 0; k < n; k++) {
        vc rk = vset1(row[k]);
        EACH_GROUP(h)
            sum[h] = vadd(sum[h], vmul(rk, vload(x, k, h)));
    }
    EACH_GROUP(h)
        vscatter(acc, h, sum[h]);
}

/* four lanes of a lane array in four rows from p (one lane's entry of
   the first row), one vector per lane: the 4 x 4 block transposed */
AVX2 static inline void vtranspose(const double *p, __m256d *col)
{
    __m256d r0 = _mm256_loadu_pd(p), r1 = _mm256_loadu_pd(p + 2 * LANES),
            r2 = _mm256_loadu_pd(p + 4 * LANES),
            r3 = _mm256_loadu_pd(p + 6 * LANES);
    __m256d t0 = _mm256_unpacklo_pd(r0, r1), t1 = _mm256_unpackhi_pd(r0, r1);
    __m256d t2 = _mm256_unpacklo_pd(r2, r3), t3 = _mm256_unpackhi_pd(r2, r3);
    col[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    col[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    col[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    col[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/* emit_sums() from row 0, four rows per vector: each row's terms are
   added in lane order, the four rows side by side.  Returns the first
   row left, for emit_sums. */
AVX2 static int emit_sums_simd(int n, const double *x, const cplx *tc,
                               const cplx *x0, const int *act, int na,
                               double *sums)
{
    int on[LANES] = {0}, k0 = 0;
    for (int j = 0; j < na; j++)
        on[act[j]] = 1;
    for (; k0 + 4 <= n; k0 += 4) {
        double *hr = sums + k0, *hi = hr + n, *sr = hi + n, *si = sr + n;
        vc h = {_mm256_loadu_pd(hr), _mm256_loadu_pd(hi)};
        vc s = {_mm256_loadu_pd(sr), _mm256_loadu_pd(si)};
        EACH_GROUP(g) {
            __m256d re[4], im[4];
            vtranspose(&RE(x, k0, 4 * g), re);
            vtranspose(&IM(x, k0, 4 * g), im);
            _Pragma("GCC unroll 4") for (int l = 0; l < 4; l++) {
                if (!on[4 * g + l])
                    continue;
                vc xk = {re[l], im[l]};
                h = vadd(h, vmul(xk, vset1(tc[4 * g + l])));
                s = vadd(s, vmul(xk, vset1(x0[4 * g + l])));
            }
        }
        _mm256_storeu_pd(hr, h.re);
        _mm256_storeu_pd(hi, h.im);
        _mm256_storeu_pd(sr, s.re);
        _mm256_storeu_pd(si, s.im);
    }
    return k0;
}
#endif

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

/* The arguments of ritz_vectors that every lane group reads */
struct invit {
    int n, steps, chain, np, simd;
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
   five lane arrays of n rows (10 LANES n doubles) and piv LANES n
   ints. */
static void lane_group(const struct invit *a, int *v, const int *pos,
                       cplx **slots, double *sums, double *work, int *piv,
                       struct failure *f)
{
    int n = a->n, simd = a->simd, lead = 0;
    size_t size = 2 * LANES * (size_t)n;
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
    int act[LANES], na = 0;
    for (int l = 0; l < LANES; l++) {
        if (v[l] < 0)
            continue;
        act[na++] = l;
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
        for (int j = 0; j < na; j++)
            a->probe[(size_t)p * n + v[act[j]]] = acc[act[j]];
    }
    int k0 = 0;
#ifdef HAVE_AVX2
    if (simd)
        k0 = emit_sums_simd(n, x, tc, x0, act, na, sums);
#endif
    emit_sums(n, k0, x, tc, x0, act, na, sums);
}

/* The vector loop of one block of ritz_vectors: the chains headed by
   values b BLOCK .. b BLOCK + BLOCK - 1, LANES at a time in lockstep, a
   lane taking the block's next head when its chain ends.  Their terms of
   the sums go to the block's partials (4 n doubles at partial + 4 n b,
   zeroed here: the real, then the imaginary parts of hs, then of ss).
   own holds the lane arrays (10 LANES n doubles) and the chain slots
   (LANES chain n values), piv LANES n ints. */
static void run_block(const struct invit *a, int b, double *partial,
                      cplx *own, int *piv, struct failure *f)
{
    int n = a->n, head = b * BLOCK, end = head + BLOCK < n ? head + BLOCK : n;
    int v[LANES], pos[LANES];
    double *sums = partial + (size_t)b * 4 * n;
    cplx *slots[LANES];
    memset(sums, 0, 4 * n * sizeof(double));
    EACH_LANE(l) {
        slots[l] = own + (size_t)(5 * LANES + a->chain * l) * n;
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
   simd chooses the lanes' path (ritz_simd()).

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
    int chain = 1;
    for (int i = 0; i < n; i++) {
        int members = 1;
        for (int j = prev[i]; j >= 0; j = prev[j])
            members++;
        chain = members > chain ? members : chain;
    }
    struct invit a = {n, steps, chain, np, simd, alpha, off, theta, rows,
                      prev, next, nudge, defect_tol, first, probe};
    struct failure f = {n, 0, 0.0};
    int blocks = (n + BLOCK - 1) / BLOCK, nomem = 0;
    double *partial = malloc((size_t)blocks * 4 * n * sizeof(double));
    if (!partial)
        return 3;
#pragma omp parallel num_threads(nt)
    {
        cplx *own = malloc((size_t)LANES * (5 + chain) * n * sizeof(cplx));
        int *piv = malloc((size_t)LANES * n * sizeof(int));
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
        /* hs[k] or ss[k - n]: its real part at 2 n (k >= n) + k % n */
        double re = 0.0, im = 0.0;
        for (int b = 0; b < blocks; b++) {
            const double *p = partial + (size_t)b * 4 * n + (k / n) * n + k;
            re += p[0];
            im += p[n];
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
