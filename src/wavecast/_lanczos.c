/* One step of the renormalized two-sided Lanczos recursion of krylov.py,
   as two passes over the unknowns, each with its reductions.

   lanczos_phase_a(nt, simd, wx, wy, r, scale, cxm, cxp, cym, cyp, inv_c,
                   m_diag, w, aw, dots):
       w = r * scale and aw = A w, and for each grid row ix the partial
       sums dots[ix] of w_j (m_j w_j) and dots[wx + ix] of w_j (m_j aw_j)
       (m = M's diagonal), whose totals are w^T M w and w^T M A w.  A is
       the five-point operator of operator.py on a wx x wy grid (unknown
       ix * wy + iy): row (ix, iy) couples (ix -+ 1, iy) by cxm[ix],
       cxp[ix] and (ix, iy -+ 1) by cym[iy], cyp[iy], each times
       inv_c[ix * wy + iy], with centre (-(cxm + cxp)[ix] - (cym +
       cyp)[iy]) * inv_c; neighbours past the grid's edge drop out.  The
       scaled w of each neighbour is computed where it is used, so r is
       only read.
   lanczos_phase_b(nt, simd, wx, wy, aw, w, coef, w_prev, has_prev, r,
                   norms):
       r = aw - alpha w, then r - c w_prev when has_prev, with coef the
       pairs (alpha, c), and for each grid row ix the partial sum
       norms[ix] of |r_j|^2; r may be w_prev, or aw.
   lanczos_simd(): 1 when this CPU runs the AVX2/FMA path.

   Complex vectors, and the stencil factors, are interleaved doubles
   (re, im).  Both passes split the grid rows into nt contiguous blocks,
   one OpenMP thread each.  M w and M A w are never stored: a step reads
   and writes 136 bytes per unknown (31 MB at n = 229 441), against 248
   when the dots and the norm were whole-vector BLAS passes in between,
   and no reduction of the step depends on the BLAS or its threads.

   Every element, and every row partial, is computed by one fixed rule,
   so the results are bitwise the same for any nt and on either path:
   - A stencil coefficient, factor f times inv_c, is the two real
     products (f_re inv_c, f_im inv_c).
   - Every other complex product takes the fused form fma(ar, br,
     -(ai bi)) + i fma(ar, bi, ai br), a the first operand: the
     coefficients' products with w, M w, M aw, the dot terms
     w_j (M w)_j and w_j (M aw)_j, alpha w and c w_prev.
   - A w sums its terms from +0.0 in column order (west, south, centre,
     north, east), as a CSR product of the assembled matrix would.
   - A row partial starts at +0.0 and adds its terms in element order;
     |r_j|^2 is rr rr + ri ri.  The caller adds up the row partials.
   - Built with -ffp-contract=off, so FMA comes only from fma() and the
     intrinsics. */

#include <math.h>

#if defined(__x86_64__) || defined(__i386__)
#define HAVE_AVX2 1
#include <immintrin.h>
#endif

/* p = a * b in the fused form; the operands are (re, im) pairs */
static inline void cmul(double ar, double ai, double br, double bi,
                        double *pr, double *pi)
{
    *pr = fma(ar, br, -(ai * bi));
    *pi = fma(ar, bi, ai * br);
}

/* s += (f * ic) * (x * scale): one stencil term, f a stencil factor and
   f * ic the coefficient (f_re ic, f_im ic) */
static inline void term(const double *f, double ic, const double *x,
                        double scale, double *s)
{
    double tr, ti;
    cmul(f[0] * ic, f[1] * ic, x[0] * scale, x[1] * scale, &tr, &ti);
    s[0] += tr;
    s[1] += ti;
}

/* s += a (m b), the term of a row partial of a^T M b */
static inline void dot_term(const double *m, double ar, double ai,
                            double br, double bi, double *sr, double *si)
{
    double pr, pi, tr, ti;
    cmul(m[0], m[1], br, bi, &pr, &pi);
    cmul(ar, ai, pr, pi, &tr, &ti);
    *sr += tr;
    *si += ti;
}

/* GCC inlines fma() only where the target has FMA; elsewhere it is a
   call into libm, which made the step five times slower.  The clones
   give the same bits, since fma() is exactly rounded either way; their
   run-time dispatch needs glibc's ifunc. */
#if defined(__x86_64__) && defined(__GLIBC__)
#define FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define FMA_CLONES
#endif

/* unknowns [lo, hi) of grid row ix; acc holds the row's partials of
   w^T M w (acc[0..1]) and w^T M aw (acc[2..3]) so far */
FMA_CLONES
static void phase_a_scalar(long lo, long hi, int ix, int wx, int wy,
                           const double *r, double scale, const double *cxm,
                           const double *cxp, const double *cym,
                           const double *cyp, const double *inv_c,
                           const double *m_diag, double *w, double *aw,
                           double *acc)
{
    long row = (long)ix * wy;
    const double *fx = cxm + 2 * ix, *gx = cxp + 2 * ix;
    double sx[2] = {-(fx[0] + gx[0]), -(fx[1] + gx[1])};
    double dr = acc[0], di = acc[1], ar = acc[2], ai = acc[3];
    for (long j = lo; j < hi; j++) {
        int iy = (int)(j - row);
        const double *x = r + 2 * j, *fy = cym + 2 * iy;
        const double *gy = cyp + 2 * iy, *m = m_diag + 2 * j;
        double ic = inv_c[j], s[2] = {0.0, 0.0};
        double cen[2] = {sx[0] - (fy[0] + gy[0]), sx[1] - (fy[1] + gy[1])};
        if (ix > 0)
            term(fx, ic, x - 2 * wy, scale, s);
        if (iy > 0)
            term(fy, ic, x - 2, scale, s);
        term(cen, ic, x, scale, s);
        if (iy < wy - 1)
            term(gy, ic, x + 2, scale, s);
        if (ix < wx - 1)
            term(gx, ic, x + 2 * wy, scale, s);
        double wr = x[0] * scale, wi = x[1] * scale;
        w[2 * j] = wr;
        w[2 * j + 1] = wi;
        aw[2 * j] = s[0];
        aw[2 * j + 1] = s[1];
        dot_term(m, wr, wi, wr, wi, &dr, &di);
        dot_term(m, wr, wi, s[0], s[1], &ar, &ai);
    }
    acc[0] = dr;
    acc[1] = di;
    acc[2] = ar;
    acc[3] = ai;
}

/* unknowns [lo, hi) of one grid row; returns acc, the row's partial
   of ||r||^2 so far, with their terms added */
FMA_CLONES
static double phase_b_scalar(long lo, long hi, const double *aw,
                             const double *w, const double *alpha,
                             const double *w_prev, const double *c,
                             int has_prev, double *r, double acc)
{
    for (long j = lo; j < hi; j++) {
        double tr, ti, rr, ri;
        cmul(alpha[0], alpha[1], w[2 * j], w[2 * j + 1], &tr, &ti);
        rr = aw[2 * j] - tr;
        ri = aw[2 * j + 1] - ti;
        if (has_prev) {
            cmul(c[0], c[1], w_prev[2 * j], w_prev[2 * j + 1], &tr, &ti);
            rr -= tr;
            ri -= ti;
        }
        r[2 * j] = rr;
        r[2 * j + 1] = ri;
        acc += rr * rr + ri * ri;
    }
    return acc;
}

#ifdef HAVE_AVX2
/* two complex values per vector, (re0, im0, re1, im1) */
#define AVX2 __attribute__((target("avx2,fma")))

/* a * b in the fused form */
AVX2 static inline __m256d vmul(__m256d a, __m256d b)
{
    __m256d t = _mm256_mul_pd(_mm256_permute_pd(a, 0xF),
                              _mm256_permute_pd(b, 0x5));
    return _mm256_fmaddsub_pd(_mm256_movedup_pd(a), b, t);
}

/* s + (f * ic) * (x * scale), as term(); ic holds (ic0, ic0, ic1, ic1) */
AVX2 static inline __m256d vterm(__m256d s, __m256d f, __m256d ic,
                                 const double *x, __m256d scale)
{
    __m256d xs = _mm256_mul_pd(_mm256_loadu_pd(x), scale);
    return _mm256_add_pd(s, vmul(_mm256_mul_pd(f, ic), xs));
}

/* acc + t0 + t1, the two complex values of t in element order */
AVX2 static inline __m128d vsum(__m128d acc, __m256d t)
{
    acc = _mm_add_pd(acc, _mm256_castpd256_pd128(t));
    return _mm_add_pd(acc, _mm256_extractf128_pd(t, 1));
}

/* grid row ix: pairs of unknowns with all four neighbours, the rest as
   scalars; acc as phase_a_scalar's */
AVX2 static void phase_a_simd(int ix, int wx, int wy, const double *r,
                              double scale, const double *cxm,
                              const double *cxp, const double *cym,
                              const double *cyp, const double *inv_c,
                              const double *m_diag, double *w, double *aw,
                              double *acc)
{
    const __m256d sign = _mm256_set1_pd(-0.0), vs = _mm256_set1_pd(scale);
    long row = (long)ix * wy, a = row, b = row;  /* [a, b): the vectors */
    if (ix > 0 && ix < wx - 1 && wy > 2) {
        a = row + 1;
        b = a + (wy - 2) / 2 * 2;
    }
    phase_a_scalar(row, a, ix, wx, wy, r, scale, cxm, cxp, cym, cyp, inv_c,
                   m_diag, w, aw, acc);
    __m256d fx = _mm256_broadcast_pd((const __m128d *)(cxm + 2 * ix));
    __m256d gx = _mm256_broadcast_pd((const __m128d *)(cxp + 2 * ix));
    __m256d nsx = _mm256_xor_pd(_mm256_add_pd(fx, gx), sign);
    __m128d dw = _mm_loadu_pd(acc), da = _mm_loadu_pd(acc + 2);
    for (long k = a; k < b; k += 2) {
        const double *x = r + 2 * k;
        long iy = k - row;
        __m256d fy = _mm256_loadu_pd(cym + 2 * iy);
        __m256d gy = _mm256_loadu_pd(cyp + 2 * iy);
        __m256d cen = _mm256_sub_pd(nsx, _mm256_add_pd(fy, gy));
        __m256d ic = _mm256_set_pd(inv_c[k + 1], inv_c[k + 1], inv_c[k],
                                   inv_c[k]);
        __m256d s = _mm256_setzero_pd();
        s = vterm(s, fx, ic, x - 2 * wy, vs);
        s = vterm(s, fy, ic, x - 2, vs);
        s = vterm(s, cen, ic, x, vs);
        s = vterm(s, gy, ic, x + 2, vs);
        s = vterm(s, gx, ic, x + 2 * wy, vs);
        __m256d wv = _mm256_mul_pd(_mm256_loadu_pd(x), vs);
        __m256d m = _mm256_loadu_pd(m_diag + 2 * k);
        _mm256_storeu_pd(w + 2 * k, wv);
        _mm256_storeu_pd(aw + 2 * k, s);
        dw = vsum(dw, vmul(wv, vmul(m, wv)));
        da = vsum(da, vmul(wv, vmul(m, s)));
    }
    _mm_storeu_pd(acc, dw);
    _mm_storeu_pd(acc + 2, da);
    phase_a_scalar(b, row + wy, ix, wx, wy, r, scale, cxm, cxp, cym, cyp,
                   inv_c, m_diag, w, aw, acc);
}

/* grid row ix, two unknowns per vector; returns the row's partial of
   ||r||^2 */
AVX2 static double phase_b_simd(int ix, int wy, const double *aw,
                                const double *w, const double *alpha,
                                const double *w_prev, const double *c,
                                int has_prev, double *r)
{
    __m256d va = _mm256_broadcast_pd((const __m128d *)alpha);
    __m256d vc = _mm256_broadcast_pd((const __m128d *)c);
    long j = (long)ix * wy, end = j + wy;
    __m128d acc = _mm_setzero_pd();
    for (; j + 2 <= end; j += 2) {
        __m256d v = _mm256_sub_pd(_mm256_loadu_pd(aw + 2 * j),
                                  vmul(va, _mm256_loadu_pd(w + 2 * j)));
        if (has_prev)
            v = _mm256_sub_pd(v, vmul(vc, _mm256_loadu_pd(w_prev + 2 * j)));
        _mm256_storeu_pd(r + 2 * j, v);
        /* (|r_j|^2, ., |r_j+1|^2, .) */
        __m256d sq = _mm256_mul_pd(v, v);
        sq = _mm256_hadd_pd(sq, sq);
        acc = _mm_add_sd(acc, _mm256_castpd256_pd128(sq));
        acc = _mm_add_sd(acc, _mm256_extractf128_pd(sq, 1));
    }
    return phase_b_scalar(j, end, aw, w, alpha, w_prev, c, has_prev, r,
                          _mm_cvtsd_f64(acc));
}
#endif

int lanczos_simd(void)
{
#ifdef HAVE_AVX2
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return 0;
#endif
}

int lanczos_phase_a(int nt, int simd, int wx, int wy, const double *r,
                    double scale, const double *cxm, const double *cxp,
                    const double *cym, const double *cyp,
                    const double *inv_c, const double *m_diag, double *w,
                    double *aw, double *dots)
{
#pragma omp parallel for num_threads(nt) schedule(static, 1)
    for (int k = 0; k < nt; k++) {
        int r0 = (int)((long)wx * k / nt), r1 = (int)((long)wx * (k + 1) / nt);
        for (int ix = r0; ix < r1; ix++) {
            long row = (long)ix * wy;
            double acc[4] = {0.0, 0.0, 0.0, 0.0};
#ifdef HAVE_AVX2
            if (simd)
                phase_a_simd(ix, wx, wy, r, scale, cxm, cxp, cym, cyp,
                             inv_c, m_diag, w, aw, acc);
            else
#endif
                phase_a_scalar(row, row + wy, ix, wx, wy, r, scale, cxm,
                               cxp, cym, cyp, inv_c, m_diag, w, aw, acc);
            dots[2 * ix] = acc[0];
            dots[2 * ix + 1] = acc[1];
            dots[2 * (wx + ix)] = acc[2];
            dots[2 * (wx + ix) + 1] = acc[3];
        }
    }
    (void)simd;
    return 0;
}

int lanczos_phase_b(int nt, int simd, int wx, int wy, const double *aw,
                    const double *w, const double *coef,
                    const double *w_prev, int has_prev, double *r,
                    double *norms)
{
    const double *alpha = coef, *c = coef + 2;
#pragma omp parallel for num_threads(nt) schedule(static, 1)
    for (int k = 0; k < nt; k++) {
        int r0 = (int)((long)wx * k / nt), r1 = (int)((long)wx * (k + 1) / nt);
        for (int ix = r0; ix < r1; ix++) {
            long row = (long)ix * wy;
#ifdef HAVE_AVX2
            if (simd)
                norms[ix] = phase_b_simd(ix, wy, aw, w, alpha, w_prev, c,
                                         has_prev, r);
            else
#endif
                norms[ix] = phase_b_scalar(row, row + wy, aw, w, alpha,
                                           w_prev, c, has_prev, r, 0.0);
        }
    }
    (void)simd;
    return 0;
}
