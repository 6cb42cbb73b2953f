/* One step of the renormalized two-sided Lanczos recursion of krylov.py,
   as two passes over the unknowns, each with its reductions.

   Vectors are planar: n real parts, then n imaginary parts (unknown
   ix * wy + iy of a wx x wy grid, n = wx wy), and so are the stencil
   factors.  The recursion keeps r_i = zeta_i w_i; each pass forms
   w_i = r_i s_i (s_i = 1 / zeta_i, one real product per component)
   where it reads it, so w is never stored.

   lanczos_phase_a(nt, s, simd, wx, wy, r, cxm, cxp, cym, cyp, inv_c,
                   m_diag, aw, dots):
       aw = A w with w = r s, and for each grid row ix the partial sums
       dots[ix] of w_j (m_j w_j) and dots[wx + ix] of w_j (m_j aw_j)
       (m = M's diagonal; dots is complex, interleaved), whose totals
       are w^T M w and w^T M A w.  A is the five-point operator of
       operator.py: row (ix, iy) couples (ix -+ 1, iy) by cxm[ix],
       cxp[ix] and (ix, iy -+ 1) by cym[iy], cyp[iy], each times
       inv_c[ix * wy + iy], with centre (-(cxm + cxp)[ix] - (cym +
       cyp)[iy]) * inv_c; neighbours past the grid's edge drop out.
   lanczos_phase_b(nt, has_prev, simd, wx, wy, aw, r, r_prev, coef,
                   norms):
       with coef = (alpha_re, alpha_im, c_re, c_im, s, s_prev), writes
       aw - alpha (r s) - c (r_prev s_prev) over r_prev, the last term
       only when has_prev, and for each grid row ix the partial sum
       norms[ix] of its |.|^2; r_prev may be r, and then aw too.
   lanczos_simd(): 1 when this CPU runs the AVX2/FMA path.

   Both passes split the grid rows into nt contiguous blocks (a static
   schedule), one OpenMP thread each.  Neither w, M w nor M A w is
   stored: a step moves 120 bytes per unknown (27.5 MB at n = 229 441),
   and no reduction depends on the BLAS.

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

/* phase A's grid and operator; a planar x has its re row at x, its im
   row at x + n (x + wx, x + wy for the stencil factors) */
struct step {
    int wx, wy;
    long n;
    const double *cxm, *cxp, *cym, *cyp, *inv_c, *m_diag;
};

/* p = a * b in the fused form */
static inline void cmul(double ar, double ai, double br, double bi,
                        double *pr, double *pi)
{
    *pr = fma(ar, br, -(ai * bi));
    *pi = fma(ar, bi, ai * br);
}

/* s += (f * ic) * (x * scale): one stencil term, (fr, fi) a stencil
   factor and (fr ic, fi ic) the coefficient; x points at a real part */
static inline void term(double fr, double fi, double ic, const double *x,
                        long n, double scale, double *s)
{
    double tr, ti;
    cmul(fr * ic, fi * ic, x[0] * scale, x[n] * scale, &tr, &ti);
    s[0] += tr;
    s[1] += ti;
}

/* s += a (m b), the term of a row partial of a^T M b */
static inline void dot_term(double mr, double mi, double ar, double ai,
                            double br, double bi, double *s)
{
    double pr, pi, tr, ti;
    cmul(mr, mi, br, bi, &pr, &pi);
    cmul(ar, ai, pr, pi, &tr, &ti);
    s[0] += tr;
    s[1] += ti;
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
static void phase_a_scalar(const struct step *g, long lo, long hi, int ix,
                           const double *r, double scale, double *aw,
                           double *restrict acc)
{
    int wx = g->wx, wy = g->wy;
    long n = g->n, row = (long)ix * wy;
    double fxr = g->cxm[ix], fxi = g->cxm[wx + ix];
    double gxr = g->cxp[ix], gxi = g->cxp[wx + ix];
    double sxr = -(fxr + gxr), sxi = -(fxi + gxi);
    for (long j = lo; j < hi; j++) {
        int iy = (int)(j - row);
        const double *x = r + j;
        double fyr = g->cym[iy], fyi = g->cym[wy + iy];
        double gyr = g->cyp[iy], gyi = g->cyp[wy + iy];
        double ic = g->inv_c[j], s[2] = {0.0, 0.0};
        if (ix > 0)
            term(fxr, fxi, ic, x - wy, n, scale, s);
        if (iy > 0)
            term(fyr, fyi, ic, x - 1, n, scale, s);
        term(sxr - (fyr + gyr), sxi - (fyi + gyi), ic, x, n, scale, s);
        if (iy < wy - 1)
            term(gyr, gyi, ic, x + 1, n, scale, s);
        if (ix < wx - 1)
            term(gxr, gxi, ic, x + wy, n, scale, s);
        double wr = x[0] * scale, wi = x[n] * scale;
        double mr = g->m_diag[j], mi = g->m_diag[n + j];
        aw[j] = s[0];
        aw[n + j] = s[1];
        dot_term(mr, mi, wr, wi, wr, wi, acc);
        dot_term(mr, mi, wr, wi, s[0], s[1], acc + 2);
    }
}

/* unknowns [lo, hi); out = aw - alpha (r s) - c (r_prev s_prev), the last
   term when has_prev, with coef as lanczos_phase_b's; returns acc, the
   row's partial of ||out||^2 so far, with their terms added */
FMA_CLONES
static double phase_b_scalar(long lo, long hi, long n, const double *aw,
                             const double *r, const double *restrict coef,
                             int has_prev, double *r_prev, double acc)
{
    for (long j = lo; j < hi; j++) {
        double tr, ti, rr, ri, s = coef[4], sp = coef[5];
        cmul(coef[0], coef[1], r[j] * s, r[n + j] * s, &tr, &ti);
        rr = aw[j] - tr;
        ri = aw[n + j] - ti;
        if (has_prev) {
            cmul(coef[2], coef[3], r_prev[j] * sp, r_prev[n + j] * sp, &tr,
                 &ti);
            rr -= tr;
            ri -= ti;
        }
        r_prev[j] = rr;
        r_prev[n + j] = ri;
        acc += rr * rr + ri * ri;
    }
    return acc;
}

#ifdef HAVE_AVX2
/* four unknowns per vector: their real parts in one, imaginary in another */
#define AVX2 __attribute__((target("avx2,fma")))
#define LOAD(p) _mm256_loadu_pd(p)

/* (pr, pi) = a * b in the fused form */
AVX2 static inline void vmul(__m256d ar, __m256d ai, __m256d br,
                             __m256d bi, __m256d *pr, __m256d *pi)
{
    *pr = _mm256_fmsub_pd(ar, br, _mm256_mul_pd(ai, bi));
    *pi = _mm256_fmadd_pd(ar, bi, _mm256_mul_pd(ai, br));
}

/* s += (f * ic) * (x * scale), as term() */
AVX2 static inline void vterm(__m256d fr, __m256d fi, __m256d ic,
                              const double *x, long n, __m256d scale,
                              __m256d *sr, __m256d *si)
{
    __m256d tr, ti;
    vmul(_mm256_mul_pd(fr, ic), _mm256_mul_pd(fi, ic),
         _mm256_mul_pd(LOAD(x), scale), _mm256_mul_pd(LOAD(x + n), scale),
         &tr, &ti);
    *sr = _mm256_add_pd(*sr, tr);
    *si = _mm256_add_pd(*si, ti);
}

/* grid row ix: runs of four unknowns with all four neighbours, the rest
   as scalars; acc as phase_a_scalar's */
AVX2 static void phase_a_simd(const struct step *g, int ix, const double *r,
                              double scale, double *aw, double *acc)
{
    int wx = g->wx, wy = g->wy;
    long n = g->n, row = (long)ix * wy, a = row, b = row;  /* [a, b) */
    if (ix > 0 && ix < wx - 1 && wy > 2) {
        a = row + 1;
        b = a + (wy - 2) / 4 * 4;
    }
    phase_a_scalar(g, row, a, ix, r, scale, aw, acc);
    const double *fx = g->cxm + ix, *gx = g->cxp + ix;
    __m256d vs = _mm256_set1_pd(scale);
    __m256d fxr = _mm256_set1_pd(fx[0]), fxi = _mm256_set1_pd(fx[wx]);
    __m256d gxr = _mm256_set1_pd(gx[0]), gxi = _mm256_set1_pd(gx[wx]);
    __m256d sxr = _mm256_set1_pd(-(fx[0] + gx[0]));
    __m256d sxi = _mm256_set1_pd(-(fx[wx] + gx[wx]));
    /* (w^T M w re, im, w^T M aw re, im), one unknown's terms at a time */
    __m256d sum = _mm256_loadu_pd(acc);
    for (long k = a; k < b; k += 4) {
        const double *x = r + k;
        long iy = k - row;
        __m256d fyr = LOAD(g->cym + iy), fyi = LOAD(g->cym + wy + iy);
        __m256d gyr = LOAD(g->cyp + iy), gyi = LOAD(g->cyp + wy + iy);
        __m256d ic = LOAD(g->inv_c + k);
        __m256d sr = _mm256_setzero_pd(), si = _mm256_setzero_pd();
        vterm(fxr, fxi, ic, x - wy, n, vs, &sr, &si);
        vterm(fyr, fyi, ic, x - 1, n, vs, &sr, &si);
        vterm(_mm256_sub_pd(sxr, _mm256_add_pd(fyr, gyr)),
              _mm256_sub_pd(sxi, _mm256_add_pd(fyi, gyi)), ic, x, n, vs,
              &sr, &si);
        vterm(gyr, gyi, ic, x + 1, n, vs, &sr, &si);
        vterm(gxr, gxi, ic, x + wy, n, vs, &sr, &si);
        _mm256_storeu_pd(aw + k, sr);
        _mm256_storeu_pd(aw + n + k, si);
        __m256d wr = _mm256_mul_pd(LOAD(x), vs);
        __m256d wi = _mm256_mul_pd(LOAD(x + n), vs);
        __m256d mr = LOAD(g->m_diag + k), mi = LOAD(g->m_diag + n + k);
        __m256d pr, pi, dr, di, er, ei;
        vmul(mr, mi, wr, wi, &pr, &pi);
        vmul(wr, wi, pr, pi, &dr, &di);
        vmul(mr, mi, sr, si, &pr, &pi);
        vmul(wr, wi, pr, pi, &er, &ei);
        /* transpose (dr, di, er, ei) to one vector per unknown */
        __m256d t0 = _mm256_unpacklo_pd(dr, di);
        __m256d t1 = _mm256_unpackhi_pd(dr, di);
        __m256d t2 = _mm256_unpacklo_pd(er, ei);
        __m256d t3 = _mm256_unpackhi_pd(er, ei);
        sum = _mm256_add_pd(sum, _mm256_permute2f128_pd(t0, t2, 0x20));
        sum = _mm256_add_pd(sum, _mm256_permute2f128_pd(t1, t3, 0x20));
        sum = _mm256_add_pd(sum, _mm256_permute2f128_pd(t0, t2, 0x31));
        sum = _mm256_add_pd(sum, _mm256_permute2f128_pd(t1, t3, 0x31));
    }
    _mm256_storeu_pd(acc, sum);
    phase_a_scalar(g, b, row + wy, ix, r, scale, aw, acc);
}

/* grid row ix, four unknowns per vector and the rest as scalars;
   returns the row's partial of ||out||^2 */
AVX2 static double phase_b_simd(int ix, int wy, long n, const double *aw,
                                const double *r, const double *coef,
                                int has_prev, double *r_prev)
{
    __m256d ar = _mm256_set1_pd(coef[0]), ai = _mm256_set1_pd(coef[1]);
    __m256d cr = _mm256_set1_pd(coef[2]), ci = _mm256_set1_pd(coef[3]);
    __m256d s = _mm256_set1_pd(coef[4]), sp = _mm256_set1_pd(coef[5]);
    long j = (long)ix * wy, end = j + wy;
    double acc = 0.0;
    for (; j + 4 <= end; j += 4) {
        __m256d tr, ti;
        vmul(ar, ai, _mm256_mul_pd(LOAD(r + j), s),
             _mm256_mul_pd(LOAD(r + n + j), s), &tr, &ti);
        __m256d vr = _mm256_sub_pd(LOAD(aw + j), tr);
        __m256d vi = _mm256_sub_pd(LOAD(aw + n + j), ti);
        if (has_prev) {
            vmul(cr, ci, _mm256_mul_pd(LOAD(r_prev + j), sp),
                 _mm256_mul_pd(LOAD(r_prev + n + j), sp), &tr, &ti);
            vr = _mm256_sub_pd(vr, tr);
            vi = _mm256_sub_pd(vi, ti);
        }
        _mm256_storeu_pd(r_prev + j, vr);
        _mm256_storeu_pd(r_prev + n + j, vi);
        double sq[4];  /* |.|^2, added lane by lane in element order */
        _mm256_storeu_pd(sq, _mm256_add_pd(_mm256_mul_pd(vr, vr),
                                           _mm256_mul_pd(vi, vi)));
        acc = acc + sq[0] + sq[1] + sq[2] + sq[3];
    }
    return phase_b_scalar(j, end, n, aw, r, coef, has_prev, r_prev, acc);
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

int lanczos_phase_a(int nt, double s, int simd, int wx, int wy,
                    const double *r, const double *cxm, const double *cxp,
                    const double *cym, const double *cyp,
                    const double *inv_c, const double *m_diag, double *aw,
                    double *dots)
{
    const struct step g = {wx, wy, (long)wx * wy, cxm, cxp, cym, cyp,
                           inv_c, m_diag};
#pragma omp parallel for num_threads(nt) schedule(static)
    for (int ix = 0; ix < wx; ix++) {
        long row = (long)ix * wy;
        double acc[4] = {0.0, 0.0, 0.0, 0.0};
#ifdef HAVE_AVX2
        if (simd)
            phase_a_simd(&g, ix, r, s, aw, acc);
        else
#endif
            phase_a_scalar(&g, row, row + wy, ix, r, s, aw, acc);
        dots[2 * ix] = acc[0];
        dots[2 * ix + 1] = acc[1];
        dots[2 * (wx + ix)] = acc[2];
        dots[2 * (wx + ix) + 1] = acc[3];
    }
    (void)simd;
    return 0;
}

int lanczos_phase_b(int nt, int has_prev, int simd, int wx, int wy,
                    const double *aw, const double *r, double *r_prev,
                    const double *coef, double *norms)
{
    long n = (long)wx * wy;
#pragma omp parallel for num_threads(nt) schedule(static)
    for (int ix = 0; ix < wx; ix++) {
        long row = (long)ix * wy;
#ifdef HAVE_AVX2
        if (simd)
            norms[ix] = phase_b_simd(ix, wy, n, aw, r, coef, has_prev,
                                     r_prev);
        else
#endif
            norms[ix] = phase_b_scalar(row, row + wy, n, aw, r, coef,
                                       has_prev, r_prev, 0.0);
    }
    (void)simd;
    return 0;
}
