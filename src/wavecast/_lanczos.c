/* One step of the renormalized two-sided Lanczos recursion of krylov.py,
   as two passes over the unknowns.  The dots and the norm between them
   stay in numpy.

   lanczos_phase_a(nt, simd, wx, wy, r, scale, cxm, cxp, cym, cyp, inv_c,
                   m_diag, w, aw, mw, maw):
       w = r * scale, aw = A w, mw = M w, maw = M aw.  A is the
       five-point operator of operator.py on a wx x wy grid (unknown
       ix * wy + iy): row (ix, iy) couples (ix -+ 1, iy) by cxm[ix],
       cxp[ix] and (ix, iy -+ 1) by cym[iy], cyp[iy], each times
       inv_c[ix * wy + iy], with centre (-(cxm + cxp)[ix] - (cym +
       cyp)[iy]) * inv_c; neighbours past the grid's edge drop out.  The
       scaled w of each neighbour is computed where it is used, so r is
       only read.
   lanczos_phase_b(nt, simd, n, aw, w, coef, w_prev, has_prev, r):
       r = aw - alpha w, then r - c w_prev when has_prev, with coef the
       pairs (alpha, c); r may be w_prev.
   lanczos_simd(): 1 when this CPU runs the AVX2/FMA path.

   Complex vectors, and the stencil factors, are interleaved doubles
   (re, im).  Both passes split the unknowns into nt contiguous row
   blocks, one OpenMP thread each.

   Every element is computed by one fixed rule, so the recursion is
   bitwise the same for any nt and on either path:
   - The products of whole-vector numpy passes (the coefficients, M w,
     M aw, alpha w, c w_prev) take the fused form fma(ar, br, -(ai bi))
     + i fma(ar, bi, ai br), a the first operand.  That is numpy's own
     product where its SIMD loops run on FMA hardware, so there the
     recursion is bitwise that of numpy passes.
   - A w is scipy's csr_matvec on the assembled matrix: the sum starts at
     +0.0 and adds the products in column order (west, south, centre,
     north, east), each coefficient times w in the plain form (ar br -
     ai bi) + i (ar bi + ai br); each coefficient is the fused product
     of the factor by inv_c + 0i.
   - Built with -ffp-contract=off -fno-tree-slp-vectorize, so FMA comes
     only from fma() and the intrinsics: GCC's SLP vectorizer otherwise
     turns the plain product into vfmaddsub. */

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

/* s += (f * ic) * (x * scale): one stencil term, f a stencil factor,
   the second product in the plain form */
static inline void term(const double *f, double ic, const double *x,
                        double scale, double *sr, double *si)
{
    double kr, ki, xr = x[0] * scale, xi = x[1] * scale;
    cmul(f[0], f[1], ic, 0.0, &kr, &ki);
    *sr += kr * xr - ki * xi;
    *si += kr * xi + ki * xr;
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

FMA_CLONES
static void phase_a_scalar(long lo, long hi, int wx, int wy, const double *r,
                           double scale, const double *cxm, const double *cxp,
                           const double *cym, const double *cyp,
                           const double *inv_c, const double *m_diag,
                           double *w, double *aw, double *mw, double *maw)
{
    long j = lo;
    while (j < hi) {
        int ix = (int)(j / wy);
        long row = (long)ix * wy, end = row + wy < hi ? row + wy : hi;
        const double *fx = cxm + 2 * ix, *gx = cxp + 2 * ix;
        double sx[2] = {-(fx[0] + gx[0]), -(fx[1] + gx[1])};
        for (; j < end; j++) {
            int iy = (int)(j - row);
            const double *x = r + 2 * j, *fy = cym + 2 * iy;
            const double *gy = cyp + 2 * iy;
            double ic = inv_c[j], sr = 0.0, si = 0.0;
            double cen[2] = {sx[0] - (fy[0] + gy[0]),
                             sx[1] - (fy[1] + gy[1])};
            if (ix > 0)
                term(fx, ic, x - 2 * wy, scale, &sr, &si);
            if (iy > 0)
                term(fy, ic, x - 2, scale, &sr, &si);
            term(cen, ic, x, scale, &sr, &si);
            if (iy < wy - 1)
                term(gy, ic, x + 2, scale, &sr, &si);
            if (ix < wx - 1)
                term(gx, ic, x + 2 * wy, scale, &sr, &si);
            double wr = x[0] * scale, wi = x[1] * scale;
            const double *m = m_diag + 2 * j;
            w[2 * j] = wr;
            w[2 * j + 1] = wi;
            aw[2 * j] = sr;
            aw[2 * j + 1] = si;
            cmul(m[0], m[1], wr, wi, mw + 2 * j, mw + 2 * j + 1);
            cmul(m[0], m[1], sr, si, maw + 2 * j, maw + 2 * j + 1);
        }
    }
}

FMA_CLONES
static void phase_b_scalar(long lo, long hi, const double *aw,
                           const double *w, const double *alpha,
                           const double *w_prev, const double *c,
                           int has_prev, double *r)
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
    }
}

#ifdef HAVE_AVX2
/* two complex values per vector, (re0, im0, re1, im1) */
#define AVX2 __attribute__((target("avx2,fma")))

/* a * b in the fused form, and in the plain form */
AVX2 static inline __m256d vmul(__m256d a, __m256d b)
{
    __m256d t = _mm256_mul_pd(_mm256_permute_pd(a, 0xF),
                              _mm256_permute_pd(b, 0x5));
    return _mm256_fmaddsub_pd(_mm256_movedup_pd(a), b, t);
}

AVX2 static inline __m256d vmul_plain(__m256d a, __m256d b)
{
    __m256d t = _mm256_mul_pd(_mm256_permute_pd(a, 0xF),
                              _mm256_permute_pd(b, 0x5));
    return _mm256_addsub_pd(_mm256_mul_pd(_mm256_movedup_pd(a), b), t);
}

/* s + (f * ic) * (x * scale), as term() */
AVX2 static inline __m256d vterm(__m256d s, __m256d f, __m256d ic,
                                 const double *x, __m256d scale)
{
    __m256d xs = _mm256_mul_pd(_mm256_loadu_pd(x), scale);
    return _mm256_add_pd(s, vmul_plain(vmul(f, ic), xs));
}

/* pairs of unknowns with all four neighbours; the rest as scalars */
AVX2 static void phase_a_simd(long lo, long hi, int wx, int wy,
                              const double *r, double scale,
                              const double *cxm, const double *cxp,
                              const double *cym, const double *cyp,
                              const double *inv_c, const double *m_diag,
                              double *w, double *aw, double *mw, double *maw)
{
    const __m256d sign = _mm256_set1_pd(-0.0), vs = _mm256_set1_pd(scale);
    long j = lo;
    while (j < hi) {
        int ix = (int)(j / wy);
        long row = (long)ix * wy, end = row + wy < hi ? row + wy : hi;
        long a = j, b = j;  /* [a, b): the vector part of this row */
        if (ix > 0 && ix < wx - 1) {
            a = j > row ? j : row + 1;
            b = end < row + wy - 1 ? end : row + wy - 1;
            b = b > a ? a + (b - a) / 2 * 2 : a;
        }
        phase_a_scalar(j, a, wx, wy, r, scale, cxm, cxp, cym, cyp, inv_c,
                       m_diag, w, aw, mw, maw);
        __m256d fx = _mm256_broadcast_pd((const __m128d *)(cxm + 2 * ix));
        __m256d gx = _mm256_broadcast_pd((const __m128d *)(cxp + 2 * ix));
        __m256d nsx = _mm256_xor_pd(_mm256_add_pd(fx, gx), sign);
        for (long k = a; k < b; k += 2) {
            const double *x = r + 2 * k;
            long iy = k - row;
            __m256d fy = _mm256_loadu_pd(cym + 2 * iy);
            __m256d gy = _mm256_loadu_pd(cyp + 2 * iy);
            __m256d cen = _mm256_sub_pd(nsx, _mm256_add_pd(fy, gy));
            __m256d ic = _mm256_set_pd(0.0, inv_c[k + 1], 0.0, inv_c[k]);
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
            _mm256_storeu_pd(mw + 2 * k, vmul(m, wv));
            _mm256_storeu_pd(maw + 2 * k, vmul(m, s));
        }
        phase_a_scalar(b, end, wx, wy, r, scale, cxm, cxp, cym, cyp, inv_c,
                       m_diag, w, aw, mw, maw);
        j = end;
    }
}

AVX2 static void phase_b_simd(long lo, long hi, const double *aw,
                              const double *w, const double *alpha,
                              const double *w_prev, const double *c,
                              int has_prev, double *r)
{
    __m256d va = _mm256_broadcast_pd((const __m128d *)alpha);
    __m256d vc = _mm256_broadcast_pd((const __m128d *)c);
    long j = lo;
    for (; j + 2 <= hi; j += 2) {
        __m256d v = _mm256_sub_pd(_mm256_loadu_pd(aw + 2 * j),
                                  vmul(va, _mm256_loadu_pd(w + 2 * j)));
        if (has_prev)
            v = _mm256_sub_pd(v, vmul(vc, _mm256_loadu_pd(w_prev + 2 * j)));
        _mm256_storeu_pd(r + 2 * j, v);
    }
    phase_b_scalar(j, hi, aw, w, alpha, w_prev, c, has_prev, r);
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
                    double *aw, double *mw, double *maw)
{
    long n = (long)wx * wy;
#pragma omp parallel for num_threads(nt) schedule(static, 1)
    for (int k = 0; k < nt; k++) {
        long lo = n * k / nt, hi = n * (k + 1) / nt;
#ifdef HAVE_AVX2
        if (simd) {
            phase_a_simd(lo, hi, wx, wy, r, scale, cxm, cxp, cym, cyp,
                         inv_c, m_diag, w, aw, mw, maw);
            continue;
        }
#endif
        phase_a_scalar(lo, hi, wx, wy, r, scale, cxm, cxp, cym, cyp,
                       inv_c, m_diag, w, aw, mw, maw);
    }
    (void)simd;
    return 0;
}

int lanczos_phase_b(int nt, int simd, long n, const double *aw,
                    const double *w, const double *coef,
                    const double *w_prev, int has_prev, double *r)
{
    const double *alpha = coef, *c = coef + 2;
#pragma omp parallel for num_threads(nt) schedule(static, 1)
    for (int k = 0; k < nt; k++) {
        long lo = n * k / nt, hi = n * (k + 1) / nt;
#ifdef HAVE_AVX2
        if (simd) {
            phase_b_simd(lo, hi, aw, w, alpha, w_prev, c, has_prev, r);
            continue;
        }
#endif
        phase_b_scalar(lo, hi, aw, w, alpha, w_prev, c, has_prev, r);
    }
    (void)simd;
    return 0;
}
