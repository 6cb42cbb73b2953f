/* The renormalized two-sided Lanczos recursion of krylov.py: each step
   is two passes over the unknowns, each with its reductions, and
   lanczos_run runs a chunk of steps in one call.

   Vectors are planar: n real parts, then n imaginary parts (unknown
   ix * wy + iy of a wx x wy grid, n = wx wy), and so are the stencil
   factors.  The recursion keeps r_i = zeta_i w_i; each pass forms
   w_i = r_i s_i (s_i = 1 / zeta_i, one real product per component)
   where it reads it, so w is never stored.

   lanczos_run(nt, last, simd, wx, wy, r0, r1, cxm, cxp, cym, cyp, inv_c,
               m_diag, real, aw, dots, norms, state, np, probes, alpha,
               zeta, delta, probe_rows):
       the steps after state's count up to step last, each phase A, the
       sums of the dots, alpha_i and c, phase B and the sum of the norms,
       in one OpenMP region whose barriers part them.  Step i reads r_i
       from r0 when i is odd, r1 when even, and writes r_{i+1} over
       r_{i-1} in the other; it stores alpha_i, zeta_i, delta_i (alpha,
       delta complex, interleaved) and the planar w_i at the np probes
       (probe_rows[i - 1] = (re, im) rows) at index i - 1.  state (the
       enum below) carries the scales, zeta_i, delta_{i-1} and the count
       from call to call, so chunks resume exactly.  Returns RUN_DONE,
       or ends early: RUN_BREAKDOWN when |delta_i| < state[BREAKDOWN]
       (delta_i left in state, the count set to i, nothing of step i
       stored), RUN_INVARIANT when step i closes an invariant subspace,
       krylov.py's happy test, with state[HAPPY] its tolerance (step i
       stored, the scales and zeta left as they were).
       Phase A sets aw = A w with w = r_i s_i, and for each grid row ix
       the partial sums dots[ix] of w_j (m_j w_j) and dots[wx + ix] of
       w_j (m_j aw_j) (m = M's diagonal; dots is complex, interleaved),
       whose totals are delta_i = w^T M w and w^T M A w.  A is the
       five-point operator of operator.py: row (ix, iy) couples (ix -+ 1,
       iy) by cxm[ix], cxp[ix] and (ix, iy -+ 1) by cym[iy], cyp[iy], each
       times inv_c[ix * wy + iy], with centre (-(cxm + cxp)[ix] - (cym +
       cyp)[iy]) * inv_c; neighbours past the grid's edge drop out.
       real = (ix0, ix1, iy0, iy1) bounds the rows [ix0, ix1) and
       columns [iy0, iy1) on which cxm, cxp, cym, cyp and m_diag all
       have a zero imaginary part (krylov._real_rectangle): there the
       SIMD path takes its real form (below).
       Phase B writes r_{i+1} = aw - alpha_i w_i - c w_{i-1}, c =
       (delta_i / delta_{i-1}) zeta_i, over r_{i-1} (w_{i-1} = r_{i-1}
       s_{i-1}, the last term only when i > 1), and for each grid row ix
       the partial sum norms[ix] of its |.|^2.
   lanczos_sum(n, complex, a, out), lanczos_div(n, a, b, q): the loop's
       sum of n doubles or complex values, and its quotients q_k = a_k /
       b_k of complex values, exposed for the tests.
   kernel_simd(): 1 when this CPU runs the AVX2/FMA path.

   Both passes split the grid rows into nt contiguous blocks (a static
   schedule), one OpenMP thread each.  Neither w, M w nor M A w is
   stored: a step moves 120 bytes per unknown (27.5 MB at n = 229 441),
   and 112 in the real form, which never loads M's imaginary row; no
   reduction depends on the BLAS.

   The real form.  Two imaginary steps of the stretched grid make a
   real stencil factor, so the factors are real but on the two lines
   where the absorbing layer meets the interior, and M is real on the
   interior.  In their rectangle each coefficient is the one real product
   f_re inv_c, and each stencil term and each product with M two real
   products; the dot terms keep the fused form.  With f_im = +-0 the
   complex form's fma(cr, br, -(+-0 bi)) and fma(cr, bi, +-0 br) are cr br
   and cr bi rounded once, as in the real form, but for the sign of an
   exact zero, and so are M's products.  For a finite w such a zero only
   makes exact zeros of the products and sums it enters, up to a sum
   that starts at +0.0 (an element of A w, a row partial), where its
   sign is lost: aw, the row partials and the run are bitwise the
   complex form's.  The SIMD path takes the real form on the runs of
   four wholly inside the rectangle, the complex form elsewhere; the
   scalar path takes the complex form throughout.

   Every element, and every row partial, is computed by one fixed rule,
   so the results are bitwise the same for any nt and on either path:
   - A stencil coefficient, factor f times inv_c, is the two real
     products (f_re inv_c, f_im inv_c), the first alone in the real
     form, which drops every product with a +-0 imaginary part (above).
   - Every other complex product takes the fused form fma(ar, br,
     -(ai bi)) + i fma(ar, bi, ai br), a the first operand: the
     coefficients' products with w, M w, M aw, the dot terms
     w_j (M w)_j and w_j (M aw)_j, alpha w and c w_prev.
   - A w sums its terms from +0.0 in column order (west, south, centre,
     north, east), as a CSR product of the assembled matrix would.
   - A row partial starts at +0.0 and adds its terms in element order;
     |r_j|^2 is rr rr + ri ri.
   - Built with -ffp-contract=off, so FMA comes only from fma() and the
     intrinsics.
   lanczos_run computes each number the loop of numpy calls it replaced
   did, by numpy's rules, so its bits are theirs:
   - the row partials are added as np.sum adds them: +0.0 plus numpy
     2.x's pairwise sum (pairwise, cpairwise);
   - alpha_i = (w^T M aw) / delta_i and delta_i / delta_{i-1} are
     numpy's complex128 quotients (Smith's algorithm, cdiv), and c is
     that quotient times (zeta_i + 0i) as numpy multiplies complex
     values;
   - zeta_{i+1} is sqrt of its sum, |.| of a complex value is hypot,
     and max |aw| propagates a NaN as np.max does. */

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
    /* the real form's rectangle: rows real[0] to real[1] - 1, columns
       real[2] to real[3] - 1 */
    const int *real;
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
   term when has_prev, with coef = (alpha_re, alpha_im, c_re, c_im, s,
   s_prev), written over r_prev; returns acc, the row's partial of
   ||out||^2 so far, with their terms added */
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

/* s += (f * ic) * (x * scale) for a real f: the real coefficient f ic
   times w's real and imaginary parts, vterm()'s bits when f's imaginary
   part is +-0 (see the header) */
AVX2 static inline void vterm_real(__m256d f, __m256d ic, const double *x,
                                   long n, __m256d scale, __m256d *sr,
                                   __m256d *si)
{
    __m256d c = _mm256_mul_pd(f, ic);
    *sr = _mm256_add_pd(*sr, _mm256_mul_pd(c, _mm256_mul_pd(LOAD(x), scale)));
    *si = _mm256_add_pd(*si,
                        _mm256_mul_pd(c, _mm256_mul_pd(LOAD(x + n), scale)));
}

/* grid row ix's factors, broadcast: cxm (f), cxp (g) and the centre's
   row part s = -(cxm + cxp), each re and im */
struct row_factors {
    __m256d fr, fi, gr, gi, sr, si;
};

/* unknowns k to k + 3 of grid row ix, from column iy, each with all four
   neighbours: stores their aw and returns sum (the row's partials, as
   phase_a_scalar's acc) plus their dot terms.  real: the real form, for
   factors and an M whose imaginary parts are +-0, which never loads
   them.  Inlined, so that each caller's form is compiled on its own. */
AVX2 static inline __attribute__((always_inline)) __m256d
run4(const struct step *g, const struct row_factors *f, long k, long iy,
     const double *r, __m256d vs, int real, double *aw, __m256d sum)
{
    long n = g->n, wy = g->wy;
    const double *x = r + k;
    __m256d fyr = LOAD(g->cym + iy), gyr = LOAD(g->cyp + iy);
    __m256d ic = LOAD(g->inv_c + k), mr = LOAD(g->m_diag + k);
    __m256d cr = _mm256_sub_pd(f->sr, _mm256_add_pd(fyr, gyr));
    __m256d wr = _mm256_mul_pd(LOAD(x), vs);
    __m256d wi = _mm256_mul_pd(LOAD(x + n), vs);
    __m256d sr = _mm256_setzero_pd(), si = _mm256_setzero_pd();
    __m256d pr, pi, dr, di, er, ei;
    if (real) {
        vterm_real(f->fr, ic, x - wy, n, vs, &sr, &si);
        vterm_real(fyr, ic, x - 1, n, vs, &sr, &si);
        vterm_real(cr, ic, x, n, vs, &sr, &si);
        vterm_real(gyr, ic, x + 1, n, vs, &sr, &si);
        vterm_real(f->gr, ic, x + wy, n, vs, &sr, &si);
        vmul(wr, wi, _mm256_mul_pd(mr, wr), _mm256_mul_pd(mr, wi), &dr, &di);
        vmul(wr, wi, _mm256_mul_pd(mr, sr), _mm256_mul_pd(mr, si), &er, &ei);
    } else {
        __m256d fyi = LOAD(g->cym + wy + iy), gyi = LOAD(g->cyp + wy + iy);
        __m256d mi = LOAD(g->m_diag + n + k);
        vterm(f->fr, f->fi, ic, x - wy, n, vs, &sr, &si);
        vterm(fyr, fyi, ic, x - 1, n, vs, &sr, &si);
        vterm(cr, _mm256_sub_pd(f->si, _mm256_add_pd(fyi, gyi)), ic, x, n,
              vs, &sr, &si);
        vterm(gyr, gyi, ic, x + 1, n, vs, &sr, &si);
        vterm(f->gr, f->gi, ic, x + wy, n, vs, &sr, &si);
        vmul(mr, mi, wr, wi, &pr, &pi);
        vmul(wr, wi, pr, pi, &dr, &di);
        vmul(mr, mi, sr, si, &pr, &pi);
        vmul(wr, wi, pr, pi, &er, &ei);
    }
    _mm256_storeu_pd(aw + k, sr);
    _mm256_storeu_pd(aw + n + k, si);
    /* transpose (dr, di, er, ei) to one vector per unknown */
    __m256d t0 = _mm256_unpacklo_pd(dr, di);
    __m256d t1 = _mm256_unpackhi_pd(dr, di);
    __m256d t2 = _mm256_unpacklo_pd(er, ei);
    __m256d t3 = _mm256_unpackhi_pd(er, ei);
    sum = _mm256_add_pd(sum, _mm256_permute2f128_pd(t0, t2, 0x20));
    sum = _mm256_add_pd(sum, _mm256_permute2f128_pd(t1, t3, 0x20));
    sum = _mm256_add_pd(sum, _mm256_permute2f128_pd(t0, t2, 0x31));
    return _mm256_add_pd(sum, _mm256_permute2f128_pd(t1, t3, 0x31));
}

/* grid row ix: runs of four unknowns with all four neighbours, the rest
   as scalars; the runs wholly inside the real form's rectangle take that
   form; acc as phase_a_scalar's */
AVX2 static void phase_a_simd(const struct step *g, int ix, const double *r,
                              double scale, double *aw, double *acc)
{
    int wx = g->wx, wy = g->wy;
    long row = (long)ix * wy, a = row, b = row;  /* runs [a, b) */
    if (ix > 0 && ix < wx - 1 && wy > 2) {
        a = row + 1;
        b = a + (wy - 2) / 4 * 4;
    }
    long p = a, q = a;  /* the real runs [p, q); lo, hi from column 1 */
    if (ix >= g->real[0] && ix < g->real[1]) {
        long lo = g->real[2] - 1, hi = g->real[3] - 1;
        p = lo > 0 ? a + (lo + 3) / 4 * 4 : a;
        q = hi > 0 ? a + hi / 4 * 4 : a;
        p = p < b ? p : b;
        q = q < b ? q : b;
        q = q > p ? q : p;
    }
    phase_a_scalar(g, row, a, ix, r, scale, aw, acc);
    const double *fx = g->cxm + ix, *gx = g->cxp + ix;
    struct row_factors f = {
        _mm256_set1_pd(fx[0]), _mm256_set1_pd(fx[wx]),
        _mm256_set1_pd(gx[0]), _mm256_set1_pd(gx[wx]),
        _mm256_set1_pd(-(fx[0] + gx[0])), _mm256_set1_pd(-(fx[wx] + gx[wx]))};
    __m256d vs = _mm256_set1_pd(scale);
    /* (w^T M w re, im, w^T M aw re, im), one unknown's terms at a time */
    __m256d sum = _mm256_loadu_pd(acc);
    long k = a;
    for (; k < p; k += 4)
        sum = run4(g, &f, k, k - row, r, vs, 0, aw, sum);
    for (; k < q; k += 4)
        sum = run4(g, &f, k, k - row, r, vs, 1, aw, sum);
    for (; k < b; k += 4)
        sum = run4(g, &f, k, k - row, r, vs, 0, aw, sum);
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

int kernel_simd(void)
{
#ifdef HAVE_AVX2
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return 0;
#endif
}

/* lanczos_run's state, carried from call to call: the scales s_i and
   s_{i-1}, zeta_i, delta_{i-1} (re, im), the steps done, and the two
   limits, max |M| _BREAKDOWN_TOL and _HAPPY_TOL */
enum { SCALE, SCALE_PREV, ZETA, DELTA_RE, DELTA_IM, STEPS, BREAKDOWN, HAPPY };
/* how a lanczos_run call ends */
enum { RUN_DONE, RUN_BREAKDOWN, RUN_INVARIANT };

/* phase A of grid row ix on w = r s: aw, and the row's partials of
   w^T M w at dots[ix] and of w^T M aw at dots[wx + ix] (complex,
   interleaved) */
static void row_a(const struct step *g, int simd, int ix, const double *r,
                  double s, double *aw, double *dots)
{
    long row = (long)ix * g->wy;
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
#ifdef HAVE_AVX2
    if (simd)
        phase_a_simd(g, ix, r, s, aw, acc);
    else
#endif
        phase_a_scalar(g, row, row + g->wy, ix, r, s, aw, acc);
    dots[2 * ix] = acc[0];
    dots[2 * ix + 1] = acc[1];
    dots[2 * (g->wx + ix)] = acc[2];
    dots[2 * (g->wx + ix) + 1] = acc[3];
    (void)simd;
}

/* phase B of grid row ix; returns the row's partial of ||out||^2 */
static double row_b(int simd, int ix, int wy, long n, const double *aw,
                    const double *r, const double *coef, int has_prev,
                    double *r_prev)
{
    long row = (long)ix * wy;
#ifdef HAVE_AVX2
    if (simd)
        return phase_b_simd(ix, wy, n, aw, r, coef, has_prev, r_prev);
#endif
    (void)simd;
    return phase_b_scalar(row, row + wy, n, aw, r, coef, has_prev, r_prev,
                          0.0);
}

/* numpy 2.x's pairwise sum of n doubles (its DOUBLE_pairwise_sum): below
   8 terms added in order from -0.0; up to 128, eight running sums over
   blocks of eight, combined as ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)),
   then the rest in order; above, the halves split at n / 2 rounded down
   to a multiple of 8, each summed so */
static double pairwise(const double *a, long n)
{
    if (n < 8) {
        double s = -0.0;
        for (long i = 0; i < n; i++)
            s += a[i];
        return s;
    }
    if (n <= 128) {
        double p[8];
        long i;
        for (int k = 0; k < 8; k++)
            p[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                p[k] += a[i + k];
        double s = ((p[0] + p[1]) + (p[2] + p[3]))
                   + ((p[4] + p[5]) + (p[6] + p[7]));
        for (; i < n; i++)
            s += a[i];
        return s;
    }
    long half = n / 2;
    half -= half % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/* numpy 2.x's pairwise sum of complex a (n doubles, interleaved; its
   CDOUBLE_pairwise_sum): the same rule on the doubles, a block of eight
   being four values, whose four running sums combine as (0 + 1) + (2 +
   3) */
static void cpairwise(const double *a, long n, double *re, double *im)
{
    if (n < 8) {
        *re = *im = -0.0;
        for (long i = 0; i < n; i += 2) {
            *re += a[i];
            *im += a[i + 1];
        }
        return;
    }
    if (n <= 128) {
        double p[8];
        long i;
        for (int k = 0; k < 8; k++)
            p[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                p[k] += a[i + k];
        *re = (p[0] + p[2]) + (p[4] + p[6]);
        *im = (p[1] + p[3]) + (p[5] + p[7]);
        for (; i < n; i += 2) {
            *re += a[i];
            *im += a[i + 1];
        }
        return;
    }
    double r1, i1, r2, i2;
    long half = n / 2;
    half -= half % 8;
    cpairwise(a, half, &r1, &i1);
    cpairwise(a + half, n - half, &r2, &i2);
    *re = r1 + r2;
    *im = i1 + i2;
}

/* q = a / b by numpy's complex128 rule (Smith's algorithm) */
static void cdiv(double ar, double ai, double br, double bi, double *qr,
                 double *qi)
{
    double abr = fabs(br), abi = fabs(bi);
    if (abr >= abi) {
        if (abr == 0.0 && abi == 0.0) {
            *qr = ar / abr;
            *qi = ai / abr;
            return;
        }
        double rat = bi / br, scl = 1.0 / (br + bi * rat);
        *qr = (ar + ai * rat) * scl;
        *qi = (ai - ar * rat) * scl;
    } else {
        double rat = br / bi, scl = 1.0 / (bi + br * rat);
        *qr = (ar * rat + ai) * scl;
        *qi = (ai * rat - ar) * scl;
    }
}

void lanczos_sum(long n, int complex_, const double *a, double *out)
{
    if (complex_) {
        cpairwise(a, 2 * n, out, out + 1);
        out[0] = 0.0 + out[0];
        out[1] = 0.0 + out[1];
    } else {
        out[0] = 0.0 + pairwise(a, n);
    }
}

void lanczos_div(long n, const double *a, const double *b, double *q)
{
    for (long k = 0; k < n; k++)
        cdiv(a[2 * k], a[2 * k + 1], b[2 * k], b[2 * k + 1], q + 2 * k,
             q + 2 * k + 1);
}

int lanczos_run(int nt, int last, int simd, int wx, int wy, double *r0,
                double *r1, const double *cxm, const double *cxp,
                const double *cym, const double *cyp, const double *inv_c,
                const double *m_diag, const int *real, double *aw,
                double *dots, double *norms, double *st, int np,
                const long *probes, double *alpha, double *zeta,
                double *delta, double *probe_rows)
{
    const struct step g = {wx, wy, (long)wx * wy, cxm, cxp, cym, cyp,
                           inv_c, m_diag, real};
    long n = g.n;
    int i = (int)st[STEPS], status = RUN_DONE;
    double coef[6], d[2];
#pragma omp parallel num_threads(nt)
    while (status == RUN_DONE && i < last) {
        /* step k reads r_k from buffer (k - 1) % 2 and writes r_{k+1}
           over r_{k-1} in the other */
        int k = i + 1;
        double *r = k % 2 ? r0 : r1, *r_prev = k % 2 ? r1 : r0;
#pragma omp for schedule(static)
        for (int ix = 0; ix < wx; ix++)
            row_a(&g, simd, ix, r, st[SCALE], aw, dots);
#pragma omp single
        {
            cpairwise(dots, 2 * wx, d, d + 1);
            d[0] = 0.0 + d[0];
            d[1] = 0.0 + d[1];
            if (hypot(d[0], d[1]) < st[BREAKDOWN]) {
                st[DELTA_RE] = d[0];
                st[DELTA_IM] = d[1];
                st[STEPS] = k;
                status = RUN_BREAKDOWN;
            } else {
                double ar, ai;
                cpairwise(dots + 2 * wx, 2 * wx, &ar, &ai);
                cdiv(0.0 + ar, 0.0 + ai, d[0], d[1], coef, coef + 1);
                coef[2] = coef[3] = 0.0;
                if (k > 1) {
                    /* (d_k / delta_{k-1}) zeta_k, the product as numpy's
                       complex times (zeta_k + 0i) */
                    double qr, qi, z = st[ZETA];
                    cdiv(d[0], d[1], st[DELTA_RE], st[DELTA_IM], &qr, &qi);
                    coef[2] = qr * z - qi * 0.0;
                    coef[3] = qr * 0.0 + qi * z;
                }
                coef[4] = st[SCALE];
                coef[5] = st[SCALE_PREV];
            }
        }
        if (status != RUN_DONE)
            break;
#pragma omp for schedule(static)
        for (int ix = 0; ix < wx; ix++)
            norms[ix] = row_b(simd, ix, wy, n, aw, r, coef, k > 1, r_prev);
#pragma omp single
        {
            double z = sqrt(0.0 + pairwise(norms, wx));
            double *rows = probe_rows + 2L * np * (k - 1);
            alpha[2 * (k - 1)] = coef[0];
            alpha[2 * (k - 1) + 1] = coef[1];
            zeta[k - 1] = st[ZETA];
            delta[2 * (k - 1)] = d[0];
            delta[2 * (k - 1) + 1] = d[1];
            for (int p = 0; p < np; p++) {
                rows[p] = r[probes[p]] * st[SCALE];
                rows[np + p] = r[n + probes[p]] * st[SCALE];
            }
            st[DELTA_RE] = d[0];
            st[DELTA_IM] = d[1];
            st[STEPS] = i = k;
            /* happy when z < tol (max |aw| + |alpha|); the max pass runs
               only when z is below tol of its bound z + |alpha| + |c| */
            double abs_a = hypot(coef[0], coef[1]);
            double tol = st[HAPPY];
            if (z < tol * (z + abs_a + hypot(coef[2], coef[3]))) {
                double big = hypot(aw[0], aw[n]);
                for (long j = 1; j < n; j++) {
                    double h = hypot(aw[j], aw[n + j]);
                    big = big >= h || isnan(big) ? big : h;  /* np.max */
                }
                if (z < tol * (big + abs_a))
                    status = RUN_INVARIANT;
            }
            if (status == RUN_DONE) {
                st[SCALE_PREV] = st[SCALE];
                st[SCALE] = 1.0 / z;
                st[ZETA] = z;
            }
        }
    }
    return status;
}
