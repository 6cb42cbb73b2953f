/* Eigenvalues and eigenvectors of a complex symmetric tridiagonal
   matrix H in O(n^2), with no n x n array beyond the eigenvectors.

   ritz_values(nt, n, alpha, off, theta, work): alpha (n >= 1) is the
   diagonal, off (n - 1) the off-diagonal, theta (n) receives the
   eigenvalues and work (n) is workspace.  Returns 0, or 1 when the QL
   iteration exceeds MAX_ITER sweeps for one eigenvalue or leaves a value
   that is not finite, or the polish has not settled after MAX_SWEEPS.

   The values come from an implicit QL with Wilkinson shifts and
   complex-orthogonal rotations (c^2 + s^2 = 1, not unitary), the
   complex form of tqli (Cullum & Willoughby, SIAM J. Matrix Anal. Appl.
   17, 1996).  Such rotations are not backward stable, and the values
   are good to only 1e-11 to 1e-10 of max |H|, so Jacobi-style
   Ehrlich-Aberth sweeps (Bini, Gemignani & Tisseur, SIAM J. Matrix
   Anal. Appl. 27, 2005) polish them to rounding level: the first moves
   every value, later ones (typically one, on 10-30 % of the values)
   those whose last step exceeded STEP_TOL of max |H|.

   ritz_vectors(...) gives the eigenvectors by inverse iteration, O(n)
   per value; its comment states the arguments.

   The per-value stages run on nt OpenMP threads: the steps of one polish
   sweep (each from the values before the sweep) and the vectors of the
   inverse iteration (each value on its own, a cluster member after the
   one before it).  Every value and vector is the same operations on the
   same operands whichever thread computes it, so the results are bitwise
   the same for any nt.  The QL is one serial pass. */

#include <complex.h>
#include <math.h>
#include <omp.h>
#include <string.h>

#define MAX_ITER 30
#define MAX_SWEEPS 8
#define STEP_TOL 1e-12

typedef double complex cplx;

/* 1 / a by one real division */
static cplx inv(cplx a)
{
    return conj(a) / (creal(a) * creal(a) + cimag(a) * cimag(a));
}

/* |Re a| + |Im a|, LAPACK's CABS1 */
static double cabs1(cplx a)
{
    return fabs(creal(a)) + fabs(cimag(a));
}

/* d: diagonal in, eigenvalues out; e: n entries, the off-diagonal in
   e[0 .. n-2], destroyed.

   e[m] splits the matrix when |e[m]| + (|d[m]| + |d[m+1]|) rounds to
   |d[m]| + |d[m+1]|.  The scan first compares the cheap CABS1 values:
   since |z| <= cabs1(z) <= sqrt(2) |z|, cabs1(e) > 2^-40 (cabs1(d[m]) +
   cabs1(d[m+1])) puts |e| far above half an ulp of the sum, so the test
   fails and the three moduli need not be computed.  The split found is
   the same; a NaN or an infinite d falls through to the full test. */
static int ql(int n, cplx *d, cplx *e)
{
    e[n - 1] = 0.0;
    for (int l = 0; l < n; l++) {
        for (int iter = 0;; iter++) {
            int m, i;
            for (m = l; m < n - 1; m++) {
                if (cabs1(e[m]) > 0x1p-40 * (cabs1(d[m]) + cabs1(d[m + 1])))
                    continue;
                double dd = cabs(d[m]) + cabs(d[m + 1]);
                if (cabs(e[m]) + dd == dd)
                    break;
            }
            if (m == l)
                break;
            if (iter == MAX_ITER)
                return 1;
            cplx g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            cplx r = csqrt(g * g + 1.0);
            /* the root of the 2 x 2 block nearer d[l] */
            g = d[m] - d[l] + e[l] / (cabs(g + r) >= cabs(g - r) ? g + r : g - r);
            cplx s = 1.0, c = 1.0, p = 0.0;
            for (i = m - 1; i >= l; i--) {
                cplx f = s * e[i], b = c * e[i];
                e[i + 1] = r = csqrt(f * f + g * g);
                if (r == 0.0) { /* split (or an isotropic f, g): reshift */
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                cplx ir = inv(r);
                s = f * ir;
                c = g * ir;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
            }
            if (r == 0.0 && i >= l)
                continue;
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    for (int i = 0; i < n; i++)
        if (!isfinite(creal(d[i])) || !isfinite(cimag(d[i])))
            return 1;
    return 0;
}

/* Newton quotient det / det' of H - z I, from the ratios
   r_k = (alpha_k - z) - off_{k-1}^2 / r_{k-1} = det_k / det_{k-1} and
   their derivatives q_k: det' / det = sum_k q_k / r_k */
static cplx newton(int n, const cplx *alpha, const cplx *off, cplx z,
                   double tiny)
{
    cplx ir = 0.0, q = 0.0, log_deriv = 0.0;
    for (int k = 0; k < n; k++) {
        cplx o2 = k ? off[k - 1] * off[k - 1] : 0.0;
        cplx r = alpha[k] - z - o2 * ir;
        q = -1.0 + o2 * q * ir * ir;
        ir = inv(r == 0.0 ? tiny : r);
        log_deriv += q * ir;
    }
    return inv(log_deriv);
}

/* Jacobi-style Ehrlich-Aberth sweeps on the eigenvalues z:
   z_i -= N_i / (1 - N_i sum_{j != i} 1 / (z_i - z_j)), N_i the Newton
   quotient, every step of a sweep from the values before it.  The
   first sweep moves every value, later ones those whose last step
   exceeded tol; a step that is not finite leaves its value alone.  The
   steps of a sweep are split over nt threads.  Returns 0 once no step
   exceeds tol, 1 after MAX_SWEEPS sweeps. */
static int aberth(int nt, int n, const cplx *alpha, const cplx *off,
                  cplx *z, cplx *step, double tol, double tiny)
{
    for (int i = 0; i < n; i++)
        step[i] = INFINITY;
    for (int sweep = 0;; sweep++) {
        int busy = 0;
        for (int i = 0; i < n; i++)
            busy |= cabs(step[i]) > tol;
        if (!busy)
            return 0;
        if (sweep == MAX_SWEEPS)
            return 1;
#pragma omp parallel for num_threads(nt) schedule(dynamic, 16)
        for (int i = 0; i < n; i++) {
            if (!(cabs(step[i]) > tol)) {
                step[i] = 0.0;
                continue;
            }
            cplx nq = newton(n, alpha, off, z[i], tiny), repel = 0.0;
            for (int j = 0; j < n; j++)
                if (j != i)
                    repel += inv(z[i] - z[j]);
            step[i] = nq / (1.0 - nq * repel);
        }
        for (int i = 0; i < n; i++) {
            if (isfinite(creal(step[i])) && isfinite(cimag(step[i])))
                z[i] -= step[i];
            else
                step[i] = 0.0;
        }
    }
}

int ritz_values(int nt, int n, const cplx *alpha, const cplx *off,
                cplx *theta, cplx *work)
{
    double scale = 0.0;
    for (int k = 0; k < n; k++)
        scale = fmax(scale, cabs(alpha[k]));
    for (int k = 0; k + 1 < n; k++)
        scale = fmax(scale, cabs(off[k]));
    memcpy(theta, alpha, n * sizeof(cplx));
    if (n > 1)
        memcpy(work, off, (n - 1) * sizeof(cplx));
    if (ql(n, theta, work))
        return 1;
    return aberth(nt, n, alpha, off, theta, work, STEP_TOL * scale,
                  1e-300 + 0x1p-52 * scale);
}

/* Pivoted LU of the tridiagonal with diagonal alpha - sigma and
   off-diagonal off, as LAPACK's xGTTRF: unit lower L with multipliers
   dl, upper U with diagonal d (stored inverted) and superdiagonals du
   and du2; piv[i] = 1 where rows i and i + 1 were swapped.  Returns 1
   on an exactly zero pivot. */
static int gttrf(int n, const cplx *alpha, const cplx *off, cplx sigma,
                 cplx *dl, cplx *d, cplx *du, cplx *du2, int *piv)
{
    for (int i = 0; i < n; i++)
        d[i] = alpha[i] - sigma;
    for (int i = 0; i + 1 < n; i++) {
        dl[i] = du[i] = off[i];
        du2[i] = 0.0;
    }
    for (int i = 0; i + 1 < n; i++) {
        piv[i] = cabs1(d[i]) < cabs1(dl[i]);
        if (!piv[i]) {
            if (d[i] != 0.0) {  /* else dl[i] is zero too */
                dl[i] *= inv(d[i]);
                d[i + 1] -= dl[i] * du[i];
            }
            continue;
        }
        cplx f = d[i] * inv(dl[i]), u = du[i];
        d[i] = dl[i];
        dl[i] = f;
        du[i] = d[i + 1];
        d[i + 1] = u - f * d[i + 1];
        if (i + 2 < n) {
            du2[i] = du[i + 1];
            du[i + 1] *= -f;
        }
    }
    for (int i = 0; i < n; i++) {
        if (d[i] == 0.0)
            return 1;
        d[i] = inv(d[i]);
    }
    return 0;
}

/* b <- (LU)^{-1} b with the factors of gttrf */
static void gttrs(int n, const cplx *dl, const cplx *d, const cplx *du,
                  const cplx *du2, const int *piv, cplx *b)
{
    for (int i = 0; i + 1 < n; i++) {
        if (piv[i]) {
            cplx t = b[i];
            b[i] = b[i + 1];
            b[i + 1] = t - dl[i] * b[i];
        } else {
            b[i + 1] -= dl[i] * b[i];
        }
    }
    b[n - 1] *= d[n - 1];
    if (n > 1)
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) * d[n - 2];
    for (int i = n - 3; i >= 0; i--)
        b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) * d[i];
}

/* x <- x / ||x|| */
static void normalize(int n, cplx *x)
{
    double ss = 0.0;
    for (int k = 0; k < n; k++)
        ss += creal(x[k]) * creal(x[k]) + cimag(x[k]) * cimag(x[k]);
    double r = 1.0 / sqrt(ss);
    for (int k = 0; k < n; k++)
        x[k] *= r;
}

/* Column i of the eigenvectors s (see ritz_vectors) from the start
   vector x0 (real, n), with work (6 n) and piv (n).  Returns 0, or
   ritz_vectors' failure code with *bad set. */
static int one_vector(int n, const cplx *alpha, const cplx *off,
                      const cplx *theta, const int *prev, int i,
                      const double *x0, double nudge, int steps,
                      double defect_tol, cplx *s, cplx *work, int *piv,
                      cplx *bad)
{
    cplx *dl = work, *d = work + n, *du = work + 2 * n, *du2 = work + 3 * n,
         *x = work + 4 * n, *coef = work + 5 * n;
    int members = 0;
    for (int j = prev[i]; j >= 0; j = prev[j])
        members++;
    cplx sigma = theta[i] + members * nudge;
    for (int tries = 0; gttrf(n, alpha, off, sigma, dl, d, du, du2, piv);) {
        sigma += nudge;
        if (++tries == 3) {
            *bad = sigma;
            return 1;
        }
    }
    for (int k = 0; k < n; k++)
        x[k] = x0[k];
    for (int step = 0; step < steps; step++) {
        normalize(n, x);
        gttrs(n, dl, d, du, du2, piv, x);
        int c = 0;
        for (int j = prev[i]; j >= 0; j = prev[j], c++) {
            const cplx *sj = s + (size_t)j * n;
            coef[c] = 0.0;
            for (int k = 0; k < n; k++)
                coef[c] += sj[k] * x[k];
        }
        c = 0;
        for (int j = prev[i]; j >= 0; j = prev[j], c++) {
            const cplx *sj = s + (size_t)j * n;
            for (int k = 0; k < n; k++)
                x[k] -= coef[c] * sj[k];
        }
    }
    normalize(n, x);
    cplx quasi = 0.0;
    for (int k = 0; k < n; k++)
        quasi += x[k] * x[k];
    if (cabs(quasi) < defect_tol) {
        *bad = quasi;
        return 2;
    }
    cplx f = inv(csqrt(quasi));
    cplx *si = s + (size_t)i * n;
    for (int k = 0; k < n; k++)
        si[k] = x[k] * f;
    return 0;
}

/* Columns i0 .. i0 + count - 1 of the eigenvectors s (n x n, column
   major, scaled to s^T s = 1) of the tridiagonal (alpha, off) for the
   eigenvalues theta, by inverse iteration: for each value, one pivoted
   LU of H - sigma I, then steps solves x <- (H - sigma I)^{-1} x / ||x||
   from the start vector start[(i - i0) * n ...] (real).

   prev[i] is the member of value i's cluster computed just before it,
   or -1, and next[i] the one just after it, or -1 (prev[i] < i <
   next[i]): the solves are orthogonalized in the bilinear form (x -=
   sum_j (s_j^T x) s_j, all coefficients from the same x) against the
   earlier members, and sigma sits members * nudge from theta[i].  An
   exactly zero pivot moves sigma by nudge and factors again, at most
   three times.

   The values are split over nt threads: a value whose cluster
   predecessor lies before i0 (or that has none) starts a chain, which
   one thread runs down through next within the columns.  work holds
   6 n values and piv n per thread.  Returns 0; else the code of the
   lowest failing column: 1 when H - sigma I stays singular (*bad = the
   last sigma), 2 when |s^T s| of a unit-norm vector is below
   defect_tol (*bad = s^T s). */
int ritz_vectors(int nt, int n, const cplx *alpha, const cplx *off,
                 const cplx *theta, const int *prev, const int *next, int i0,
                 int count, const double *start, double nudge, int steps,
                 double defect_tol, cplx *s, cplx *work, int *piv, cplx *bad)
{
    int end = i0 + count, failed = end, code = 0;
#pragma omp parallel for num_threads(nt) schedule(dynamic, 1)
    for (int head = i0; head < end; head++) {
        if (prev[head] >= i0)
            continue;
        int t = omp_get_thread_num();
        for (int i = head; i >= 0 && i < end; i = next[i]) {
            cplx why;
            int c = one_vector(n, alpha, off, theta, prev, i,
                               start + (size_t)(i - i0) * n, nudge, steps,
                               defect_tol, s, work + (size_t)t * 6 * n,
                               piv + (size_t)t * n, &why);
            if (c) {
#pragma omp critical
                if (i < failed) {
                    failed = i;
                    code = c;
                    *bad = why;
                }
                break;
            }
        }
    }
    return code;
}
