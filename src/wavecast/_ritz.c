/* Eigenvalues and eigenvectors of a complex symmetric tridiagonal
   matrix H in O(n^2), and the impulse response of its modes.  The
   vectors are streamed: no n x n array is formed.

   ritz_values(nt, n, alpha, off, theta, work, busy): alpha (n >= 1) is
   the diagonal, off (n - 1) the off-diagonal, theta (n) receives the
   eigenvalues, and work (n values) and busy (n ints) are workspace.  H
   should have max |H| near 1 (the caller scales it by a power of two),
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

   The per-value stages run on nt OpenMP threads: the steps of one polish
   sweep (each from the values before the sweep) and the vectors of the
   inverse iteration (each value on its own, a cluster member after the
   one before it), each the same operations on the same operands on any
   thread, so bitwise the same for any nt.  Both run their dependent
   per-value recurrences (the Newton quotient; the LU and the solves) for
   LANES values in lockstep, which a core overlaps: each lane is the
   operations of its value alone.  The QL is one serial pass.  The
   memory beyond O(n) is ritz_vectors' block partials, 2 n values per
   BLOCK values. */

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
#define LANES 4
/* values per block of ritz_vectors' partial sums */
#define BLOCK 64

/* a loop over the lanes, unrolled */
#define EACH_LANE(l) \
    _Pragma("GCC unroll 4") for (int l = 0; l < LANES; l++)

typedef double complex cplx;

/* 1 / a by one real division */
static cplx inv(cplx a)
{
    return conj(a) / (creal(a) * creal(a) + cimag(a) * cimag(a));
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
   c_old e^2[i] instead.

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
                cplx old_c = c, old_gamma = gamma, ir = inv(r);
                cplx x = p * (d[i] - sigma) - bb * old_gamma;
                c = p * ir;
                s = bb * ir;
                gamma = x * ir;
                d[i + 1] = old_gamma + (d[i] - gamma);
                p = p != 0.0 ? gamma * (x * inv(p)) : old_c * bb;
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

/* Newton quotients det / det' of H - z_l I for LANES values z_l in
   lockstep, from the ratios r_k = (alpha_k - z) - off_{k-1}^2 / r_{k-1}
   = det_k / det_{k-1} and their derivatives q_k: det' / det = sum_k q_k
   / r_k.  Each lane runs its own operations, the same as alone. */
static void newton(int n, const cplx *alpha, const cplx *off, const cplx *z,
                   double tiny, cplx *quotient)
{
    cplx ir[LANES], q[LANES], log_deriv[LANES];
    EACH_LANE(l)
        ir[l] = q[l] = log_deriv[l] = 0.0;
    for (int k = 0; k < n; k++) {
        cplx o2 = k ? off[k - 1] * off[k - 1] : 0.0;
        EACH_LANE(l) {
            cplx r = alpha[k] - z[l] - mul(o2, ir[l]);
            q[l] = -1.0 + mul(mul(mul(o2, q[l]), ir[l]), ir[l]);
            ir[l] = inv(r == 0.0 ? tiny : r);
            log_deriv[l] += mul(q[l], ir[l]);
        }
    }
    EACH_LANE(l)
        quotient[l] = inv(log_deriv[l]);
}

/* Jacobi-style Ehrlich-Aberth sweeps on the eigenvalues z:
   z_i -= N_i / (1 - N_i sum_{j != i} 1 / (z_i - z_j)), N_i the Newton
   quotient, every step of a sweep from the values before it.  The
   first sweep moves every value, later ones those whose last step
   exceeded tol (listed in busy, n ints); a step that is not finite
   leaves its value alone.  The steps of a sweep go LANES at a time to
   nt threads.  Returns 0 once no step exceeds tol, 1 after MAX_SWEEPS
   sweeps. */
static int aberth(int nt, int n, const cplx *alpha, const cplx *off,
                  cplx *z, cplx *step, int *busy, double tol, double tiny)
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
            cplx zg[LANES], nq[LANES];
            EACH_LANE(l)  /* a short last group repeats its last value */
                zg[l] = z[busy[g + l < nb ? g + l : nb - 1]];
            newton(n, alpha, off, zg, tiny, nq);
            for (int l = 0; l < LANES && g + l < nb; l++) {
                int i = busy[g + l];
                cplx repel = 0.0;
                for (int j = 0; j < n; j++)
                    if (j != i)
                        repel += inv(z[i] - z[j]);
                step[i] = nq[l] / (1.0 - nq[l] * repel);
            }
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
    return aberth(nt, n, alpha, off, theta, work, busy, STEP_TOL * scale,
                  1e-300 + 0x1p-52 * scale);
}

/* Pivoted LU of the tridiagonals with diagonal alpha - sigma_l and
   off-diagonal off, LANES shifts in lockstep, each as LAPACK's xGTTRF:
   unit lower L with multipliers dl, upper U with diagonal d (stored
   inverted) and superdiagonals du and du2; piv = 1 where rows i and
   i + 1 were swapped.  Lane l's entry i of each array is at
   [LANES i + l].  Returns the mask of the lanes with an exactly zero
   pivot. */
static int gttrf(int n, const cplx *alpha, const cplx *off,
                 const cplx *sigma, cplx *dl, cplx *d, cplx *du, cplx *du2,
                 int *piv)
{
    for (int i = 0; i < n; i++)
        EACH_LANE(l)
            d[LANES * i + l] = alpha[i] - sigma[l];
    for (int i = 0; i + 1 < n; i++)
        EACH_LANE(l) {
            dl[LANES * i + l] = du[LANES * i + l] = off[i];
            du2[LANES * i + l] = 0.0;
        }
    for (int i = 0; i + 1 < n; i++) {
        EACH_LANE(l) {
            int k = LANES * i + l, k1 = k + LANES;
            piv[k] = cabs1(d[k]) < cabs1(dl[k]);
            if (!piv[k]) {
                if (d[k] != 0.0) {  /* else dl[k] is zero too */
                    dl[k] = mul(dl[k], inv(d[k]));
                    d[k1] -= mul(dl[k], du[k]);
                }
                continue;
            }
            cplx f = mul(d[k], inv(dl[k])), u = du[k];
            d[k] = dl[k];
            dl[k] = f;
            du[k] = d[k1];
            d[k1] = u - mul(f, d[k1]);
            if (i + 2 < n) {
                du2[k] = du[k1];
                du[k1] = mul(du[k1], -f);
            }
        }
    }
    int zero = 0;
    for (int i = 0; i < n; i++)
        EACH_LANE(l) {
            cplx *di = d + LANES * i + l;
            if (*di == 0.0)
                zero |= 1 << l;
            else
                *di = inv(*di);
        }
    return zero;
}

/* b <- (LU)^{-1} b in each lane, with the factors of gttrf */
static void gttrs(int n, const cplx *dl, const cplx *d, const cplx *du,
                  const cplx *du2, const int *piv, cplx *b)
{
    for (int i = 0; i + 1 < n; i++) {
        EACH_LANE(l) {
            int k = LANES * i + l, k1 = k + LANES;
            if (piv[k]) {
                cplx t = b[k];
                b[k] = b[k1];
                b[k1] = t - mul(dl[k], b[k]);
            } else {
                b[k1] -= mul(dl[k], b[k]);
            }
        }
    }
    int last = LANES * (n - 1);
    EACH_LANE(l)
        b[last + l] = mul(b[last + l], d[last + l]);
    if (n > 1)
        EACH_LANE(l) {
            int k = last - LANES + l;
            b[k] = mul(b[k] - mul(du[k], b[k + LANES]), d[k]);
        }
    for (int i = n - 3; i >= 0; i--)
        EACH_LANE(l) {
            int k = LANES * i + l;
            b[k] = mul(b[k] - mul(du[k], b[k + LANES])
                       - mul(du2[k], b[k + 2 * LANES]), d[k]);
        }
}

/* x <- x / ||x|| in each lane */
static void normalize(int n, cplx *x)
{
    double ss[LANES], r[LANES];
    EACH_LANE(l)
        ss[l] = 0.0;
    for (int k = 0; k < n; k++)
        EACH_LANE(l) {
            cplx xk = x[LANES * k + l];
            ss[l] += creal(xk) * creal(xk) + cimag(xk) * cimag(xk);
        }
    EACH_LANE(l)
        r[l] = 1.0 / sqrt(ss[l]);
    for (int k = 0; k < n; k++)
        EACH_LANE(l)
            x[LANES * k + l] *= r[l];
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

/* The arguments of ritz_vectors that every lane group reads */
struct invit {
    int n, steps, chain, np;
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
   last two added into the block partials hs, ss in lane order.  A lane
   that fails is recorded in *f and set idle.  work holds 5 LANES n
   values and piv LANES n. */
static void lane_group(const struct invit *a, int *v, const int *pos,
                       cplx **slots, cplx *hs, cplx *ss, cplx *work,
                       int *piv, struct failure *f)
{
    int n = a->n, lead = 0;
    cplx *dl = work, *d = work + LANES * n, *du = work + 2 * LANES * n,
         *du2 = work + 3 * LANES * n, *x = work + 4 * LANES * n;
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
        int zero = gttrf(n, a->alpha, a->off, sigma, dl, d, du, du2, piv);
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
            x[LANES * k + l] = start_component(v[l] < 0 ? v[lead] : v[l], k);
    for (int step = 0; step < a->steps; step++) {
        normalize(n, x);
        gttrs(n, dl, d, du, du2, piv, x);
        /* x -= sum_j (s_j^T x) s_j over the chain's earlier members,
           the latest first, all coefficients from the same x */
        for (int l = 0; l < LANES; l++) {
            if (v[l] < 0)
                continue;
            cplx coef[pos[l] + 1];
            for (int c = pos[l] - 1; c >= 0; c--) {
                coef[c] = 0.0;
                for (int k = 0; k < n; k++)
                    coef[c] += mul(slots[l][(size_t)c * n + k],
                                   x[LANES * k + l]);
            }
            for (int c = pos[l] - 1; c >= 0; c--)
                for (int k = 0; k < n; k++)
                    x[LANES * k + l] -= mul(coef[c],
                                            slots[l][(size_t)c * n + k]);
        }
    }
    normalize(n, x);
    cplx quasi[LANES], scale[LANES];
    EACH_LANE(l)
        quasi[l] = 0.0;
    for (int k = 0; k < n; k++)
        EACH_LANE(l)
            quasi[l] += mul(x[LANES * k + l], x[LANES * k + l]);
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
    for (int k = 0; k < n; k++)
        EACH_LANE(l)
            x[LANES * k + l] = mul(x[LANES * k + l], scale[l]);
    cplx tc[LANES], acc[LANES];
    int act[LANES], na = 0;
    for (int l = 0; l < LANES; l++) {
        if (v[l] < 0)
            continue;
        act[na++] = l;
        a->first[v[l]] = x[l];
        tc[l] = mul(a->theta[v[l]], x[l]);
        if (a->next[v[l]] >= 0) {  /* kept for the chain's next member */
            cplx *s = slots[l] + (size_t)pos[l] * n;
            for (int k = 0; k < n; k++)
                s[k] = x[LANES * k + l];
        }
    }
    for (int p = 0; p < a->np; p++) {
        const cplx *row = a->rows + (size_t)p * n;
        EACH_LANE(l)
            acc[l] = 0.0;
        for (int k = 0; k < n; k++)
            EACH_LANE(l)
                acc[l] += mul(row[k], x[LANES * k + l]);
        for (int j = 0; j < na; j++)
            a->probe[(size_t)p * n + v[act[j]]] = acc[act[j]];
    }
    for (int k = 0; k < n; k++)
        for (int j = 0; j < na; j++) {
            cplx xk = x[LANES * k + act[j]];
            hs[k] += mul(xk, tc[act[j]]);
            ss[k] += mul(xk, x[act[j]]);
        }
}

/* The vector loop of one block of ritz_vectors: the chains headed by
   values b BLOCK .. b BLOCK + BLOCK - 1, LANES at a time in lockstep, a
   lane taking the block's next head when its chain ends.  Their terms of
   the sums go to the block's partials (2 n at partial + 2 n b, zeroed
   here).  own holds LANES (5 + chain) n values, piv LANES n. */
static void run_block(const struct invit *a, int b, cplx *partial, cplx *own,
                      int *piv, struct failure *f)
{
    int n = a->n, head = b * BLOCK, end = head + BLOCK < n ? head + BLOCK : n;
    int v[LANES], pos[LANES];
    cplx *hs = partial + (size_t)b * 2 * n, *ss = hs + n, *slots[LANES];
    memset(hs, 0, 2 * n * sizeof(cplx));
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
        lane_group(a, v, pos, slots, hs, ss, own, piv, f);
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
int ritz_vectors(int nt, int n, const cplx *alpha, const cplx *off,
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
    struct invit a = {n, steps, chain, np, alpha, off, theta, rows, prev,
                      next, nudge, defect_tol, first, probe};
    struct failure f = {n, 0, 0.0};
    int blocks = (n + BLOCK - 1) / BLOCK, nomem = 0;
    cplx *partial = malloc((size_t)blocks * 2 * n * sizeof(cplx));
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
        sums[k] = 0.0;
        for (int b = 0; b < blocks; b++)
            sums[k] += partial[(size_t)b * 2 * n + k];
    }
    free(partial);
    if (nomem)
        return 3;
    *bad = f.bad;
    return f.code;
}

/* The impulse response u[p ns + j] = Re sum_i g[p nm + i] exp(-sq_i t_j)
   of nm modes at np probes and ns times t.  Each term is computed from
   t_j directly, and each sample sums its modes in order; the samples are
   split over nt threads, so u is the same on any thread count. */
void impulse(int nt, int nm, int np, const cplx *sq, const cplx *g, int ns,
             const double *t, double *u)
{
#pragma omp parallel for num_threads(nt) schedule(static)
    for (int j = 0; j < ns; j++) {
        double acc[np];
        for (int p = 0; p < np; p++)
            acc[p] = 0.0;
        for (int i = 0; i < nm; i++) {
            /* exp(-sq t) = e (cos(b t) - i sin(b t)), e = exp(-Re(sq) t) */
            double e = exp(-creal(sq[i]) * t[j]), sn, cs;
            sincos(cimag(sq[i]) * t[j], &sn, &cs);
            double re = e * cs, im = e * sn;
            for (int p = 0; p < np; p++) {
                cplx gi = g[(size_t)p * nm + i];
                acc[p] += creal(gi) * re + cimag(gi) * im;
            }
        }
        for (int p = 0; p < np; p++)
            u[(size_t)p * ns + j] = acc[p];
    }
}
