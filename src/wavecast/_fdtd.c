/* The FDTD reference march of fdtd.py: split-field TMz Yee leapfrog on
   an nn x nn node lattice (row-major, node (i, j) at i * nn + j).

   fdtd_march(nn, steps, delta, ca, cb, da, db, inv_eps, ezx, ezy, hx,
              hy, src, kick, n_probes, probes, traces, stride, work):
       runs `steps` steps on the fields ezx, ezy (nn x nn), hx
       (nn x nn - 1) and hy (nn - 1 x nn), in place, with the loss
       coefficients ca, cb at the nodes and da, db at the midpoints
       along either axis.  A step is

         hx[i, j] = da[j] hx[i, j] - db[j] ((ez[i, j+1] - ez[i, j]) / delta)
         hy[i, j] = da[i] hy[i, j] + db[i] ((ez[i+1, j] - ez[i, j]) / delta)
         ezx[i, j] = ca[i] ezx[i, j]
                     + (cb[i] inv_eps[i, j]) ((hy[i, j] - hy[i-1, j]) / delta)
         ezy[i, j] = ca[j] ezy[i, j]
                     - (cb[j] inv_eps[i, j]) ((hx[i, j] - hx[i, j-1]) / delta)

       with ez = ezx + ezy before the step, the E updates on the nodes
       off the outer edge only (which stays zero), then
       ezy[src] -= kick[s] on step s when src >= 0, then the probe
       samples traces[p * stride + s] = ezx + ezy at node probes[p].

   Every value is the same operations on the same operands, in the same
   order, as the whole-array numpy march (the tests' oracle): the
   differences are divided by delta, never pre-scaled, and the build
   takes -ffp-contract=off, so no product and sum fuse into an FMA.
   One sweep over the rows does both updates: row i's E update needs
   H rows i - 1 and i, and H row i needs E rows i and i + 1 before the
   step, so updating E row i right after H row i reads every old value
   it should.  Sums ez of rows i and i + 1 are kept in two row buffers
   (ez_lo, ez_hi) of nn values each, in work (2 nn). */

static void row_sum(int nn, const double *restrict a, const double *restrict b,
                    double *restrict out)
{
    for (int j = 0; j < nn; j++)
        out[j] = a[j] + b[j];
}

static void step(int nn, double delta, const double *restrict ca,
                 const double *restrict cb, const double *restrict da,
                 const double *restrict db, const double *restrict inv_eps,
                 double *restrict ezx, double *restrict ezy,
                 double *restrict hx, double *restrict hy, double *work)
{
    double *ez_lo = work, *ez_hi = work + nn;
    row_sum(nn, ezx, ezy, ez_lo);
    for (int i = 0; i < nn; i++) {
        long row = (long)i * nn;
        double *hx_i = hx + (long)i * (nn - 1), *hy_i = hy + row;
        for (int j = 0; j + 1 < nn; j++)
            hx_i[j] = da[j] * hx_i[j]
                      - db[j] * ((ez_lo[j + 1] - ez_lo[j]) / delta);
        if (i + 1 < nn) {
            row_sum(nn, ezx + row + nn, ezy + row + nn, ez_hi);
            for (int j = 0; j < nn; j++)
                hy_i[j] = da[i] * hy_i[j]
                          + db[i] * ((ez_hi[j] - ez_lo[j]) / delta);
        }
        if (i > 0 && i + 1 < nn) {
            const double *hy_up = hy_i - nn, *ie = inv_eps + row;
            double *ex = ezx + row, *ey = ezy + row;
            for (int j = 1; j + 1 < nn; j++) {
                ex[j] = ca[i] * ex[j]
                        + cb[i] * ie[j] * ((hy_i[j] - hy_up[j]) / delta);
                ey[j] = ca[j] * ey[j]
                        - cb[j] * ie[j] * ((hx_i[j] - hx_i[j - 1]) / delta);
            }
        }
        double *t = ez_lo;
        ez_lo = ez_hi;
        ez_hi = t;
    }
}

int fdtd_march(int nn, int steps, double delta, const double *ca,
               const double *cb, const double *da, const double *db,
               const double *inv_eps, double *ezx, double *ezy, double *hx,
               double *hy, long src,
               const double *kick, int n_probes, const long *probes,
               double *traces, long stride, double *work)
{
    for (int s = 0; s < steps; s++) {
        step(nn, delta, ca, cb, da, db, inv_eps, ezx, ezy, hx, hy, work);
        if (src >= 0)
            ezy[src] -= kick[s];
        for (int p = 0; p < n_probes; p++)
            traces[p * stride + s] = ezx[probes[p]] + ezy[probes[p]];
    }
    return 0;
}
