/* Plane-major voting sweep: the compiled form of _sweep_planes.
 *
 * For each plane i in [p0, p1), every event k with lo[k] <= i < hi[k]
 * projects to u = a_u + b_u * inv_zs[i], v = a_v + b_v * inv_zs[i] and,
 * if (u, v) lies in [0, width) x [0, height), votes into that plane of
 * votes[planes][height][width], whose first plane is plane `offset` of
 * the volume: one unit at the nearest voxel, which must exist, or four
 * bilinear weights. hit[k] is set to 1 for every
 * event that voted. Each plane receives its events in ascending order, so
 * its votes do not depend on which other planes the call sweeps.
 *
 * Build with -ffp-contract=off: a fused multiply-add would round
 * a_u + b_u * inv_z differently from numpy's separate multiply and add.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

void sweep(const double *a_u, const double *a_v, const double *b_u,
           const double *b_v, const int64_t *lo, const int64_t *hi,
           int64_t n, const double *inv_zs, int64_t p0, int64_t p1,
           double *votes, int64_t offset, int64_t width, int64_t height,
           int bilinear, uint8_t *hit)
{
    const double w = (double)width, h = (double)height;
    for (int64_t i = p0; i < p1; i++) {
        const double inv_z = inv_zs[i];
        double *plane = votes + (i - offset) * width * height;
        for (int64_t k = 0; k < n; k++) {
            if (i < lo[k] || i >= hi[k])
                continue;
            const double u = a_u[k] + b_u[k] * inv_z;
            const double v = a_v[k] + b_v[k] * inv_z;
            if (!(u >= 0.0 && u < w && v >= 0.0 && v < h))
                continue; /* also drops NaN */
            if (!bilinear) {
                /* u + 0.5 >= 0, so the cast truncates to floor(u + 0.5) */
                const double un = u + 0.5, vn = v + 0.5;
                if (!(un < w && vn < h))
                    continue;
                plane[(int64_t)vn * width + (int64_t)un] += 1.0;
            } else {
                const int64_t x0 = (int64_t)u, y0 = (int64_t)v;
                const double wx = u - (double)x0, wy = v - (double)y0;
                const double rx = 1.0 - wx, ry = 1.0 - wy;
                double *p = plane + y0 * width + x0;
                const int right = x0 + 1 < width;
                p[0] += rx * ry;
                if (right)
                    p[1] += wx * ry;
                if (y0 + 1 < height) {
                    p[width] += rx * wy;
                    if (right)
                        p[width + 1] += wx * wy;
                }
            }
            hit[k] = 1;
        }
    }
}

/* numpy's float ordering for searchsorted: NaN sorts after every number. */
static int less(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* Number of depths[0:nz] (ascending) that sort before z: searchsorted's
 * side="left" when right is 0, side="right" (also counting equals) when 1. */
static int64_t search(const double *depths, int64_t nz, double z, int right)
{
    int64_t first = 0, last = nz;
    while (first < last) {
        const int64_t mid = first + (last - first) / 2;
        if (right ? !less(z, depths[mid]) : less(depths[mid], z))
            first = mid + 1;
        else
            last = mid;
    }
    return first;
}

/* Ray preparation: the compiled form of dsi._prepare_rays, one event at a
 * time with numpy's operation order, so every output is bit-identical.
 *
 * Event k's camera sits at (q_wc[k], t_wc[k]) in the world and sees along
 * the undistorted bearing (bearings[index[k]], 1). In the reference view,
 * whose inverse rotation is q_ref_inv and position t_ref, its ray starts at
 * origins[k] and runs along dirs[k]. Plane z then meets it at pixel
 * (a_u + b_u / z, a_v + b_v / z) of the pinhole intr = (fx, fy, cx, cy);
 * the planes in front of the origin are depths[lo[k]:hi[k]]; affine_ok[k]
 * is 1 where no coefficient reaches bound (inverse depths up to inv_max).
 */
void prepare(const double *q_wc, const double *t_wc, const double *bearings,
             const int64_t *index, int64_t n, const double *q_ref_inv,
             const double *t_ref, const double *intr, const double *depths,
             int64_t nz, double inv_max, double bound, double *a_u,
             double *a_v, double *b_u, double *b_v, int64_t *lo, int64_t *hi,
             double *origins, double *dirs, uint8_t *affine_ok)
{
    const double ax = q_ref_inv[0], ay = q_ref_inv[1], az = q_ref_inv[2],
                 aw = q_ref_inv[3];
    const double fx = intr[0], fy = intr[1], cx = intr[2], cy = intr[3];
    for (int64_t k = 0; k < n; k++) {
        const double *b = q_wc + 4 * k;
        const double bx = b[0], by = b[1], bz = b[2], bw = b[3];
        /* q = q_ref_inv * q_wc, as quat_mul */
        const double x = aw * bx + ax * bw + ay * bz - az * by;
        const double y = aw * by - ax * bz + ay * bw + az * bx;
        const double z = aw * bz + ax * by - ay * bx + az * bw;
        const double w = aw * bw - ax * bx - ay * by - az * bz;

        /* origin = q_ref_inv rotating t_wc - t_ref, as quat_rotate */
        const double vx = t_wc[3 * k] - t_ref[0];
        const double vy = t_wc[3 * k + 1] - t_ref[1];
        const double vz = t_wc[3 * k + 2] - t_ref[2];
        double tx = 2.0 * (ay * vz - az * vy);
        double ty = 2.0 * (az * vx - ax * vz);
        double tz = 2.0 * (ax * vy - ay * vx);
        const double ox = vx + aw * tx + (ay * tz - az * ty);
        const double oy = vy + aw * ty + (az * tx - ax * tz);
        const double oz = vz + aw * tz + (ax * ty - ay * tx);
        double *o = origins + 3 * k;
        o[0] = ox;
        o[1] = oy;
        o[2] = oz;

        /* dir = q rotating the bearing (ux, uy, 1) */
        const double ux = bearings[2 * index[k]];
        const double uy = bearings[2 * index[k] + 1];
        tx = 2.0 * (y - z * uy);
        ty = 2.0 * (z * ux - x);
        tz = 2.0 * (x * uy - y * ux);
        const double dx = ux + w * tx + (y * tz - z * ty);
        const double dy = uy + w * ty + (z * tx - x * tz);
        const double dz = 1.0 + w * tz + (x * ty - y * tx);
        double *d = dirs + 3 * k;
        d[0] = dx;
        d[1] = dy;
        d[2] = dz;

        const double dxz = dx / dz, dyz = dy / dz;
        const double au = fx * dxz + cx, av = fy * dyz + cy;
        const double bu = fx * (ox - oz * dxz), bv = fy * (oy - oz * dyz);
        a_u[k] = au;
        a_v[k] = av;
        b_u[k] = bu;
        b_v[k] = bv;

        /* planes with (z_i - o_z) / d_z > 0 */
        lo[k] = dz > 0.0 ? search(depths, nz, oz, 1) : 0;
        hi[k] = dz > 0.0 ? nz : dz < 0.0 ? search(depths, nz, oz, 0) : 0;

        /* max(|a_u|, |a_v|, max(|b_u|, |b_v|) * inv_max) < bound, false for
         * NaN; a product with inv_max > 0 keeps the order of the two |b|. */
        affine_ok[k] = fabs(au) < bound && fabs(av) < bound
                       && fabs(bu) * inv_max < bound && fabs(bv) * inv_max < bound;
    }
}

/* Fusion kinds of fuse_band, numbered as _sweep.FUSE_KINDS lists them. */
enum { FUSE_MIN, FUSE_MAX, FUSE_ARITHMETIC, FUSE_RMS, FUSE_HARMONIC };

/* numpy's pairwise_sum blocks: leaves of at most PW_BLOCK elements. */
#define PW_BLOCK 128

struct band {
    double *stack;      /* camera c's votes start at stack + c * stride */
    int64_t n, stride;
    int kind;
    double *out;        /* the fused band */
    int64_t plane;      /* voxels per plane */
    int64_t p0;         /* volume index of the band's first plane */
    double *confidence; /* running maximum per pixel ... */
    int64_t *best;      /* ... and its plane */
};

/* One leaf of numpy's pairwise_sum over a[0:m], m <= PW_BLOCK, bit for bit. */
static double leaf_sum(const double *a, int64_t m)
{
    if (m < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < m; i++)
            res += a[i];
        return res;
    }
    double r[8];
    for (int j = 0; j < 8; j++)
        r[j] = a[j];
    int64_t i;
    for (i = 8; i < m - m % 8; i += 8)
        for (int j = 0; j < 8; j++)
            r[j] += a[i + j];
    double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < m; i++)
        res += a[i];
    return res;
}

/* Where v[j] > conf[j], strictly: conf[j] = v[j] and best[j] = plane. */
static void fold_peak(const double *v, double *conf, int64_t *best, int64_t len,
                      int64_t plane)
{
    int64_t j = 0;
#ifdef __SSE2__
    /* two voxels at a time: gcc does not vectorize the blend of best */
    const __m128i p = _mm_set1_epi64x(plane);
    for (; j + 2 <= len; j += 2) {
        const __m128d x = _mm_loadu_pd(v + j), c = _mm_loadu_pd(conf + j);
        const __m128i g = _mm_castpd_si128(_mm_cmpgt_pd(x, c));
        const __m128i b = _mm_loadu_si128((const __m128i *)(best + j));
        _mm_storeu_pd(conf + j, _mm_max_pd(x, c)); /* x > c ? x : c */
        _mm_storeu_si128((__m128i *)(best + j),
                         _mm_or_si128(_mm_and_si128(g, p), _mm_andnot_si128(g, b)));
    }
#endif
    for (; j < len; j++)
        if (v[j] > conf[j]) {
            conf[j] = v[j];
            best[j] = plane;
        }
}

/* Voxels [s, s + m) of the band: total each camera's votes into res[0:n],
 * fuse them into out, total those into res[n], fold them into the running
 * maximum and zero the cameras' votes. */
static void fuse_leaf(const struct band *b, int64_t s, int64_t m, double *res)
{
    const int64_t n = b->n;
    const double dn = (double)n;
    double *o = b->out + s;
    for (int64_t c = 0; c < n; c++)
        res[c] = leaf_sum(b->stack + c * b->stride + s, m);

    /* numpy's axis-0 reduction: camera 0, then each later camera in turn */
    const double *x = b->stack + s;
    switch (b->kind) {
    case FUSE_MIN:
    case FUSE_MAX:
    case FUSE_HARMONIC:
        for (int64_t i = 0; i < m; i++)
            o[i] = x[i];
        for (int64_t c = 1; c < n; c++) {
            x = b->stack + c * b->stride + s;
            if (b->kind == FUSE_MAX)
                for (int64_t i = 0; i < m; i++)
                    o[i] = x[i] > o[i] ? x[i] : o[i];
            else
                for (int64_t i = 0; i < m; i++)
                    o[i] = x[i] < o[i] ? x[i] : o[i];
        }
        if (b->kind != FUSE_HARMONIC)
            break;
        /* Harmonic: n / (1/x_0 + ... + 1/x_{n-1}). A zero input makes the
         * sum +inf and the result +0.0, the least input, so the divisions
         * run only where that is positive (votes are never -0.0). */
        for (int64_t i = 0; i < m; i++) {
            if (o[i] == 0.0)
                continue;
            x = b->stack + s + i;
            double sum = 1.0 / x[0];
            for (int64_t c = 1; c < n; c++)
                sum += 1.0 / x[c * b->stride];
            o[i] = dn / sum;
        }
        break;
    case FUSE_ARITHMETIC:
    case FUSE_RMS: {
        const int sq = b->kind == FUSE_RMS;
        for (int64_t i = 0; i < m; i++)
            o[i] = sq ? x[i] * x[i] : x[i];
        for (int64_t c = 1; c < n; c++) {
            x = b->stack + c * b->stride + s;
            for (int64_t i = 0; i < m; i++)
                o[i] += sq ? x[i] * x[i] : x[i];
        }
        for (int64_t i = 0; i < m; i++)
            o[i] = sq ? sqrt(o[i] / dn) : o[i] / dn;
        break;
    }
    }
    res[n] = leaf_sum(o, m);

    /* strictly greater: the first maximum, as np.argmax */
    int64_t pl = s / b->plane, px = s % b->plane;
    for (int64_t i = 0; i < m; pl++, px = 0) {
        int64_t run = b->plane - px;
        if (run > m - i)
            run = m - i;
        fold_peak(o + i, b->confidence + px, b->best + px, run, b->p0 + pl);
        i += run;
    }

    for (int64_t c = 0; c < n; c++)
        memset(b->stack + c * b->stride + s, 0, (size_t)m * sizeof(double));
}

/* numpy's pairwise_sum recursion over voxels [s, s + m), fusing at the
 * leaves; res[0:n+1] receives the totals, and res[n+1:] is workspace for
 * the right halves, one n + 1 row per level. */
static void fuse_pairwise(const struct band *b, int64_t s, int64_t m, double *res)
{
    if (m <= PW_BLOCK) {
        fuse_leaf(b, s, m, res);
        return;
    }
    int64_t m2 = m / 2;
    m2 -= m2 % 8;
    double *right = res + b->n + 1;
    fuse_pairwise(b, s, m2, res);
    fuse_pairwise(b, s + m2, m - m2, right);
    for (int64_t c = 0; c <= b->n; c++)
        res[c] += right[c];
}

/* Fuse one band of n cameras' votes, voxel by voxel, with numpy's IEEE
 * operations in numpy's order: planes [p0, p0 + planes) of the volume,
 * each of `plane` voxels; camera c's band starts at stack + c * stride and
 * the fused band is out. In the same pass, totals[c] becomes camera c's
 * vote total and totals[n] the fused band's, each numpy's pairwise sum of
 * its band bit for bit; every fused plane is folded into the running
 * (confidence, best) with a strict >; and the cameras' votes are zeroed.
 * Returns 0, or -1 if the workspace could not be allocated. */
int fuse_band(double *stack, int64_t n, int64_t stride, int64_t planes,
              int64_t plane, int kind, double *out, int64_t p0,
              double *confidence, int64_t *best, double *totals)
{
    const int64_t len = planes * plane;
    int64_t levels = 1;
    for (int64_t m = len; m > PW_BLOCK; m -= m / 2 - m / 2 % 8)
        levels++; /* the right halves are the larger ones */
    double *work = malloc((size_t)(levels * (n + 1)) * sizeof(double));
    if (work == NULL)
        return -1;
    const struct band b = {stack, n, stride, kind, out, plane, p0,
                           confidence, best};
    fuse_pairwise(&b, 0, len, work);
    for (int64_t c = 0; c <= n; c++)
        totals[c] = 0.0 + work[c]; /* numpy's sum starts at its identity */
    free(work);
    return 0;
}
