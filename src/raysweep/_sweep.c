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
