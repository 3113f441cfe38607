/* Plane-major voting sweep: the compiled form of _sweep_planes.
 *
 * For each plane i in [p0, p1), every event k with lo[k] <= i < hi[k]
 * projects to u = a_u + b_u * inv_zs[i], v = a_v + b_v * inv_zs[i] and,
 * if (u, v) lies in [0, width) x [0, height), votes into that plane of
 * votes[num_planes][height][width]: one unit at the nearest voxel, which
 * must exist, or four bilinear weights. hit[k] is set to 1 for every
 * event that voted. Each plane receives its events in ascending order, so
 * its votes do not depend on which other planes the call sweeps.
 *
 * Build with -ffp-contract=off: a fused multiply-add would round
 * a_u + b_u * inv_z differently from numpy's separate multiply and add.
 */
#include <stdint.h>

void sweep(const double *a_u, const double *a_v, const double *b_u,
           const double *b_v, const int64_t *lo, const int64_t *hi,
           int64_t n, const double *inv_zs, int64_t p0, int64_t p1,
           double *votes, int64_t width, int64_t height, int bilinear,
           uint8_t *hit)
{
    const double w = (double)width, h = (double)height;
    for (int64_t i = p0; i < p1; i++) {
        const double inv_z = inv_zs[i];
        double *plane = votes + i * width * height;
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
