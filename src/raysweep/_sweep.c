/* Plane-major voting sweep: the compiled form of _sweep_planes.
 *
 * votes[planes][height][width] holds the planes [offset, offset + planes)
 * of the volume. For each of them, plane i, every event k with
 * lo[k] <= i < hi[k] projects to u = a_u + b_u * inv_zs[i],
 * v = a_v + b_v * inv_zs[i] and, if (u, v) lies in [0, width) x
 * [0, height), votes into that plane: one unit at the nearest voxel, which
 * must exist, or four bilinear weights. hit[k] is set to 1 for every event
 * that voted, and the call returns the number of (event, plane) votes it
 * cast. lo and hi are only compared, never used as indices, so the caller
 * bounds every access through votes and inv_zs. Each plane receives its
 * events in ascending order, so its votes do not depend on which other
 * planes the call sweeps. Given marks (one byte per SEGMENT voxels of each
 * row of each plane), the call also sets the segment of every voxel that it
 * writes: the nearest voxel's, or rows y0 and y0 + 1 of the segments of x0
 * and x0 + 1 for the four bilinear weights.
 *
 * Build with -ffp-contract=off: a fused multiply-add would round
 * a_u + b_u * inv_z differently from numpy's separate multiply and add.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

/* Voxels per mark: a band's marks hold one byte per SEGMENT voxels of each
 * row of each plane, segs = ceil(width / SEGMENT) per row; a set byte says
 * that the segment may hold a vote. */
#define SEGMENT 16

/* The sweep's body, compiled twice: with mark a constant 0 it is the
 * unmarked sweep, and a dense band pays nothing for the marks. */
static inline __attribute__((always_inline)) int64_t
sweep_body(const double *a_u, const double *a_v, const double *b_u,
           const double *b_v, const int64_t *lo, const int64_t *hi, int64_t n,
           const double *inv_zs, double *votes, int64_t planes, int64_t offset,
           int64_t width, int64_t height, int bilinear, uint8_t *hit,
           uint8_t *marks, const int mark)
{
    const double w = (double)width, h = (double)height;
    const int64_t segs = (width + SEGMENT - 1) / SEGMENT;
    int64_t cast = 0;
    for (int64_t i = offset; i < offset + planes; i++) {
        const double inv_z = inv_zs[i];
        double *plane = votes + (i - offset) * width * height;
        uint8_t *rows = mark ? marks + (i - offset) * height * segs : NULL;
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
                const int64_t x = (int64_t)un, y = (int64_t)vn;
                plane[y * width + x] += 1.0;
                if (mark)
                    rows[y * segs + x / SEGMENT] = 1;
            } else {
                const int64_t x0 = (int64_t)u, y0 = (int64_t)v;
                const double wx = u - (double)x0, wy = v - (double)y0;
                const double rx = 1.0 - wx, ry = 1.0 - wy;
                double *p = plane + y0 * width + x0;
                const int right = x0 + 1 < width, down = y0 + 1 < height;
                p[0] += rx * ry;
                if (right)
                    p[1] += wx * ry;
                if (down) {
                    p[width] += rx * wy;
                    if (right)
                        p[width + 1] += wx * wy;
                }
                if (mark) {
                    uint8_t *m = rows + y0 * segs;
                    const int64_t s0 = x0 / SEGMENT, s1 = (x0 + right) / SEGMENT;
                    m[s0] = m[s1] = 1;
                    if (down)
                        m[segs + s0] = m[segs + s1] = 1;
                }
            }
            hit[k] = 1;
            cast++;
        }
    }
    return cast;
}

int64_t sweep(const double *a_u, const double *a_v, const double *b_u,
              const double *b_v, const int64_t *lo, const int64_t *hi,
              int64_t n, const double *inv_zs, double *votes, int64_t planes,
              int64_t offset, int64_t width, int64_t height, int bilinear,
              uint8_t *hit, uint8_t *marks)
{
    if (marks)
        return sweep_body(a_u, a_v, b_u, b_v, lo, hi, n, inv_zs, votes, planes,
                          offset, width, height, bilinear, hit, marks, 1);
    return sweep_body(a_u, a_v, b_u, b_v, lo, hi, n, inv_zs, votes, planes,
                      offset, width, height, bilinear, hit, NULL, 0);
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

/* quat_mul(a, b) into q, in numpy's operation order. */
static inline void quat_mul(const double *a, const double *b, double *q)
{
    const double ax = a[0], ay = a[1], az = a[2], aw = a[3];
    const double bx = b[0], by = b[1], bz = b[2], bw = b[3];
    q[0] = aw * bx + ax * bw + ay * bz - az * by;
    q[1] = aw * by - ax * bz + ay * bw + az * bx;
    q[2] = aw * bz + ax * by - ay * bx + az * bw;
    q[3] = aw * bw - ax * bx - ay * by - az * bz;
}

/* quat_rotate(q, v) into r, in numpy's operation order. */
static inline void quat_rotate(const double *q, const double *v, double *r)
{
    const double x = q[0], y = q[1], z = q[2], w = q[3];
    const double vx = v[0], vy = v[1], vz = v[2];
    const double tx = 2.0 * (y * vz - z * vy);
    const double ty = 2.0 * (z * vx - x * vz);
    const double tz = 2.0 * (x * vy - y * vx);
    r[0] = vx + w * tx + (y * tz - z * ty);
    r[1] = vy + w * ty + (z * tx - x * tz);
    r[2] = vz + w * tz + (x * ty - y * tx);
}

/* Ray preparation: the compiled form of PoseTrajectory.camera_poses and
 * dsi._prepare_rays, one event at a time with numpy's operations in numpy's
 * order, so every output is bit-identical.
 *
 * Event k's body pose is that of the trajectory of m samples (times,
 * quats, trans) at ts[k], as interpolate_batch gives it: the segment [i0,
 * i1 = i0 + 1] with i1 = searchsorted(times, ts[k], side="right") clipped
 * to [1, m - 1], the translation (p1 - p0) * alpha + p0 with alpha = (t -
 * t0) / (t1 - t0), the rotation quats[i0], or q_body[k] (slerped) where
 * q_body is not NULL, and a time equal to t0 and then to t1 takes that
 * sample's pose as it is. With m = 1 every event takes the one sample, and
 * ts and q_body are not read. The camera is mounted on the body at mount
 * (qx, qy, qz, qw, tx, ty, tz): q_wc = q_wb * q_mount and t_wc = t_wb +
 * q_wb rotating t_mount, as camera_poses; with mount NULL the body pose is
 * the camera's.
 *
 * The camera sees along the undistorted bearing (bearings[index[k]], 1).
 * In the reference view, whose inverse rotation is q_ref_inv and position
 * t_ref, the ray starts at origin and runs along dir. Plane z then meets it
 * at pixel (a_u + b_u / z, a_v + b_v / z) of the pinhole intr = (fx, fy,
 * cx, cy); the planes in front of the origin are depths[lo[k]:hi[k]];
 * affine_ok[k] is 1 where no coefficient reaches bound (inverse depths up
 * to inv_max). The origins and dirs (3 each) of the rays with affine_ok 0
 * go to the front of origins and dirs, in event order, and the call
 * returns their number.
 */
int64_t prepare(const double *times, const double *quats, const double *trans,
                int64_t m, const double *ts, const double *q_body,
                const double *mount, const double *bearings,
                const int64_t *index, int64_t n, const double *q_ref_inv,
                const double *t_ref, const double *intr, const double *depths,
                int64_t nz, double inv_max, double bound, double *a_u,
                double *a_v, double *b_u, double *b_v, int64_t *lo,
                int64_t *hi, double *origins, double *dirs,
                uint8_t *affine_ok)
{
    const double fx = intr[0], fy = intr[1], cx = intr[2], cy = intr[3];
    int64_t grazing = 0, s = 0; /* s: the previous event's searchsorted */
    for (int64_t k = 0; k < n; k++) {
        double q_wb[4], t_wb[3];
        if (m == 1) {
            memcpy(q_wb, quats, sizeof q_wb);
            memcpy(t_wb, trans, sizeof t_wb);
        } else {
            const double t = ts[k];
            /* events come in time order: s is usually this one's too */
            if (!((s == 0 || !less(t, times[s - 1])) && (s == m || less(t, times[s]))))
                s = search(times, m, t, 1);
            const int64_t i1 = s < 1 ? 1 : s > m - 1 ? m - 1 : s, i0 = i1 - 1;
            const double t0 = times[i0], t1 = times[i1];
            const double alpha = (t - t0) / (t1 - t0);
            const double *p0 = trans + 3 * i0, *p1 = trans + 3 * i1;
            memcpy(q_wb, q_body ? q_body + 4 * k : quats + 4 * i0, sizeof q_wb);
            for (int j = 0; j < 3; j++)
                t_wb[j] = (p1[j] - p0[j]) * alpha + p0[j];
            if (t == t0) {
                memcpy(q_wb, quats + 4 * i0, sizeof q_wb);
                memcpy(t_wb, p0, sizeof t_wb);
            }
            if (t == t1) {
                memcpy(q_wb, quats + 4 * i1, sizeof q_wb);
                memcpy(t_wb, p1, sizeof t_wb);
            }
        }
        double q_wc[4], t_wc[3];
        if (mount) {
            quat_mul(q_wb, mount, q_wc);
            quat_rotate(q_wb, mount + 4, t_wc);
            for (int j = 0; j < 3; j++)
                t_wc[j] = t_wb[j] + t_wc[j];
        } else {
            memcpy(q_wc, q_wb, sizeof q_wc);
            memcpy(t_wc, t_wb, sizeof t_wc);
        }

        /* the ray: origin = q_ref_inv rotating t_wc - t_ref, dir = q_ref_inv
         * * q_wc rotating the bearing */
        const double v[3] = {t_wc[0] - t_ref[0], t_wc[1] - t_ref[1],
                             t_wc[2] - t_ref[2]};
        const double u[3] = {bearings[2 * index[k]], bearings[2 * index[k] + 1],
                             1.0};
        double q[4], o[3], d[3];
        quat_rotate(q_ref_inv, v, o);
        quat_mul(q_ref_inv, q_wc, q);
        quat_rotate(q, u, d);

        const double dxz = d[0] / d[2], dyz = d[1] / d[2];
        const double au = fx * dxz + cx, av = fy * dyz + cy;
        const double bu = fx * (o[0] - o[2] * dxz), bv = fy * (o[1] - o[2] * dyz);
        a_u[k] = au;
        a_v[k] = av;
        b_u[k] = bu;
        b_v[k] = bv;

        /* planes with (z_i - o_z) / d_z > 0 */
        lo[k] = d[2] > 0.0 ? search(depths, nz, o[2], 1) : 0;
        hi[k] = d[2] > 0.0 ? nz : d[2] < 0.0 ? search(depths, nz, o[2], 0) : 0;

        /* max(|a_u|, |a_v|, max(|b_u|, |b_v|) * inv_max) < bound, false for
         * NaN; a product with inv_max > 0 keeps the order of the two |b|. */
        affine_ok[k] = fabs(au) < bound && fabs(av) < bound
                       && fabs(bu) * inv_max < bound && fabs(bv) * inv_max < bound;
        if (!affine_ok[k]) {
            memcpy(origins + 3 * grazing, o, sizeof o);
            memcpy(dirs + 3 * grazing, d, sizeof d);
            grazing++;
        }
    }
    return grazing;
}

/* Fusion kinds of fuse_band, numbered as _sweep.FUSE_KINDS lists them. */
enum { FUSE_MIN, FUSE_MAX, FUSE_ARITHMETIC, FUSE_RMS, FUSE_HARMONIC };

/* Voxels fused, folded into the peak and zeroed per step: the cameras'
 * block and its fusion stay in L1 cache between the three. */
#define BLOCK 128

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

/* Where v[j] > conf[px + j], strictly: conf = v[j] and best = plane. */
static void fold_peak(const struct band *b, const double *v, int64_t px,
                      int64_t len, int64_t plane)
{
    double *const conf = b->confidence + px;
    int64_t *const best = b->best + px;
    int64_t j = 0;
#ifdef __SSE2__
    /* two voxels at a time: gcc does not vectorize the blend of best */
    const __m128i p = _mm_set1_epi64x(plane);
    for (; j + 2 <= len; j += 2) {
        const __m128d x = _mm_loadu_pd(v + j), c = _mm_loadu_pd(conf + j);
        const __m128d gt = _mm_cmpgt_pd(x, c);
        if (!_mm_movemask_pd(gt)) /* usual: most fused voxels fold nothing */
            continue;
        const __m128i g = _mm_castpd_si128(gt);
        const __m128i o = _mm_loadu_si128((const __m128i *)(best + j));
        _mm_storeu_pd(conf + j, _mm_max_pd(x, c)); /* x > c ? x : c */
        _mm_storeu_si128((__m128i *)(best + j),
                         _mm_or_si128(_mm_and_si128(g, p), _mm_andnot_si128(g, o)));
    }
#endif
    for (; j < len; j++)
        if (v[j] > conf[j]) {
            conf[j] = v[j];
            best[j] = plane;
        }
}

/* Voxels [s, s + m) of the band: fuse the cameras' votes into out.
 * Inlined in both passes. */
static inline __attribute__((always_inline)) void
fuse_voxels(const struct band *b, int64_t s, int64_t m)
{
    const int64_t n = b->n;
    const double dn = (double)n;
    double *o = b->out + s;

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
}

/* Voxels [s, s + m) of the band: fuse the cameras' votes into out, fold
 * them into the running maximum and zero the cameras' votes. */
static void fuse_block(const struct band *b, int64_t s, int64_t m)
{
    fuse_voxels(b, s, m);

    /* strictly greater: the first maximum, as np.argmax */
    const double *o = b->out + s;
    int64_t pl = s / b->plane, px = s % b->plane;
    for (int64_t i = 0; i < m; pl++, px = 0) {
        int64_t run = b->plane - px;
        if (run > m - i)
            run = m - i;
        fold_peak(b, o + i, px, run, b->p0 + pl);
        i += run;
    }

    for (int64_t c = 0; c < b->n; c++)
        memset(b->stack + c * b->stride + s, 0, (size_t)m * sizeof(double));
}

/* The band step on marked segments only, row by row. Camera c's marks
 * (planes x height x segs) start at marks + c * mark_stride; a voxel
 * outside its camera's marked segments holds no vote. Where every camera
 * marked a segment (min and harmonic: a zero input fuses to +0.0) or any
 * did (max, arithmetic, rms: all-zero inputs fuse to +0.0), the segment is
 * fused, folded and zeroed as fuse_block does it; elsewhere its fusion is
 * +0.0, which folds nothing, so out's segment is zeroed unless written
 * says that it already holds zeros, and the cameras' marked segments are
 * zeroed. written (planes x height x segs, or NULL: every segment) marks
 * the segments of out that may hold a nonzero value; it is left marking
 * the fused ones, and the cameras' marks are cleared. */
static void fuse_marked(const struct band *b, int64_t planes, int64_t width,
                        uint8_t *marks, int64_t mark_stride, uint8_t *written)
{
    const int64_t n = b->n, height = b->plane / width;
    const int64_t segs = (width + SEGMENT - 1) / SEGMENT;
    const int every = b->kind == FUSE_MIN || b->kind == FUSE_HARMONIC;
    for (int64_t p = 0, row = 0; p < planes; p++)
        for (int64_t y = 0; y < height; y++, row++) {
            const uint8_t *const m = marks + row * segs;
            uint8_t *const wr = written ? written + row * segs : NULL;
            for (int64_t s = 0, x = 0; s < segs; s++, x += SEGMENT) {
                int all = 1, any = 0;
                for (int64_t c = 0; c < n; c++) {
                    all &= m[c * mark_stride + s];
                    any |= m[c * mark_stride + s];
                }
                const int64_t v = row * width + x;
                const int64_t len = width - x < SEGMENT ? width - x : SEGMENT;
                if (every ? all : any) {
                    fuse_voxels(b, v, len);
                    fold_peak(b, b->out + v, y * width + x, len, b->p0 + p);
                    for (int64_t c = 0; c < n; c++)
                        memset(b->stack + c * b->stride + v, 0,
                               (size_t)len * sizeof(double));
                    if (wr)
                        wr[s] = 1;
                    continue;
                }
                for (int64_t c = 0; any && c < n; c++)
                    if (m[c * mark_stride + s])
                        memset(b->stack + c * b->stride + v, 0,
                               (size_t)len * sizeof(double));
                if (!wr || wr[s])
                    memset(b->out + v, 0, (size_t)len * sizeof(double));
                if (wr)
                    wr[s] = 0;
            }
        }
    for (int64_t c = 0; c < n; c++)
        memset(marks + c * mark_stride, 0, (size_t)(planes * height * segs));
}

/* The fused votes beside each pixel's best plane, as dsi._track_band
 * keeps them after a band's fold: with i = best[px] - p0, a pixel with a
 * vote and i in [-1, planes) takes below[px] from the band out (planes
 * [p0, p0 + planes)) at i - 1, or from prev (that plane of the previous
 * band), when given, for i = 0; and above[px] at i + 1 where the band
 * holds it: for i = -1, a best on the previous band's last plane, that is
 * the band's first. */
static void track_band(const struct band *b, int64_t planes,
                       const double *prev, double *below, double *above)
{
    const int64_t plane = b->plane;
    for (int64_t px = 0; px < plane; px++) {
        const int64_t i = b->best[px] - b->p0;
        if (i < -1 || i >= planes || !(b->confidence[px] > 0.0))
            continue;
        if (i > 0)
            below[px] = b->out[(i - 1) * plane + px];
        else if (i == 0 && prev)
            below[px] = prev[px];
        if (i + 1 < planes)
            above[px] = b->out[(i + 1) * plane + px];
    }
}

/* Fuse one band of n cameras' votes, voxel by voxel, with numpy's IEEE
 * operations in numpy's order: planes [p0, p0 + planes) of the volume,
 * each of `plane` voxels in rows of width; camera c's band starts at
 * stack + c * stride and the fused band is out. Block by block, the fused
 * voxels are folded into the running (confidence, best) with a strict >
 * and the cameras' votes are zeroed. With marks (see fuse_marked) only the
 * marked segments are visited, and every output is the same bit for bit.
 *
 * The bands of a run come in plane order and the running maximum starts
 * at 0; the call also keeps below and above, the fused votes at each
 * pixel's best plane -1 and +1 (track_band, with prev as there, NULL for
 * a run's first band), so that refinement needs no plane of the volume. */
void fuse_band(double *stack, int64_t n, int64_t stride, int64_t planes,
               int64_t plane, int kind, double *out, int64_t p0,
               double *confidence, int64_t *best, const double *prev,
               double *below, double *above, int64_t width, uint8_t *marks,
               int64_t mark_stride, uint8_t *written)
{
    const struct band b = {stack, n, stride, kind, out, plane, p0,
                           confidence, best};
    const int64_t size = planes * plane;
    if (marks)
        fuse_marked(&b, planes, width, marks, mark_stride, written);
    else
        for (int64_t s = 0; s < size; s += BLOCK)
            fuse_block(&b, s, size - s < BLOCK ? size - s : BLOCK);
    track_band(&b, planes, prev, below, above);
}

/* A worker's run of the band step in one call: the planes [p0, p0 +
 * planes) of the volume, in bands of `band` planes (the last maybe short)
 * starting at p0. Camera c's rays are the events [starts[c], starts[c +
 * 1]) of a_u ... hi. For each band in plane order, every camera sweeps its
 * rays into its band of the stack (camera c's at stack + c * stride), as
 * sweep does, with its marks at marks + c * mark_stride when marks is not
 * NULL; the cameras' bands are copied into cameras (camera c's planes of
 * the run at cameras + c * cam_stride) when that is not NULL; then
 * fuse_band fuses them into the band's planes of volume or, where that is
 * NULL, into outs + (q / band % 2) * band * plane for the band starting at
 * plane q, with written at the same offset in mark units, prev being the
 * band before's last fused plane. hit[k] is set for every event that
 * votes, casts[c] gets camera c's (event, plane) votes, and first, when
 * not NULL, the run's first fused plane. Every output is that of the same
 * sweep and fuse_band calls made one by one.
 */
void run_bands(const double *a_u, const double *a_v, const double *b_u,
               const double *b_v, const int64_t *lo, const int64_t *hi,
               const int64_t *starts, int64_t n, const double *inv_zs,
               int64_t p0, int64_t planes, int64_t band, int64_t width,
               int64_t height, int bilinear, int kind, double *stack,
               int64_t stride, uint8_t *marks, int64_t mark_stride,
               double *volume, double *outs, uint8_t *written,
               double *confidence, int64_t *best, double *below,
               double *above, double *first, double *cameras,
               int64_t cam_stride, uint8_t *hit, int64_t *casts)
{
    const int64_t plane = width * height;
    const int64_t segs = (width + SEGMENT - 1) / SEGMENT;
    const double *prev = NULL;
    for (int64_t c = 0; c < n; c++)
        casts[c] = 0;
    for (int64_t q = p0; q < p0 + planes; q += band) {
        const int64_t m = p0 + planes - q < band ? p0 + planes - q : band;
        for (int64_t c = 0; c < n; c++) {
            const int64_t s = starts[c];
            casts[c] += sweep(a_u + s, a_v + s, b_u + s, b_v + s, lo + s, hi + s,
                              starts[c + 1] - s, inv_zs, stack + c * stride, m,
                              q, width, height, bilinear, hit + s,
                              marks ? marks + c * mark_stride : NULL);
        }
        for (int64_t c = 0; cameras && c < n; c++)
            memcpy(cameras + c * cam_stride + (q - p0) * plane, stack + c * stride,
                   (size_t)(m * plane) * sizeof(double));
        const int64_t turn = q / band % 2;
        double *const out = volume ? volume + (q - p0) * plane
                                   : outs + turn * band * plane;
        fuse_band(stack, n, stride, m, plane, kind, out, q, confidence, best,
                  prev, below, above, width, marks, mark_stride,
                  written ? written + turn * band * height * segs : NULL);
        if (first && q == p0)
            memcpy(first, out, (size_t)plane * sizeof(double));
        prev = out + (m - 1) * plane;
    }
}

/* Event text: the compiled pass of io._parse_events_blocks.
 *
 * Lines end in "\n", "\r\n" or, at the end of text, "\r". A line is blank
 * (spaces and tabs), a comment (spaces and tabs, then '#') or an event:
 * four fields "t x y p" split by runs of spaces and tabs. t is
 * [+-]?(digits[.digits*] | .digits)([eE][+-]?digits)?, finite; x, y and p
 * are [+-]?digits; x and y fit int32 and, when width >= 0, lie in
 * [0, width) x [0, height); p is 0, 1 or -1, and 0 becomes -1. Every such
 * line is also accepted by the line parser (float() and int() after
 * str.split()) with the same values: t is exact, either by Clinger's fast
 * path (at most 15 significant digits times a power of ten up to 22, so
 * one correctly rounded IEEE multiply or divide of exact operands) or by
 * strtod, which also rounds correctly. Anything else refuses the text: a
 * byte above 0x7f anywhere, a lone '\r' anywhere (the line parser ends a
 * line there, even in a comment), whitespace other than spaces and tabs in
 * a blank or event line, an inline comment, a wrong field count or a bad
 * or out-of-range field.
 */
static const double POW10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                               1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                               1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

static int is_digit(unsigned char c)
{
    return c >= '0' && c <= '9';
}

static int is_blank(unsigned char c)
{
    return c == ' ' || c == '\t';
}

/* A field of [s, e) ends at e or at a space or tab. */
static int field_end(const unsigned char *s, const unsigned char *e)
{
    return s == e || is_blank(*s);
}

/* The integer field at s into *out; returns its end, or NULL unless it is
 * [+-]?digits within int32. */
static const unsigned char *parse_int32(const unsigned char *s,
                                        const unsigned char *e, int32_t *out)
{
    const int neg = s < e && *s == '-';
    if (s < e && (*s == '+' || *s == '-'))
        s++;
    const unsigned char *const digits = s;
    int64_t v = 0;
    for (; s < e && is_digit(*s); s++)
        if ((v = 10 * v + (*s - '0')) > (int64_t)INT32_MAX + 1)
            return NULL;
    if (s == digits || !field_end(s, e) || (!neg && v > INT32_MAX))
        return NULL;
    *out = (int32_t)(neg ? -v : v);
    return s;
}

/* The timestamp field at s into *out, as float() gives it; returns its
 * end, or NULL unless it has the timestamp grammar and a finite value. */
static const unsigned char *parse_time(const unsigned char *s,
                                       const unsigned char *e, double *out)
{
    const unsigned char *q = s;
    const int neg = q < e && *q == '-';
    if (q < e && (*q == '+' || *q == '-'))
        q++;
    uint64_t m = 0;   /* the first 15 significant digits */
    int sig = 0;      /* significant digits */
    int digits = 0;   /* mantissa digits */
    int64_t exp = 0;  /* value = m * 10^exp while sig <= 15 */
    for (; q < e && is_digit(*q); q++, digits++)
        if (m || *q != '0') {
            if (++sig <= 15)
                m = 10 * m + (*q - '0');
        }
    if (q < e && *q == '.')
        for (q++; q < e && is_digit(*q); q++, digits++, exp--)
            if (m || *q != '0') {
                if (++sig <= 15)
                    m = 10 * m + (*q - '0');
            }
    if (!digits)
        return NULL;
    if (q < e && (*q == 'e' || *q == 'E')) {
        q++;
        const int eneg = q < e && *q == '-';
        if (q < e && (*q == '+' || *q == '-'))
            q++;
        const unsigned char *const exp_digits = q;
        int64_t ex = 0;
        for (; q < e && is_digit(*q); q++)
            if (ex < 100000) /* far past any finite double either way */
                ex = 10 * ex + (*q - '0');
        if (q == exp_digits)
            return NULL;
        exp += eneg ? -ex : ex;
    }
    if (!field_end(q, e))
        return NULL;
    double v;
    if (FLT_EVAL_METHOD == 0 && sig <= 15 && exp >= -22 && exp <= 22) {
        v = exp >= 0 ? (double)m * POW10[exp] : (double)m / POW10[-exp];
        if (neg)
            v = -v;
    } else {
        char buf[64];
        char *stop;
        if (q - s >= (int64_t)sizeof buf)
            return NULL;
        memcpy(buf, s, (size_t)(q - s));
        buf[q - s] = '\0';
        v = strtod(buf, &stop);
        if (stop != buf + (q - s)) /* e.g. a locale's other decimal point */
            return NULL;
    }
    if (!isfinite(v))
        return NULL;
    *out = v;
    return q;
}

/* Parse the events of text[0:len] into t, x, y, p (room for cap events);
 * returns their number, or -1 where the text is refused. Each line is read
 * on its own: the caller checks the time order once over the whole file. */
int64_t parse_events(const char *text, int64_t len, int64_t width,
                     int64_t height, double *t, int32_t *x, int32_t *y,
                     int8_t *p, int64_t cap)
{
    const unsigned char *s = (const unsigned char *)text, *const end = s + len;
    int64_t n = 0;
    while (s < end) {
        const unsigned char *eol = memchr(s, '\n', (size_t)(end - s));
        const unsigned char *const next = eol ? eol + 1 : end;
        if (!eol)
            eol = end;
        if (eol > s && eol[-1] == '\r')
            eol--;
        while (s < eol && is_blank(*s))
            s++;
        if (s < eol && *s == '#') {
            for (; s < eol; s++)
                if (*s >= 0x80 || *s == '\r')
                    return -1;
        } else if (s < eol) {
            int32_t f[3]; /* x, y, p */
            if (n == cap || !(s = parse_time(s, eol, &t[n])))
                return -1;
            for (int k = 0; k < 3; k++) {
                const unsigned char *const gap = s;
                while (s < eol && is_blank(*s))
                    s++;
                if (s == gap || !(s = parse_int32(s, eol, &f[k])))
                    return -1;
            }
            while (s < eol && is_blank(*s))
                s++;
            if (s != eol || f[2] < -1 || f[2] > 1)
                return -1;
            if (width >= 0 && (f[0] < 0 || f[0] >= width || f[1] < 0 || f[1] >= height))
                return -1;
            x[n] = f[0];
            y[n] = f[1];
            p[n] = (int8_t)(f[2] ? f[2] : -1);
            n++;
        }
        s = next;
    }
    return n;
}
