"""Set-up cost of the mapper in a fresh interpreter: ``import raysweep``
plus one single-event vote into a 240x180x100 volume, so that a kernel
that is compiled or loaded on first use pays for it here.

Usage: python3 setup_probe.py SRC_DIR {nearest,bilinear}
Prints the seconds taken; exits non-zero if the vote left no trace.
"""

import sys
import time


def main():
    src, mode = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import raysweep as rs

    cam = rs.CameraModel(fx=200.0, fy=200.0, cx=120.0, cy=90.0, width=240, height=180)
    grid = rs.DsiGrid.create(rs.Se3.identity(), cam, 0.45, 4.0, 100)
    rs.vote_event(grid, rs.Event(0.0, 120, 90), cam, rs.Se3.identity(), mode=mode)
    elapsed = time.perf_counter() - t0
    if not grid.total_votes() > 0.0:
        sys.exit("warm-up vote deposited nothing")
    print(f"{elapsed:.9f}")


if __name__ == "__main__":
    main()
