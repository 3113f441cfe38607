from unittest import mock

import numpy as np
import pytest

from raysweep import _sweep
from raysweep.geometry import CameraModel, Se3

KERNELS = ["c", "numpy"]


def numpy_kernel():
    """Context manager in which rays are prepared and swept with numpy, as
    on a machine where the C library cannot be built."""
    return mock.patch.object(_sweep, "_load_c", lambda: None)


@pytest.fixture(params=KERNELS)
def kernel(request):
    """Runs a test once with each kernel: the compiled one, then numpy."""
    if request.param == "c":
        assert _sweep.kernel_name() == "c"
        yield "c"
    else:
        with numpy_kernel():
            yield "numpy"


@pytest.fixture
def pinhole_cam():
    """Distortion-free 240x180 camera with centered principal point."""
    return CameraModel(fx=200.0, fy=200.0, cx=120.0, cy=90.0, width=240, height=180)


@pytest.fixture
def distorted_cam():
    return CameraModel(
        fx=200.0, fy=200.0, cx=120.0, cy=90.0, width=240, height=180,
        dist=np.array([-0.05, 0.01, 0.001, -0.002]),
    )


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_pose(rng, trans_scale=1.0):
    return Se3(random_unit_quat(rng), rng.normal(size=3) * trans_scale)
