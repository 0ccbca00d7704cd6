import numpy as np
import pytest
from hypothesis import given, strategies as st

from septenary.conformal import stereo_phi, stereo_psi

finite3 = st.tuples(*[st.floats(min_value=-1e6, max_value=1e6,
                                allow_nan=False, allow_infinity=False)] * 3)


def test_base_points():
    p = stereo_phi(np.zeros(3))
    assert p.tolist() == [0.0, 0.0, 0.0, 0.0]
    q = stereo_psi(np.zeros(3))
    assert q.tolist() == [0.0, 0.0, 0.0, -1.0]


@given(finite3)
def test_psi_lands_on_the_unit_sphere(x):
    q = stereo_psi(np.array(x))
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-12


@given(finite3)
def test_phi_is_psi_shifted_along_the_pole(x):
    up = stereo_phi(np.array(x))
    down = stereo_psi(np.array(x))
    assert up[:3].tolist() == down[:3].tolist()
    assert up[3] - 1.0 == pytest.approx(down[3], abs=1e-15)


def test_phi_limit_at_large_radius():
    for u in (np.array([1.0, 0, 0]), np.array([0, -1.0, 0]),
              np.array([0.6, 0.8, 0.0]), np.array([0, 0, 1.0])):
        p = stereo_phi(1e8 * u)
        assert np.max(np.abs(p[:3])) <= 1e-7
        assert abs(p[3] - 2.0) <= 1e-7


def test_phi_fixed_unit_circle():
    # points of the unit sphere of R^3 sit at w = 1 on the lifted sphere
    p = stereo_phi(np.array([0.0, 1.0, 0.0]))
    assert p[3] == pytest.approx(1.0, abs=1e-15)
    assert p[:3] == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)


def test_non_finite_input_refuses():
    with pytest.raises(ValueError):
        stereo_psi(np.array([np.inf, 0.0, 0.0]))
    # a finite point whose |x|^2 overflows would have the image
    # (0, 0, 0, 0 * inf) = NaN; it is refused, with no overflow warning
    for chart, far in ((stereo_phi, 1e200), (stereo_psi, 1e160)):
        with pytest.raises(ValueError, match="finite"):
            chart(np.array([far, 0.0, 0.0]))


def test_stacked_images_are_the_one_point_images():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 3)) * 10.0 ** rng.uniform(-3, 3, (50, 1))
    for chart in (stereo_phi, stereo_psi):
        images = chart(x)
        assert images.shape == (50, 4)
        for image, point in zip(images, x):
            assert image.tobytes() == chart(point).tobytes()


def test_a_stack_with_one_non_finite_point_refuses():
    for bad in (np.nan, -1e160):
        x = np.zeros((6, 3))
        x[4, 2] = bad
        for chart in (stereo_phi, stereo_psi):
            with pytest.raises(ValueError, match="finite"):
                chart(x)
