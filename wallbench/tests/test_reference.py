"""The reference kernel and the scaling of CPU time to reference speed."""

from reference import REFERENCE_S, _kernel, kernel_seconds, speed_scale


def test_kernel_does_the_same_work_every_time():
    assert _kernel() == _kernel()
    assert kernel_seconds() > 0


def test_speed_scale_uses_the_median_kernel_time():
    # Kernel at twice the reference time: the host runs at half speed,
    # so measured seconds halve at reference speed.
    assert speed_scale([REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S, 9 * REFERENCE_S]) == 0.5
