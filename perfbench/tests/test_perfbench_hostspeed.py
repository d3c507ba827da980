"""The host-speed helper process and the scaling it gives."""

import pytest

import hostspeed
from hostspeed import HostSpeed, scale


def test_helper_samples_the_kernel_and_ends_when_closed():
    with HostSpeed() as speed:
        first = speed.sample(0.05)
        second = speed.sample(0.0)
    assert len(first) >= 1 and len(second) == 1
    assert speed.samples == first + second
    assert all(s > 0 for s in speed.samples)
    assert speed._proc.returncode == 0


def test_scale_maps_a_time_onto_the_nominal_host():
    assert scale(10.0, 2 * hostspeed.NOMINAL_S) == pytest.approx(5.0)
    assert scale(10.0, hostspeed.NOMINAL_S) == pytest.approx(10.0)
