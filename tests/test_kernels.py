"""Contract of the kernel module."""

import pytest

from permwit import kernels

KERNEL_NAMES = ("compose", "inverse", "orbit", "close_elements", "conjugacy_orbit")


def test_backend_reports_lane():
    # the benchmark records BACKEND and wraps these names on permwit.kernels
    assert kernels.BACKEND == "py"
    for name in KERNEL_NAMES:
        assert callable(getattr(kernels, name))


def test_pure_compose_is_left_action():
    a = bytes([1, 2, 0])  # (1 2 3) 0-based
    b = bytes([1, 0, 2])  # (1 2)
    c = kernels.compose(a, b)
    assert list(c) == [a[b[x]] for x in range(3)]


def test_pure_compose_degree_mismatch():
    with pytest.raises(ValueError):
        kernels.compose(bytes([0, 1]), bytes([0, 1, 2]))


def test_close_elements_trivial_group():
    assert kernels.close_elements(4, [], 10) == [bytes(range(4))]
