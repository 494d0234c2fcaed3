import pytest

from fbjacobi.jacobi_core import _golub_welsch


@pytest.fixture(autouse=True)
def cold_gauss_rules():
    """Start each test with no stored Gauss rule, so a test that patches
    `np.linalg.eigh` or `_recurrence_coeffs` reaches the patched code instead
    of a rule an earlier test built."""
    _golub_welsch.cache_clear()
