import pytest

from fbjacobi.jacobi_core import _golub_welsch, _recurrence_lists


@pytest.fixture(autouse=True)
def cold_gauss_rules():
    """Start each test with no stored Gauss rule and no memoised recurrence,
    so a test that patches `np.linalg.eigh` or `_recurrence_coeffs` reaches
    the patched code instead of what an earlier test built."""
    _golub_welsch.cache_clear()
    _recurrence_lists.cache_clear()
