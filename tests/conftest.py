"""Session-wide test settings."""

import pytest

from mmflow.field_model import _on_one_blas_thread


@pytest.fixture(autouse=True, scope="session")
def one_blas_thread():
    """Run the session on one OpenBLAS thread, as ``mmf train``, ``eval``
    and ``sample`` do, and restore the prior count at its end. At the
    reference shape the matmuls are too small to split, no result bit
    depends on the count, and a sampler call of two or more blocks splits
    its rows over the CPUs only on one thread."""
    with _on_one_blas_thread():
        yield
