"""Session-wide test settings."""

import pytest

from mmflow.cli import _on_one_blas_thread


@pytest.fixture(autouse=True, scope="session")
def one_blas_thread():
    """Run the session on one OpenBLAS thread, as ``mmf train`` does, and
    restore the prior count at its end. At the reference shape the matmuls
    are too small to split, and training bits do not depend on the count."""
    with _on_one_blas_thread():
        yield
