"""numpy's C einsum kernel, called without its Python wrapper.

``np.einsum(..., optimize=False)`` checks its arguments in Python and
passes the ``__array_function__`` dispatcher before it calls this kernel.
The closed loop makes several row dots per RK4 stage; calling the kernel
itself runs the same C code, so the bits are the same, at about half the
cost per call.  The kernel is private to numpy, so the package requires
numpy 2.x, and ``tests/test_einsum.py`` checks that its row dots are
byte-identical to ``np.einsum(..., optimize=False)``.
"""

from numpy._core.multiarray import c_einsum as einsum

__all__ = ["einsum"]
