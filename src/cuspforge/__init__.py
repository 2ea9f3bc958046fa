"""Angle structures and volume maximization on ideal triangulated cusped
3-manifolds."""

# the Lobachevsky kernel has one implementation, NumPy, in lobachevsky.py
KERNEL_BACKEND = "pure"

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
