"""Partial-fraction coefficients of 1/((1-x)(1-x^2)...(1-x^N)).

The decomposition of the finite product into partial fractions has, at
the pole x = 1, coefficients C(N, l) whose large-N behavior was long
conjectured to converge.  They do not: |C(N, l)| oscillates with period
about 31.96 in N under an exponentially growing envelope b^N with
b about 1.0704.  This package computes the coefficients in three
independent ways (exact rational arithmetic, a saddle-point closed form,
and a contour integral) and ships the comparison and peak-growth reports
that make the divergence visible.
"""

from . import exact, specfun, saddle, contour, report

__version__ = "0.1.0"

# the package re-exports what each layer module lists in its own __all__
__all__ = ["__version__"]
for _layer in (exact, specfun, saddle, contour, report):
    __all__ += _layer.__all__
    globals().update((name, getattr(_layer, name)) for name in _layer.__all__)
del _layer
