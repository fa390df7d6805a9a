"""Heavy-tailed maximum-entropy queue model.

The packet-count law maximizing Tsallis entropy under a mean constraint
is a Zipf-Mandelbrot distribution whose normalizer is a Hurwitz zeta
value.  This package evaluates that law and its QoS metrics, recovers
the Lagrange multiplier from a target mean, bridges to the Norros
storage model through the Hurst parameter, and fits the two candidate
rho(beta) relationships.
"""

from . import distribution, errors, fitting, norros, solver, zeta

__version__ = "0.1.0"

# The public names are those of the layer modules' ``__all__`` lists, each
# declared once, in the module that defines it.
__all__ = ["errors"]
for _layer in (distribution, solver, norros, fitting, zeta):
    globals().update((name, getattr(_layer, name)) for name in _layer.__all__)
    __all__ += _layer.__all__
__all__.append("__version__")
del _layer
