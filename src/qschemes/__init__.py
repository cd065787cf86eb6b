"""Exact-arithmetic toolkit for quiver schemes.

Everything is computed over the Gaussian rationals: truncated-polynomial
module maps, per-vertex moment values, Weyl reflections on parameters and
dimension vectors, orbit factorizations through chains, and the leg
regularization rewrite.  All identities verified by the test and check
suites hold exactly; there are no tolerances anywhere.
"""

__version__ = "0.1.0"
