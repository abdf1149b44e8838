"""Exact arithmetic for dynamically compressing integer-valued polynomials.

A polynomial f compresses the window [m] = {1, ..., m} into [n] when
f([m]) is contained in [n] with m > n; for degree >= 2 this forces all of
[m] to be preperiodic.  The package provides the binomial-basis polynomial
ring, an explicit compressing family, a lattice-reduction search for record
windows, geometry-of-numbers volume diagnostics, preperiodic-point counting,
and bundled record tables with a verification harness.
"""
