"""Numerical laboratory for the even and odd eight-vertex lattice models.

The package verifies, at desk scale, the integrable structure shared by
the two vertex families: elliptic weight parameterization, Lax operators
and the intertwiner family labelled by parity pairs, Yang-Baxter
residuals and kernel discovery, commuting transfer matrices, staggered
partition-function equivalences, and the free-fermion/Krinsky manifold
of the asymmetric staggered chain.
"""

__version__ = "0.1.0"
