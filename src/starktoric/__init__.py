"""Planar Stark problem as a toric domain boundary.

Levi-Civita regularization of the planar Stark Hamiltonian separates the
problem into two quartic oscillators.  This package evaluates their period
functions through complete elliptic integrals, integrates both the raw and
the regularized flows symplectically, builds the moment-map image of the
bounded regularized energy surface, and certifies numerically that the
image is the region under the graph of a strictly convex decreasing
profile, i.e. the boundary of a concave toric domain.
"""

from . import elliptic, stark_model, levi_civita, periods, dynamics, toric_profile

__version__ = "0.1.0"
