"""Planar Stark problem as a toric domain boundary.

Levi-Civita regularization of the planar Stark Hamiltonian separates the
problem into two quartic oscillators.  This package evaluates their period
functions through complete elliptic integrals, their flows in closed form
(stepping the raw flow symplectically only to check them), builds the
moment-map image of the bounded regularized energy surface, and certifies
numerically that the image is the region under the graph of a strictly
convex decreasing profile, i.e. the boundary of a concave toric domain.

``import starktoric`` loads no submodule: each of the six below is
imported on its first access as an attribute (PEP 562), so a caller pays
only for the layers it uses.
"""

import importlib

__all__ = ["elliptic", "stark_model", "levi_civita", "periods", "dynamics", "toric_profile"]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
