"""Exact linear algebra for vector bundles on trees of rational curves.

Builds trees with coordinates at the nodes, glues per-component direct
sums of line bundles into bundles on the tree, computes twisted section
spaces exactly, and decides (with certificates) whether a bundle on the
projective line can degenerate to a given bundle on the tree.

The names below are the documented surface; everything else is imported
from its submodule (`treebundles.serialize`, `treebundles.sampling`, ...).
"""

from .fields import PrimeField, RationalField
from .curve import CurveError, Edge, TreeCurve, insert_bridge
from .splitting import SplittingType
from .bundle import (BundleError, clamp_box, clamp_multidegree,
                     contract_pushforward, dmax, h0, h1, make_bundle,
                     pullback, restrict_bundle, twist)
from .subbundles import SubbundleError, quotient_bundle, saturate
from .specialize import MismatchError, certify, decide, verify_certificate

__version__ = "0.1.0"
