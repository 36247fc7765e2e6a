"""Exact linear algebra for vector bundles on trees of rational curves.

Builds trees with coordinates at the nodes, glues per-component direct
sums of line bundles into bundles on the tree, computes twisted section
spaces exactly, and decides (with certificates) whether a bundle on the
projective line can degenerate to a given bundle on the tree.
"""

from .fields import FpElement, PrimeField, RationalField, field_from_name
from .curve import (CurveError, Edge, TreeCurve, Enlargement,
                    boundary_of_flow, check_multidegree, coconnected_subtrees,
                    compose_enlargements, decompose_degree_zero,
                    fill_multidegree, identity_enlargement, insert_bridge,
                    md_total, restrict_curve, subtree_divisor_class,
                    validate_tree)
from .splitting import (SplittingType, HilbertFunction, hilbert_function,
                        merge_with_line, remove_line, specializes_p1,
                        splitting_from_hilbert)
from .bundle import (BundleError, GluedBundle, SectionBasis, clamp_box,
                     clamp_multidegree, contract_pushforward, dmax,
                     evaluate_section, h0, h0_oracle, h1, make_bundle,
                     pullback, restrict_bundle, section_basis, twist,
                     vanishing_floor)
from .subbundles import (LineSubbundle, SubbundleError, quotient_bundle,
                         quotient_with_projections, saturate)
from .specialize import (Certificate, Decision, DominanceStep,
                         EnlargementStep, FailureWitness, MismatchError,
                         RankOneBase, SplitOffStep, certify, decide,
                         find_line_subbundle, verify_certificate)
from .serialize import (SerializeError, bundle_from_json, bundle_to_json,
                        certificate_from_json, certificate_to_json,
                        curve_from_json, curve_to_json, dumps,
                        enlargement_from_json, enlargement_to_json,
                        multidegree_from_json, multidegree_to_json,
                        splitting_from_json, splitting_to_json,
                        subbundle_from_json, subbundle_to_json)
from .sampling import (balanced_splitting, generalize, random_bundle,
                       random_invertible, random_multidegree,
                       random_splitting, random_tree, spread)
from .dot import bundle_to_dot, certificate_to_dot, curve_to_dot

__version__ = "0.1.0"
