"""Combinatorics of prime alternating link diagrams and their two geometries.

Modules:
  farey      exact slope arithmetic on the Farey tessellation, two-bridge
             and projective rational link classification
  diagram    alternating diagrams as combinatorial maps, twist-sequence
             builders, flypes
  cubing     the non-positively curved cubed exterior and its verification
  polyhedra  checkerboard ideal polyhedra glued by the gear rule
  pingpong   round-disk certificates for parabolic matrix pairs
  decide     meridian-pair classification with verified witnesses
  cli        JSON-emitting command line driver
"""

from .farey import (ContinuedFraction, FareyAut, FareyError, INFINITY, Slope, ZERO,
                    cf_expand, cf_value, covering_slope, farey_adjacent,
                    farey_distance, parse_slope, rational_p3_classify,
                    rational_p3_hyperbolic, rational_p3_trivial, reduce_slope,
                    two_bridge_equivalent, two_bridge_hyperbolic)
from .diagram import (AlternatingDiagram, BLACK, CrossingArc, DiagramError,
                      InRegionArc, Region, TransverseArc, TwistSequence,
                      TwoBridgeDiagram, WHITE, flype, find_small_white_region,
                      is_prime, is_reduced, pretzel_diagram, region_adjacent,
                      two_bridge_diagram)
from .cubing import (CubedComplex, CubingError, VertexLink, boundary_cubings,
                     build_cubing, is_flag, link_angle_class, verify_npc)
from .polyhedra import IdealPolyhedronPair, PolyhedraError, build_polyhedra, circle_pattern_svg
from .pingpong import (Butterfly, Certificate, GaussRational, MobiusMap,
                       PingPongError, RoundDisk, fixed_point, free_word_sanity,
                       is_parabolic, isometric_butterfly, normalize_pair,
                       pingpong_certificate)
from .decide import (DecideError, SpareRegionCertificate, Verdict, VerdictKind,
                     Witness, classify_2bridge_pair, classify_alternating_pair,
                     witness_spare_region)

__version__ = "0.1.0"
