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

__version__ = "0.1.0"
