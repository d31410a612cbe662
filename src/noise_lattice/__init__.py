"""Desk-scale computations in lattices of sub-sigma-fields.

Finite probability spaces expose sigma-fields as partitions and
conditional expectations as projections; on top of those sit noise-type
Boolean algebras, their first chaos and spectral grading, an exact
symbolic model of the countable sign-product algebra with its closure and
completion, and seeded Monte-Carlo experiments for random suprema.
"""

__version__ = "0.1.0"
