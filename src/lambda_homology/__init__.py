"""Exact homology of multi-indexed face systems.

The central object is a graded vector space equipped, in each degree and
face position, with a finite family of candidate face maps.  No simplicial
identities are assumed up front.  The package computes the largest graded
subspace on which the families collapse to a single choice satisfying the
pre-simplicial identities, restricts the faces there, and takes homology
of the alternating-sum boundary -- all over exact scalars (rationals or a
prime field).
"""

from .config import DEFAULT_CAPS, ResourceCaps
from .errors import (
    InternalCheckError,
    LambdaHomologyError,
    ResourceCapError,
    ValidationError,
)
from .fields import PrimeField, Rationals, field_from_json, parse_field_flag
from .linalg import Matrix, Subspace, rank_and_kernel

__version__ = "0.1.0"
