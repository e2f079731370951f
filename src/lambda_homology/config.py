"""Resource caps and runtime knobs guarding the exact computations.

The caps exist so a mistyped degree or an oversized fiber fails loudly and
early instead of grinding through an enormous exact elimination.
"""

from __future__ import annotations

import os

from .errors import ResourceCapError, ValidationError

#: environment variable bounding how many workers a pipeline may use
THREADS_ENV = "LAMBDA_HOMOLOGY_THREADS"


class ResourceCaps:
    __slots__ = ("max_ambient_dim", "max_index_size")

    def __init__(self, max_ambient_dim: int = 200_000, max_index_size: int = 720):
        #: largest allowed ambient dimension of a single graded piece
        self.max_ambient_dim = max_ambient_dim
        #: largest allowed number of face variants per (degree, position),
        #: checked before a builder enumerates them
        self.max_index_size = max_index_size

    def check_ambient_dim(self, degree: int, dim: int) -> None:
        if dim > self.max_ambient_dim:
            raise ResourceCapError(
                "ambient dimension exceeds cap",
                degree=degree, dim=dim, cap=self.max_ambient_dim,
            )

    def check_index_size(self, degree: int, position: int, size: int) -> None:
        if size > self.max_index_size:
            raise ResourceCapError(
                "candidate set exceeds cap",
                degree=degree, position=position, size=size,
                cap=self.max_index_size,
            )

    def check_table_size(self, what: str, entry: str, value: int,
                         cells: int) -> None:
        """Refuse a product table of ``cells`` entries before it is built.
        An algebra's table has dim^2 cells, as many as the degree-one
        ambient of its Hochschild system with the regular bimodule, so a
        table over ``max_ambient_dim`` could not be used; ``entry`` names
        the spec entry, with its ``value``, that sets the size."""
        if cells > self.max_ambient_dim:
            raise ResourceCapError(
                f"{what} table exceeds cap",
                entry=entry, value=value, cells=cells, cap=self.max_ambient_dim,
            )


DEFAULT_CAPS = ResourceCaps()


def thread_bound() -> int:
    """Upper bound on worker count, from the environment.

    The elimination engine is sequential, so any bound of at least one is
    honored trivially; the variable is validated here so a typo fails the
    run instead of being ignored, and results never depend on its value.
    """
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        bound = int(raw)
    except ValueError as exc:
        raise ValidationError(
            f"{THREADS_ENV} must be an integer", value=raw
        ) from exc
    if bound < 1:
        raise ValidationError(
            f"{THREADS_ENV} must be at least 1", value=raw
        )
    return bound
