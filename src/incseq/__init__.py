"""Vanishing ideals of increasing sequences over exact fields.

Closed-form Groebner bases, standard monomials, Hilbert functions, and
indicator-polynomial interpolation for embedded (strictly) nondecreasing
sequences, with brute-force oracles and verifiers for increasing Kakeya
sets, increasing Nikodym sets, and affine hyperplane covers.
"""

__version__ = "0.1.0"

from .combinatorics import Embedding, parse_embedding
from .field import field_from_string
from .poly import DEGLEX, LEX, Polynomial, TermOrder, format_polynomial, parse_polynomial

__all__ = [
    "DEGLEX",
    "Embedding",
    "LEX",
    "Polynomial",
    "TermOrder",
    "field_from_string",
    "format_polynomial",
    "parse_embedding",
    "parse_polynomial",
    "__version__",
]
