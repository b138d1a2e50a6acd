"""Randomness diagnostics for the permutation x -> g**x over prime fields.

Names are imported from their modules, listed in the README's "Library layout".
"""

__version__ = "0.1.0"
