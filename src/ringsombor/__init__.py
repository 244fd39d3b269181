"""Sombor index of total and unit graphs of finite commutative rings.

Exact brute-force evaluation (RadicalSum arithmetic), constant-time closed
forms per ring family, and a verification layer that plays the two against
each other and reports every discrepancy in the printed formulas.
"""

__version__ = "0.1.0"
