"""Fermi-Hubbard simulation on four-level qudits.

Maps each spinful lattice site onto one ququart through Clifford-algebra
generators, transpiles the Trotterized evolution into controlled-sum and
subspace-rotation gates, emulates the circuits on a dense statevector,
and validates everything against an exact occupation-number reference.
"""

__version__ = "0.1.0"
