"""The package's one door to scipy's HiGHS solver, opened at the first solve.

Importing `scipy.optimize` takes most of a `netpeel` process's start-up,
and only the orthant LPs need it: depth-2 runs never solve one, and the
exact vertex kernel of `orthant` settles most of the rest without a solver.
In the verifier the kernel screens each chunk on its rows of largest
offset, then settles the open trials of blocks within its budget; in the
depth-3 generator it decides the dead-region test.  Only problems with
dependent rows, a margin at the threshold or a minor table past the
kernel's budget reach HiGHS.  So nothing here imports scipy until
`linprog` is first called.  `verify` and `oracle.generate` bind `linprog`
under that name, which keeps each module's `linprog` attribute a patch
point of its own.
"""

from __future__ import annotations


class SolverError(RuntimeError):
    """HiGHS neither solved a program nor proved it infeasible."""


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported at the first call."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)
