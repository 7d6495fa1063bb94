"""The reference engine: a naive, obviously-correct StarQuery evaluator.

This is the correctness oracle.  It shares no executor code with the
row-store or column-store engines (only the in-memory ``Table`` container,
the ``ResultSet`` container and the IR): it selects rows with
straightforward vectorized numpy, then aggregates and orders them row at
a time in plain Python, and performs no I/O and no cost accounting.  Every
engine x design x configuration in the test suite must match its output
exactly.
"""

from .engine import execute, selected_positions
from ..plan.predicates import eval_predicate

__all__ = ["execute", "selected_positions", "eval_predicate"]
