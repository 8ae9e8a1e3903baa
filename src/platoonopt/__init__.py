"""Coordinated vehicle platooning: routing, scheduling, and the repeated
route-then-schedule heuristic, by branch and bound over HiGHS's simplex."""

__version__ = "0.1.0"
