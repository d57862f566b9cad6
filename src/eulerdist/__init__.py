"""Exact solver for Euler operator equations P(theta) U = T on a structured
class of temperate distributions, with an independent numerical pairing
oracle and a desk-scale fundamental-solution check for P(d/dx).

Nothing is re-exported here: import from the submodules (eulerdist.solver,
eulerdist.grammar, ...)."""
