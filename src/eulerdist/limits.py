"""Every input and work limit of the package, each defined once.

The solver maps every non-trivial P(theta) onto the structured class, so
the only refusals it makes are these stated size limits.  Past one, the
commands raise InputTooLarge (DimensionError for MAX_DIM) and exit 2; the
oracle-suite bounds are option ranges, so a larger value is a usage error.
README.md lists them in one table with the test that holds each.
"""

# t1..t9 are the only variables the polynomial grammar can name, and the
# largest dimension -d takes.
MAX_DIM = 9
# The most terms a product or power in P may expand to; (t1+...+t6)^7 has
# 792, and the check is made before the product is multiplied.
MAX_POLY_TERMS = 1000
# The highest total degree a product or power in P may reach.
MAX_DEGREE = 1000
# The largest |n| of a power or mono factor, delta order and log power, and
# the largest total log power of one term, in an expression that is read.
MAX_ORDER = 1000
# Solving raises orders: delta(x1,k) gives x1^(-k-1), and a root of P of
# multiplicity v <= MAX_DEGREE adds v to a log power, so a solution is read
# with a larger bound.  In several variables a log power can also move to
# another coordinate (t1+t2 on log(x1)^3*H(x1)*H(x2) has a log(x2)^4 term),
# so the bound is on the total log power of a term as well.  A residual that
# is solved again can raise it once more: a solution's total log power stays
# within |p| + d * deg P on random cases up to d = 3 and deg P = 4
# (tests/test_solver.py), a bound that is tested, not proved, so the solve
# command checks its own output against this bound before printing it.
MAX_SOLUTION_ORDER = MAX_ORDER + MAX_DEGREE
# The longest numeric literal or name index, and the most bits a coefficient
# may have when a power is expanded, when the solver makes it and when it is
# printed: both keep every number within Python's 4300-digit limit on
# int-string conversion (3000 digits < 10000 bits).
MAX_DIGITS = 3000
MAX_BITS = 10_000
# The deepest nesting of parentheses in P.  The polynomial reader recurses
# four calls per level, so 100 levels stay well inside Python's default
# recursion limit of 1000 frames, with room for the callers' own frames.
MAX_NESTING = 100
# The most terms the theta-action or the solver may hold: deep finite parts
# or delta orders in several coordinates multiply out (160^2 delta terms
# for t1*t2+1 on x1^-160*x2^-160*H(x1)*H(x2)), and are refused before they
# are built.
MAX_HELD_TERMS = 2**13
# The most xi-grid nodes per axis wagner-check's pairing allocates (32 MB
# per complex array).
MAX_GRID_POINTS = 2**21
# The most 1-D work of wagner-check's pairing, (m + 1) * sum_k N * (distinct
# exponents of P on axis k) node-exponent pairs: about 0.4 s at 2^26.
MAX_PAIR_WORK = 2**26
# The largest oracle-suite --nmax: from 42 on, a pairing's error estimate
# passes the oracle's gate.
MAX_SUITE_N = 40
# The largest oracle-suite --pmax and --kmax: past it a pairing leaves the
# float range (171! > 1.8e308).
MAX_SUITE_ORDER = 170
