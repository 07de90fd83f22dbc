"""Exception types, the string and cap constants shared across the package,
and the one union-find.

The constants live here, the one module every layer imports, so that the
command line can build its parser without importing a layer (or numpy).
Each layer re-exports the ones it uses: ``cubekit.median.L1`` and
``cubekit.diagnostics.RECT_STATE_CAP`` are these objects.  ``UnionFind``
lives here for the same reason: ``racg`` and ``polygonal`` both use it, and
``racg`` loads no numpy until it builds a ball.
"""

# metrics of median graphs (median)
L1 = "l1"
LINF = "linf"

# result methods and cone-off kinds (diagnostics)
EXACT = "exact"
LOWER_BOUND = "lower_bound"
CLIQUE = "clique"
APEX = "apex"

# grids need no cap: grid_search and walls_in_grids read every grid off one
# table over nested halfspace pairs, exact by Sageev's rule that a wall
# crossing two nested walls crosses every wall between them
# separation masks examined by max_thick_rectangle: the 32x32-vertex grid
# (247 008 masks) stays exact, and a capped run on 4 000 vertices adds about
# 2 s to the hyperplane tables (measured table in CHANGES.md)
RECT_STATE_CAP = 250_000

# seeds of the join decomposition (racg)
SQUARES = "squares"
LARGE_JOINS = "large_joins"


class CubekitError(Exception):
    """Base class for all library errors."""


class FormatError(CubekitError, ValueError):
    """An input file does not parse.

    Carries the 1-based line number when the failure is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphInputError(CubekitError, ValueError):
    """A graph fails a structural precondition (disconnected, loop, ...)."""


class NotMedianError(CubekitError, ValueError):
    """An operation that needs a median graph was given a non-median one."""


class ValidationError(CubekitError, ValueError):
    """Semantically invalid input (bad polygon, non-convex member, ...)."""


class SizeCapError(CubekitError, RuntimeError):
    """Input exceeds the size cap of an exact computation."""


class ConsistencyError(CubekitError, RuntimeError):
    """An internal cross-check failed; indicates a bug, never bad input."""


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx
