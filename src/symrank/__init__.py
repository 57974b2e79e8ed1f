"""symrank: exact rank computations for two-valued symmetric matrix ensembles.

The package covers exact rational and quadratic-extension arithmetic,
exact rank (fraction-free, or certified full modulo a prime), the
tournament and bipartite-graph encodings of two-valued symmetric
ensembles, eigenvalue-multiplicity rank bounds, Hadamard matrices and
symmetric block designs, and bisection-closed set families with a
backtracking extension search.

Import from the layer modules, lowest first: `symrank.exactfield`
(scalars), `symrank.linalg` (matrices and rank), `symrank.ensemble` (pair
functions, tournaments, bipartite graphs), `symrank.spectra` (multiplicity
and the rank sandwich), `symrank.designs` (Hadamard matrices and designs),
`symrank.families` (set families and their search), `symrank.errors` and
`symrank.cli`.  This module imports none of them, so `import symrank.cli`
loads only what the CLI uses.
"""

__version__ = "0.1.0"
