"""Shared exception types, and the node budget of the exact searches.

Input/precondition problems raise ValueError; the classes below cover the
two failure modes that deserve their own exit codes at the CLI boundary.
Each of the three pruned searches (the knapsack subset search and the two
CSP searches) is one loop over an explicit stack that counts its own
visited nodes, the root included, and refuses with search_budget_exceeded
instead of visiting node max_nodes + 1; no search depth meets the
interpreter's recursion limit.
"""

# Node budget of all four pruned exhaustive searches.  Measured with CPython
# 3.11.7 on one core of an Intel Xeon whose speed varied about 1.5x between
# runs: the knapsack subset search visits 1.3M-2.0M nodes/s on 22-item
# subset-sum instances of small integers and 0.6M-1.3M nodes/s on 36-item
# digit-packed targets (F = 1..3); on 16-vertex cubic instances with
# sigma = 3, par_bruteforce expands 1.3M-1.6M nodes/s and csp_opt_bruteforce
# 0.8M-1.0M nodes/s.  So the budget is about 5-8 s, 8-16 s, 6-8 s and 10-13 s
# of search.  Being above 2^22, it admits every instance of up to 22 items, and
# a CSP search over at most 10^7 (partial) assignments never reaches it.
DEFAULT_NODE_CAP = 10_000_000


class CapExceededError(Exception):
    """An oracle or solver refused an instance larger than its configured cap."""


class ConstructionError(Exception):
    """A randomized construction exhausted its retry budget or cannot exist."""


def search_budget_exceeded(max_nodes: int) -> CapExceededError:
    """The refusal of a search about to visit node max_nodes + 1."""
    return CapExceededError(f"search exceeded node budget {max_nodes}")
