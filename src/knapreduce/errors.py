"""Shared exception types, and the node budget and stack driver of the
exact searches; the driver alone counts their nodes against the budget.

Input/precondition problems raise ValueError; the classes below cover the
two failure modes that deserve their own exit codes at the CLI boundary.
"""

# Node budget of all four pruned exhaustive searches.  Measured with CPython 3.11
# on one core of an Intel Xeon: the knapsack subset search visits ~700k
# nodes/s on 22-item subset-sum-like instances and 420k-480k nodes/s on
# 36-item digit-packed targets (F = 1..3); on 16-vertex cubic instances with
# sigma = 3, par_bruteforce expands 0.6M-1M nodes/s and csp_opt_bruteforce
# ~200k nodes/s.  So the budget is about 14 s, 21-24 s, 10-17 s and 50 s of
# search.  Being above 2^22, it admits every instance of up to 22 items, and
# a CSP search over at most 10^7 (partial) assignments never reaches it.
DEFAULT_NODE_CAP = 10_000_000


class CapExceededError(Exception):
    """An oracle or solver refused an instance larger than its configured cap."""


class ConstructionError(Exception):
    """A randomized construction exhausted its retry budget or cannot exist."""


def run_depth_first(root, max_nodes: int) -> None:
    """Run a depth-first search written as generators: each node's generator
    yields the unstarted generator of each child and resumes only after
    that child's search has ended.  Every generator run is a node, the root
    included, so a search yields only the children it expands; raises
    CapExceededError instead of running node max_nodes + 1.  The explicit
    stack keeps a search as deep as thousands of items or vertices off the
    interpreter's recursion limit."""
    nodes = 0
    stack = [iter((root,))]  # a one-item parent, so the root counts as a child
    while stack:
        for child in stack[-1]:
            nodes += 1
            if nodes > max_nodes:
                raise CapExceededError(f"search exceeded node budget {max_nodes}")
            stack.append(child)
            break
        else:
            stack.pop()
