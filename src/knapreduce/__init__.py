"""Reductions between constraint problems and vector knapsack, exact
oracles for both sides, and a dimension-scaled approximation algorithm."""
