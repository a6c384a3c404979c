"""Private aggregation of grid distributions under Earth Mover's Distance.

The library aggregates per-user probability distributions on a
power-of-two grid with differential privacy, measuring a noisy
multi-resolution pyramid of the user sum and recovering a sparse
estimate whose EMD error scales with the sqrt of the support size
rather than the grid size.  Heatmap rendering, evaluation metrics, a
dense-regime variant, a per-cell Laplace baseline, a shuffle-model
realization, and k-median coreset checks round out the toolkit.

The package re-exports nothing; import from its modules, as in
`from emdheat.aggregate import aggregate_central`.
"""

__version__ = "0.1.0"
