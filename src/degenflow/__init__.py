"""degenflow: desk-scale numerics for degenerate SDEs with rough drifts.

The package re-exports nothing: import each name from its module.

Modules
-------
model            system definitions (moduli, spectral operators, drifts) and
                 hypothesis validation
linear_flow      exact Gaussian laws, exact step draws, the linear semigroup
                 by Gauss-Hermite, Hilbert-Schmidt noise diagnostics
bismut           controllability Gramian, perturbation controls, Monte-Carlo
                 derivative estimators, coupling/Girsanov checks
regularization   resolvent, fixed-point field, state transform, Galerkin
                 truncation comparisons
sde              mild-solution integration (the linear flow's paths are its
                 zero-drift ensembles), drift cutoffs, common-noise and
                 representation experiments, nonlinear Gronwall envelopes
persist          columnar binary + CSV persistence
config           the scenario catalog and anchors, the one config gate
scenarios        the scenario runners, one per catalog entry
cli              the command line (``degenflow run|list-scenarios|validate``,
                 or ``python -m degenflow``)
"""

__version__ = "0.1.0"
