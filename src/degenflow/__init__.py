"""degenflow: desk-scale numerics for degenerate SDEs with rough drifts.

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
cli              scenario runner (``degenflow run|list-scenarios|validate``,
                 or ``python -m degenflow``)
"""

from .model import (DriftSpec, Modulus, SpectralModel, build_drift, build_example,
                    classify_modulus, validate_drift_regularity, validate_hypotheses)
from .linear_flow import (GaussianLaw, apply_P0, hs_noise_integral, transition_law,
                          transition_law_quadrature)
from .bismut import (bismut_gradient, bismut_hessian, gramian_Q,
                     perturbation_controls, scaling_exponent, verify_coupling)
from .regularization import (FieldGrid, FunctionField, GridSpec, find_contraction_lambda,
                             galerkin_compare, picard_solve, resolvent_apply,
                             theta_forward, theta_inverse)
from .sde import (BihariBound, coarsen_noise, cutoff_drift, dissipation_envelope,
                  integrate_ensemble, make_noise, representation_residual,
                  uniqueness_experiment)

__version__ = "0.1.0"
