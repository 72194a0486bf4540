"""Random walks in sparse random environments and the disordered pinning model.

The package samples sparse environments (renewal locations plus i.i.d.
disorder), evaluates the exact scale-function formulas for the walk in the
induced potential, computes pinning partition functions by batched, scaled
renewal recursions, and checks numerically that the renewal-averaged
expected number of returns to the origin equals the grand-canonical
partition sum of the pinning model.
"""

from .environment import (DisorderSpec, RenewalKernel, SparseEnvironment,
                          kernel_mean, kernel_tail, log_mgf, make_kernel,
                          sample_disorder, sample_environment, sample_renewal)
from .experiments import (KeyRelationConfig, KeyRelationReport, RegimeReport,
                          ScanConfig, annealed_transience_check, regime_scan,
                          tau_mean_lower_bound, verify_key_relation)
from .pinning import (BracketError, GrandCanonicalReport, HomogeneousSolution,
                      PartitionTable, annealed_critical_point, free_energy_estimate,
                      free_partition, grand_canonical, homogeneous_free_energy,
                      homogeneous_series_verdict, pinned_recursions,
                      quenched_critical_point_estimate,
                      quenched_critical_point_estimates)
from .walk import (Potential, StepBudgetError, WalkParams, build_potential,
                   expected_visits_exact, ruin_prob, scale_values,
                   simulate_visit_counts, step_prob)

__version__ = "0.1.0"
