"""freeconv: numerical free additive convolution via analytic subordination."""

from .measures import (Measure, bernoulli_measure, from_density, load,
                       make_atomic, semicircle_measure)
from .ncpart import (catalan, count_nc_blocks, cumulants_to_moments,
                     enumerate_nc, moments_to_cumulants)
from .transforms import (c1_index, cauchy, nevanlinna_sigma, reciprocal_cauchy,
                         voiculescu)
from .subordination import (boundary_curve, inverse_Zn, pair_transform,
                            power_transform)
from .inversion import (CdfTable, DistanceReport, kolmogorov, measure_to_cdf,
                        stieltjes_cdf, tail_smoothing_check)
from .idlaws import (FamilySpec, family_measure, free_poisson,
                     is_free_id_sampled, meixner_w, semicircle)
from .bench import (ExperimentConfig, RateReport, pair_cdf, power_cdf,
                    run_rate_experiment)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
