"""Randomized ball partitions of finite-dimensional normed spaces: exact
separation and padding probabilities, polar-projection-body norms, volume
and surface-area formulas, separation-modulus bounds, and a convex-weight
Lipschitz extension operator."""

from .space import (INF, CapabilityError, InputError, SpaceDescriptor,
                    block_lp, circumradius, coord_bound, intersect_ball, linf,
                    loglacunary_decompose, lp, norm_batch, norm_eval,
                    norm_gradient, orlicz, schatten, space, within_batch)
from .geometry import (ConeSamples, MonteCarloEstimate, cone_sample,
                       cone_volume, estimate_mean, euclidean_ball_volume,
                       hit_and_run_sample, iq, iq_exact, iq_of, maxproj,
                       mean_width_dual, psi, psi_closed_form, surface_ratio,
                       uniform_ball_sample, volume_exact, volume_mc,
                       volume_of)
from .partition import (PartitionSample, deterministic_partition_bound_check,
                        loomis_whitney_boundary, overlap_exact_linf,
                        padding_prob_exact, padding_prob_mc,
                        product_partition, sample_partition,
                        schmuckenschlager_bracket, separation_prob_exact,
                        separation_prob_mc, separation_profile)
from .sepmod import (SweepRecord, companion_sandwich, companion_space,
                     external_volume_ratio, loglog_slope, records_to_csv,
                     records_to_json, rows_from_csv, sep_lower_evr,
                     sep_lower_limit_constant, sep_upper_two_norm, sweep,
                     sweep_slopes)
from .extension import (ExtensionOperator, build_extension, bump,
                        bump_weights, evaluate, lipschitz_ratio_scan,
                        separation_profile_cloud)

__version__ = "0.1.0"
