"""omex: on-line matching, extractor verification, and fingerprint protocols
over explicitly enumerated sets, at sizes where every claim can be checked
exhaustively."""

from .graph import (BipartiteGraph, GraphError, GraphFormatError,
                    GraphInvariantError, Violation, complete_graph, load,
                    save, validate)
from .limits import Limits, LimitExceeded, default_limits
from .offline import (OfflineParams, construct_verified_offline_graph,
                      hall_check, max_matching, random_offline_graph,
                      series_base, series_bound)
from .online import (AuditViolation, GameResult, LayeredGraph,
                     MatchingSession, SequenceSweep, counterexample_graph,
                     exhaustive_online_check, half_rejection_audit, layered,
                     online_strategy_exists)
from .extractor import (ExtractorCheck, ExtractorView, HazardReport,
                        PrefixCheck, deviation, hazard_report, hazard_walk,
                        is_extractor, is_prefix_extractor, load_view,
                        next_pow2,
                        optimal_degree, optimal_degree_pow2,
                        prefix_failure_bound, random_extractor_search,
                        save_view, truncate, uniform_view)
from .trevisan import (CodeTable, DesignViolation, WeakDesign,
                       as_extractor_view, encode, greedy_weak_design,
                       list_decode, restrict, trevisan_eval,
                       verify_weak_design)
from .fingerprint import (EnumeratedSet, ExtractorFingerprint,
                          MatchingFingerprint, TwoConditionFingerprint,
                          bits_for, decode_extractor, decode_matching,
                          decode_two_conditions, encode_extractor,
                          encode_matching, encode_two_conditions, layer_sets,
                          load_set, save_set)
from .rng import SplitMix64

__version__ = "0.1.0"
