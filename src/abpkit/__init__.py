"""abpkit: exact machinery for read-k oblivious algebraic branching programs.

Modules:
  algebra    prime fields, sparse polynomials, univariate matrices, F_p linear algebra
  abp        the oblivious program model: validate, evaluate, expand, restrict, serialize
  sequences  read-sequence combinatorics: monotone and regularly-interleaving pruning
  evaldim    evaluation dimension, read-once synthesis, width-collapse conversions
  pit        the white-box identity test, its per-round points and round-count bound
  hardpoly   the hard families P_n and Q_n with dimension experiments
  corpus     seeded random instances for testing and experiments
  cli        command-line entry point
"""

from .algebra import GuardExceeded, LinearSolver, PrimeField, SparsePoly, UniMatrix
from .abp import AbpClass, ClassificationError, ObliviousAbp, padded_reads, validate
from .sequences import (ReadSequence, SequenceError, concat_decompose,
                        is_regularly_interleaving, longest_monotone,
                        per_read_monotone_subset, regularly_interleaving_subset)
from .evaldim import (EvalDimReport, Roabp, eval_dim, k_gap_check,
                      k_gap_to_roabp, k_pass_to_roabp, roabp_synthesize,
                      roabp_width_profile)
from .pit import PitVerdict, iteration_bound, iteration_bound_check, read_k_pit
from .hardpoly import (BlockPartition, EliminationResult, HardFamilyInstance,
                       block_partition, eliminate_summand, experiment_pn_evaldim,
                       experiment_qn_evaldim, gen_pn, gen_qn, pn_projection_step,
                       qn_matchings)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
