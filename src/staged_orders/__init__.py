"""Stagewise approximations of countable orders, and what they encode.

The kernel tracks partial orders built either by adding pairs (growing,
"ce") or deleting them (shrinking, "coce"), one checked snapshot per
stage. On top of it: a membership coding read off order scaffolding, a
set family mirroring a shrinking preorder, two dual codings of an
enumeration into chains/antichains, graph codings in comparability
structure, and solvers for the chain/antichain principles used to read
the objects back out.
"""

from .kernel import (
    AntisymmetryViolation,
    AxiomCheck,
    BadPermutation,
    ConfigError,
    DomainLimitExceeded,
    DomainTooSmall,
    Kind,
    MonotoneReport,
    PosetReport,
    Snapshot,
    StagedOrder,
    StagedOrderError,
    TransitivityViolation,
    apply_permutation,
    check_monotone,
    check_partial_order,
    check_preorder,
    close_matrix,
    max_domain,
    transitive_close,
    transitive_reduction,
)
from .roles import (
    SIGMA2_CONSTANTS,
    SPECTRUM_CONSTANTS,
    Sigma2A,
    Sigma2B,
    Sigma2C,
    Sigma2Const,
    SpectrumA,
    SpectrumConst,
    SpectrumG,
    cantor_pair,
    cantor_unpair,
    pair_rank,
    pair_unrank,
    sigma2_decode,
    sigma2_encode,
    sigma2_label,
    spectrum_decode,
    spectrum_encode,
    spectrum_label,
)
from .sigma2 import (
    MemberIndex,
    NonmemberIndex,
    NotFound,
    Sigma2Consts,
    SyntheticSigma2Predicate,
    WitnessTable,
    build_run,
    membership_query,
    locate_sequence,
    identify_regions,
    predicate_from_config,
    predicate_to_config,
    required_domain_bound,
    stabilization_stage,
)
from .family import (
    CoCEPreorder,
    IsomorphismReport,
    SetFamily,
    SpeedupBudgetExceeded,
    build_family,
    preorder_from_config,
    preorder_to_config,
    speedup,
    sufficient_stages,
    verify_isomorphism,
)
from .jump import (
    EnumerationSchedule,
    InvalidAntichain,
    InvalidChain,
    WitnessReport,
    build_antichain_order,
    build_cochain_order,
    decode_antichain,
    decode_chain,
    finite_chain_witness,
    greedy_antichain,
    no_infinite_antichain_witness,
    schedule_from_config,
    schedule_to_config,
)
from .spectrum import (
    DEFAULT_SPECTRUM_CONSTS,
    InsufficientStages,
    LimitGraph,
    MultipleWitnesses,
    NoWitness,
    SpectrumConsts,
    build_spectrum_run,
    comparability_graph,
    decode_from_comparability,
    decode_graph,
    element_to_vertex,
    graph_from_config,
    graph_to_config,
)
from .solvers import (
    AdsSolution,
    CacSolution,
    CondensationResult,
    NotPartialOrder,
    NotTotal,
    NotTotalPreorder,
    ceil_sqrt,
    chain_valid,
    antichain_valid,
    condense,
    longest_chain,
    pigeonhole_extract,
    sequence_valid,
    solve_ads,
    solve_ads_preorder,
    solve_cac,
)
from .serialize import (
    canonical_dumps,
    config_hash,
    load_run,
    load_snapshot,
    snapshot_from_obj,
    snapshot_to_obj,
    write_run,
)

__version__ = "0.1.0"
