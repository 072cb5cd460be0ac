"""Core: the paper's contribution — IR2-/MIR2-Trees, search algorithms,
baselines, bulk loading, and the user-facing engine facade."""

from repro.core.baselines import iio_top_k
from repro.core.builder import BulkItem, bulk_load, insert_build
from repro.core.corpus import Corpus, CorpusStats
from repro.core.diagnostics import (
    LevelSaturation,
    estimated_false_positive_rates,
    signature_saturation,
)
from repro.core.engine import SpatialKeywordEngine
from repro.core.indexes import (
    IIOIndex,
    IR2Index,
    MIR2Index,
    RTreeIndex,
    STreeIndex,
    SignatureFileIndex,
    SpatialKeywordIndex,
    make_index,
)
from repro.core.ir2tree import IR2Tree
from repro.core.mir2tree import MIR2Tree
from repro.core.query import QueryExecution, SpatialKeywordQuery
from repro.core.ranking import (
    DistanceDecayRanking,
    LinearRanking,
    RankingFunction,
    validate_monotonicity,
)
from repro.core.schemes import IR2Scheme, MIR2Scheme, plan_level_lengths
from repro.core.search import (
    SearchCounters,
    SearchOutcome,
    brute_force_top_k,
    ir2_top_k,
    ir2_top_k_iter,
)
from repro.core.search_general import brute_force_ranked, ranked_top_k, ranked_top_k_iter

__all__ = [
    "BulkItem",
    "Corpus",
    "CorpusStats",
    "DistanceDecayRanking",
    "IIOIndex",
    "IR2Index",
    "IR2Scheme",
    "IR2Tree",
    "LevelSaturation",
    "LinearRanking",
    "MIR2Index",
    "MIR2Scheme",
    "MIR2Tree",
    "QueryExecution",
    "RTreeIndex",
    "STreeIndex",
    "RankingFunction",
    "SearchCounters",
    "SearchOutcome",
    "SignatureFileIndex",
    "SpatialKeywordEngine",
    "SpatialKeywordIndex",
    "SpatialKeywordQuery",
    "brute_force_ranked",
    "brute_force_top_k",
    "bulk_load",
    "iio_top_k",
    "insert_build",
    "ir2_top_k",
    "ir2_top_k_iter",
    "make_index",
    "plan_level_lengths",
    "ranked_top_k",
    "ranked_top_k_iter",
    "estimated_false_positive_rates",
    "signature_saturation",
    "validate_monotonicity",
]
