"""Exact combinatorics of m-adic trees.

Finite words and eventually periodic branches with their meet, incidence
and well-order algebra; comb patterns and first-move equivalence; two
families of symbolic compacta with exact evaluation, convergence and
separation; reduction maps between pair colourings; and the enumeration of
the minimal dense colouring types.
"""

from .words import (
    AlphabetError,
    Branch,
    Element,
    IncidenceUndefinedError,
    OrientationError,
    PrefixRelation,
    Word,
    branch_meet_horizon,
    concat,
    incidence,
    is_prefix,
    meet,
    meet_closure,
    prefix_cmp,
    well_order_cmp,
    well_order_key,
)
from .patterns import (
    Comb,
    CombGenerator,
    DoubleComb,
    FirstMoveCheck,
    FirstMoveMap,
    GeneratorError,
    GeneratorExhaustedError,
    PatternKind,
    PatternMatch,
    SplitDoubleComb,
    canonical_pattern,
    check_first_move_map,
    comb_nodes,
    find_pattern,
)
from .spaces import (
    INFINITY,
    ClassTest,
    Cone,
    CoSingleton,
    DisjointFamily,
    InfinityPoint,
    LimitPoint,
    NodePoint,
    NodeTest,
    OpenSetDescriptor,
    PartitionSpace,
    PartitionTable,
    ScatteredSpace,
    Singleton,
    Space,
    SpaceError,
    StabilizationReport,
    SubspaceReport,
    SymbolicPoint,
    TestPoint,
    WholeSpace,
    classify_subspaces,
    descriptor_contains,
    family_intersection_empty,
    partition_value,
    scattered_value,
    separate_points,
    split_embedding,
    interleave_branch,
    verify_convergence,
)
from .dense_types import (
    ConcreteAlphabet,
    DenseType,
    canonical_form,
    concrete_alphabet,
    enumerate_types,
    partition_from_type,
    permute_type,
    validate_type,
)
from .reductions import (
    ReductionData,
    ReductionError,
    RestrictionResult,
    apply_reduction,
    check_reduces,
    induced_branch_map,
    induced_word_map,
    restrict_colors,
    search_reduction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
