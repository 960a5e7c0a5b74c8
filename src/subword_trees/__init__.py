"""Decision-tree depth analysis for binary subword-closed languages.

Languages are given by the finite antichain of their minimal forbidden
subsequences (or as the downward closure of a finite word set).  The package
classifies each language into one of five depth-growth classes, enumerates and
counts slices, computes the four exact depth measures by brute-force oracles,
and builds/validates the constructive recognition and membership trees.
"""

from .builders import (
    BlockRecognitionStrategy,
    BuilderPreconditionError,
    CertificateError,
    block_certificate,
    block_length,
    block_recognition_strategy,
    distinguishing_set_tree,
    membership_tree,
    tree_from_certificates,
)
from .dimensions import (
    CLASS_PREDICTIONS,
    INFINITY,
    DimensionReport,
    classify,
    finiteness_flags,
    heterogeneity_dimension,
    homogeneity_dimension,
    matching_classes,
    slice_size_bound,
)
from .language import (
    Language,
    LanguageSpecError,
    SliceAutomaton,
    all_words,
    bundled_language,
    bundled_path,
    canonicalize_antichain,
    closure_to_antichain,
    is_subsequence,
    load_language,
    parse_language_spec,
)
from .oracle import (
    CapExceeded,
    DepthProfile,
    ProfileRow,
    depth_profile,
    membership_certificate,
    membership_certificates,
    membership_depth_det,
    membership_depth_nondet,
    min_hitting_set,
    optimal_membership_tree,
    optimal_recognition_tree,
    recognition_certificates,
    recognition_depth_det,
    recognition_depth_nondet,
)
from .trees import (
    DET,
    NONDET,
    Ask,
    Branch,
    DecisionTree,
    Finish,
    Leaf,
    QueryStrategy,
    StrategyError,
    TreeFormatError,
    Violation,
    materialize_strategy,
    trace_strategy,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    validate_membership,
    validate_recognition,
    write_tree_dot,
    write_tree_json,
)

__version__ = "0.1.0"
