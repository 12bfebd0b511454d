"""catent: distance geometry and algebra on categorical datasets.

Columns of a categorical dataset become points of a finite distance
space under ``d = 1 - SU`` (symmetric uncertainty) and elements of a
commutative monoid under the row-wise joint operation.  The package
computes the quantities and ships executable validators for the
claimed laws; the validators are faithful, and one of their findings
is that d is a semimetric, not a metric (see ``catent.metric``).
"""

from types import ModuleType as _Module

from .model import (
    CatentError,
    CategoricalVariable,
    ContingencyTable,
    Dataset,
    Partition,
    StructuralError,
    canonical_classes,
    contingency,
    format_label,
    induced_partition,
    is_coarser,
    join,
    trivial_partition,
)
from .entropy import (
    Bits,
    LawClause,
    LawReport,
    TOLERANCE,
    UndefinedRatioError,
    check_conditional_entropy_laws,
    conditional_entropy,
    entropic_ratio,
    entropy,
    joint_entropy,
    mutual_information,
    symmetric_uncertainty,
)
from .metric import (
    AxiomCheck,
    AxiomReport,
    DistanceMatrix,
    check_distance_axioms,
    check_entropy_laws,
    check_similarity_axioms,
    cross_check,
    distance_matrix,
    merge_reports,
    nondiscreteness_demo,
    partition_distance,
    su_distance,
)
from .algebra import (
    are_indiscernible,
    check_contractivity,
    check_monoid_laws,
    identity_variable,
    joint,
    relabel,
)
from .randgen import MODES, ConfigError, GenConfig, SplitMix64, gen_dataset
from .ingest import (
    CsvSpec,
    INDISCERNIBLES,
    INTERNSHIP,
    ParseError,
    fixture_path,
    load_csv,
    load_fixture,
    load_matrix,
    save_csv,
    save_matrix,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are not names of the API
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
