"""Desk-scale PL topology: epsilon-subdivision cellulations, point-inverse
contractibility, controlled homotopy inverses and open-cone control."""

from .cellulation import (
    Cellulation,
    EpsilonRangeError,
    Flag,
    FlagCell,
    InversionError,
    build_cellulation,
    comesh_of,
    enumerate_flags,
    gamma_vertex,
)
from .complexes import (
    MalformedInputError,
    NotFoundError,
    Point,
    Simplex,
    SimplicialComplex,
    barycenter,
    barycentric_subdivision,
    canonical,
    closure_complex,
    combine_points,
    count_chains,
    make_point,
    subdivision_points,
    vertex_point,
)
from .cone import (
    BoundedEquivalenceData,
    ConePoint,
    alpha_schedule,
    assemble_bounded_equivalence,
    complex_metric,
    cone_distance,
    coning_map,
    slice_equivalence,
)
from .contract import (
    CertificateMismatchError,
    CollapseSequence,
    HomologyProfile,
    NotContractibleError,
    Verdict,
    check_collapse,
    contractibility_verdict,
    contraction_from_collapse,
    greedy_collapse,
    homology,
    smith_diagonal,
)
from .evaluators import Homotopy, PLEvaluator, concatenate
from .homotopies import (
    CannotConstructError,
    TrivialFamily,
    ControlReport,
    ControlledFamily,
    FlagMap,
    LiftMismatchError,
    approximate_lift,
    build_family,
    build_gamma_map,
    build_h1,
    build_h2,
    build_inverse,
    derive_contraction,
    epsilon_schedule,
    lift_discrepancy,
    measure_control,
    sample_points,
    star_clearance,
    straightline_homotopy,
)
from .ioutil import FileFormatError, load_complex, load_map, load_track, parse_point, save_complex, save_map
from .maps import (
    FiberComplex,
    IsoCertificate,
    JoinTrivialization,
    ProductDecompositionError,
    SimplicialMap,
    VacuousRetractionError,
    build_star_retraction,
    evaluate_map,
    fiber_join,
    fiber_over_barycenter,
    fiber_project,
    fiber_split,
    identity_map,
    surjectivity_check,
    validate_map,
    verify_product_decomposition,
)
from .metrics import MetricReport, distance, mesh_comesh, min_distance_to_simplex, simplex_metrics
from .svgout import UnsupportedDimensionError, census_report, emit_svg
from .verify import VerificationReport, run_verify
