"""Exact low-degree cohomology for grading-restricted vertex algebras.

Everything is computed over exact scalars — arbitrary-precision rationals and
first-order jets, in one direction (the dual numbers) for first-order families
and in many for one-pass cocycle solves — at desk scale: small labeled bases,
sparse tables, deterministic reports.  The pieces:

* ``scalars`` / ``linalg``: the scalar rings and a sparse exact solver with
  provenance-tagged rows;
* ``spaces``: graded spaces, graded maps, mode families, the weight rule, and
  the exact/truncated tier distinction;
* ``axioms``: the instance-by-instance checker with explicit windows and
  pass/fail/skip accounting;
* ``cohomology``: derivations (degree one) and square-zero classes (degree
  two) from one run of the checker's residual over jet scalars;
* ``extensions``: square-zero extensions, first-order deformations over the
  dual numbers, and equivalence certificates, kept in exact bijection;
* ``presets``: worked examples, from one-dimensional to a truncated free boson;
* ``specfile`` / ``cli``: a plain-text interchange format and a command-line
  front end with machine-readable reports.
"""

from .scalars import (
    JetScalar,
    Rational,
    binom,
    format_rational,
    parse_rational,
)
from .linalg import (
    SubspaceNotContained,
    quotient_dim,
    rref,
    solve_affine,
)
from .spaces import (
    GradedMap,
    GradedSpace,
    ModeFamily,
    NoVacuum,
    TruncationBreach,
    VAModule,
    VacuumWrongWeight,
    VertexAlgebra,
    WeightRuleViolation,
    build_vertex_algebra,
    exp_T,
    mode_apply,
    skew_mode,
)
from .axioms import (
    AxiomReport,
    CreationFailed,
    check_all,
    check_creation,
    check_identity,
    check_jacobi,
    check_module,
    check_skew_symmetry,
    check_translation,
    intrinsic_T,
    translation_map,
)
from .cohomology import (
    CohomologyResult,
    ModuleAxiomsFail,
    NotACocycle,
    TwoCochain,
    VacuumNotKilled,
    coboundary,
    cochain_slots,
    cocycle_residual,
    compute_der,
    compute_h2,
    compute_z2,
    derivation_system,
    is_coboundary,
    vacuum_killing_basis,
)
from .extensions import (
    Deformation,
    Equivalence,
    NotVerified,
    SquareZeroExtension,
    build_deformation,
    build_extension,
    check_equivalence_deformations,
    check_equivalence_extensions,
    deformation_to_extension,
    extension_to_cocycle,
    verify_extension,
)
from .presets import (
    CommDiffAlgebraSpec,
    NotAssociative,
    NotLeibniz,
    PRESETS,
    WeightMismatch,
    adjoint_module,
    build_preset,
    from_commutative_algebra,
    truncated_free_boson,
)
from .specfile import (
    ParseError,
    SpecFile,
    dump_spec,
    parse_spec,
    spec_from_objects,
    to_algebra,
    to_cochain,
    to_module,
)

__version__ = "0.1.0"
