"""Desk-scale toolkit for spectral truncation of multipartite quantum states,
Gibbs entropy ceilings, entropy continuity bounds, and the relative entropy
of entanglement across partitions."""

from .qmat import (
    DensityOp,
    DimSig,
    SpectralDecomp,
    eigh,
    kron_density,
    load_state,
    partial_trace,
    random_density,
    random_pure,
    save_state,
    top_projector,
    trace_distance,
)
from .entropy import (
    binary_entropy,
    conditional_entropy,
    g_entropy,
    mutual_information,
    relative_entropy,
    von_neumann_entropy,
)
from .spectra import (
    FAWitness,
    HamiltonianSpec,
    SpectrumFamily,
    build_fa_witness,
    check_entropy_criterion,
    check_fa_sufficient,
    parse_family,
    truncate_to_density,
    zeta_limit,
)
from .gibbs import (
    BoundParams,
    GibbsSolution,
    check_asymptotic_condition,
    class_membership_check,
    fcb_bound,
    max_entropy,
    max_entropy_multi,
    solve_beta,
    solve_beta_multi,
    squared_hamiltonian_check,
)
from .approx import (
    ApproxReport,
    BoundTemplate,
    TruncationPlan,
    envelope_from_families,
    energy_growth_check,
    gentle_bound_check,
    projection_mass_check,
    qmi_function,
    truncation_channels,
    truncation_experiment,
    truncation_map,
)
from .relent import (
    EnergyConstraint,
    ERSolution,
    Partition,
    SepAtom,
    SolverOpts,
    energy_sweep,
    product_lmo,
    regularized_estimates,
    relative_entropy_entanglement,
    sequence_convergence_demo,
    tensor_power_regrouped,
    truncation_limit_experiment,
    verify_er_inequalities,
)
from .fixtures import FIXTURES, FIXTURE_VERSION, get_fixture

__version__ = "0.1.0"
