"""Energy-density fluctuations of driven quantum systems.

Exact closed forms for transversally driven collective spins, a 2^N lattice
oracle that backs them, Magnus-expansion diagnostics, two-Hamiltonian
uncertainty bounds, domain-wall/Dicke entanglement combinatorics, and the
smeared-observable phenomenology (erfc viscosity collapse, smeared Green's
functions and thermal radiance) that a broadened intensive parameter implies.

Unit convention: hbar = k_B = 1 everywhere in the library.  Formulas quoted
with explicit hbar map onto these by dropping the hbar factors (m and S carry
no hbar; fields and temperatures are energies; rates are energies per unit
time).  SI conversion happens only at the CLI boundary where noted.
"""

__version__ = "0.1.0"

from .bounds import BoundReport, equilibrium_rate_threshold, uncertainty_check
from .collective_spin import (
    DriveSchedule,
    EmpiricalDistribution,
    SpinSector,
    analytic_energy_mean,
    analytic_sigma,
    arcsine_cdf,
    arcsine_density,
    central_moment,
    characteristic_value,
    eigenweight_distribution,
    ks_distance_to_arcsine,
    wigner_d_column,
)
from .exact_lattice import (
    CorrelatorReport,
    LatticeSpec,
    MatrixOperator,
    QuantumState,
    bose_dual,
    build_spin_hamiltonian,
    build_transverse_field,
    connected_pair_correlators,
    dicke_state,
    eigenbasis_distribution,
    energy_density_sigma,
    evolve_state,
    propagator,
)
from .ising_entangle import (
    DickeSplit,
    DomainWallEnsemble,
    dicke_entanglement,
    domain_wall_correlator,
    saddle_entropy,
    spin_multiplicities,
    spin_multiplicity,
    spin_multiplicity_log,
    temperature_energy_maps,
)
from .magnus import (
    MagnusTerms,
    VarianceExpansion,
    magnus_error,
    magnus_terms,
    variance_expansion,
    variance_rate,
)
from .nonequil_observables import (
    CollapseFit,
    DeltaKernel,
    EmpiricalKernel,
    GaussianKernel,
    SmearKernel,
    ViscosityDataset,
    ViscosityRecord,
    fit_collapse,
    glass_sigma,
    kernel_average,
    log10_viscosity_predict,
    master_curve,
    moment_compare,
    planck_radiance,
    smeared_green,
    smeared_planck,
    spectral_weight,
    viscosity_predict,
)
from .special import bessel_j0, erfc, erfcx, log_erfc
