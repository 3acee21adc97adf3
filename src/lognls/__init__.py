"""Ground states and minimax level certificates for the logarithmic
Schrodinger equation -eps^2 Lap u + V(x) u = u log u^2 with saddle-like
potentials."""

from .energy import (
    EnergyBreakdown,
    SplitParams,
    energy,
    f1,
    f1_prime,
    f2,
    f2_prime,
    grad_L2,
    log_sobolev_slack,
    prox_f1,
)
from .grid import (
    Grid,
    GridField,
    dump_field,
    load_field,
)
from .minimax import (
    CertificateConfig,
    LevelCertificate,
    barycenter,
    barycenter_zero_finder,
    certificate,
    choose_r,
    level_d,
    level_sup_x,
    level_theta,
    path_levels,
    phi_path,
    sweep_eps,
)
from .nehari import (
    NehariSolution,
    SolverConfig,
    gausson,
    ground_state,
    m_closed_form,
    nehari_scale,
)
from .potential import (
    PotentialSpec,
    check_V1,
    check_V2,
    check_V4,
    constant_potential,
    expression_potential,
    model_saddle,
    v3_diagnostic,
)

__version__ = "0.1.0"
