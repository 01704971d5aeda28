"""Simulation and verification toolkit for one-dimensional spatial elections.

Plurality and instant-runoff tabulation with a continuum electorate on
[0, 1], exclusion-zone solvers for symmetric voter distributions, exact
three-candidate winner densities, stick-breaking/Gumbel asymptotics, and
seeded Monte Carlo experiment drivers with a CLI.
"""

# Set before the submodule imports: experiments records it in every manifest.
__version__ = "1.0.0"

from .asymptotics import (
    GumbelExperimentResult,
    circle_coupling_experiment,
    gaps_from_uniform,
    gumbel_cdf,
    ks_statistic,
    max_gap_experiment,
    spacings,
    winning_share_experiment,
)
from .dist import (
    Monotonicity,
    ShapeClass,
    SymmetricBeta,
    Tabulated,
    Uniform,
    VoterDistribution,
    parse_dist_spec,
)
from .errors import (
    CheckFailed,
    DomainError,
    InvalidProfileError,
    IrvsimError,
    NoZoneError,
    UnconstructibleError,
    UnsupportedRegimeError,
)
from .exactk3 import (
    PiecewisePolynomial,
    density_k3,
    irv_density_k3,
    irv_tail_density,
    order_statistic_win_prob,
    plurality_density_k3,
)
from .experiments import (
    RunManifest,
    RunSpec,
    run_beta_sweep,
    run_scatter,
    run_verify,
    run_winner_histograms,
)
from .tabulate import (
    Profile,
    Rule,
    TabulationOutcome,
    irv_discrete,
    irv_winner,
    plurality_winner,
    sample_ballots,
    vote_shares,
)
from .zones import (
    ExclusionZone,
    Regime,
    ZoneKind,
    check_condition,
    force_plurality_winner,
    min_zone_numeric,
    small_k_counterexample,
    tightness_profile,
    zone_closed_form,
)
