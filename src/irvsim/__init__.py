"""Simulation and verification toolkit for one-dimensional spatial elections.

Plurality and instant-runoff tabulation with a continuum electorate on
[0, 1], exclusion-zone solvers for symmetric voter distributions, exact
three-candidate winner densities, stick-breaking/Gumbel asymptotics, and
seeded Monte Carlo experiment drivers with a CLI.

The exports below are lazy: `import irvsim` loads no numpy, and the first
use of a name imports the submodule that defines it. That lets the CLI
module act before numpy loads (see cli.py).
"""

import importlib

# experiments records it in every manifest.
__version__ = "1.0.0"

_EXPORTS = {
    "asymptotics": (
        "GumbelExperimentResult",
        "circle_coupling_experiment",
        "gaps_from_uniform",
        "gumbel_cdf",
        "ks_statistic",
        "max_gap_experiment",
        "spacings",
        "winning_share_experiment",
    ),
    "dist": (
        "Monotonicity",
        "ShapeClass",
        "SymmetricBeta",
        "Tabulated",
        "Uniform",
        "VoterDistribution",
        "parse_dist_spec",
    ),
    "errors": (
        "CheckFailed",
        "DomainError",
        "InvalidProfileError",
        "IrvsimError",
        "NoZoneError",
        "UnconstructibleError",
        "UnsupportedRegimeError",
    ),
    "exactk3": (
        "PiecewisePolynomial",
        "density_k3",
        "irv_density_k3",
        "irv_tail_density",
        "order_statistic_win_prob",
        "plurality_density_k3",
    ),
    "experiments": (
        "RunManifest",
        "RunSpec",
        "run_beta_sweep",
        "run_scatter",
        "run_verify",
        "run_winner_histograms",
    ),
    "tabulate": (
        "Profile",
        "Rule",
        "TabulationOutcome",
        "irv_discrete",
        "irv_winner",
        "plurality_winner",
        "sample_ballots",
        "vote_shares",
    ),
    "zones": (
        "ExclusionZone",
        "Regime",
        "ZoneKind",
        "check_condition",
        "force_plurality_winner",
        "min_zone_numeric",
        "small_k_counterexample",
        "tightness_profile",
        "zone_closed_form",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules reachable as attributes, as `irvsim.zones`; each imports on first use.
_SUBMODULES = {*_EXPORTS, "chunks"}

__all__ = list(_OWNER)


def __getattr__(name):
    """Import submodule `name`, or the submodule that defines exported `name`
    and cache the value here."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
