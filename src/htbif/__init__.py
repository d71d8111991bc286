"""htbif: steady-state multiplicity and bifurcation structure of a diffusive
saturating predator-prey model on the unit interval.

Modules
-------
errors      the typed exceptions and the degeneracy warning
model       parameters, coefficient functions, scalar kinetics and potential,
            the integer check every layer shares (whole)
quadrature  adaptive Gauss-Legendre panels over a batch of integrals, Simpson's
            rule
spectral    eigencurves, mode windows, constant-state Morse index, expansion
            closed forms
timemap     phase-plane half-period map, center limit, monotonicity certificate
nodal       exact n-crossing solution pairs (amplitudes by Brent's method),
            the labelled limit states, solution loops
linstab     Neumann operator, Sturm spectra, Morse indices, expansion checks
perturbed   coupled-system Newton solves, corrections, coexistence census
acceptance  the 15 acceptance criteria behind --seed-check
cli         command-line front end (CSV/JSON/SVG emission)

The package namespace re-exports names from errors, model, spectral,
timemap and nodal, which need numpy alone, so ``import htbif`` loads no
scipy module.  linstab and perturbed call LAPACK and load ``scipy.linalg``,
as do acceptance and cli, which import them; reach them by name
(``from htbif import perturbed``).
"""

from .errors import (
    ConvergenceError,
    DegenerateError,
    DegeneracyWarning,
    DomainError,
    GridMismatchError,
    InsufficientDataError,
    IntegrationError,
    NoSolutionError,
    PositivityError,
    QuadratureError,
)
from .model import (
    CoeffFn,
    ModelParams,
    Profile,
    kinetic_f,
    potential_F,
    potential_gap,
    w0_const,
)
from .spectral import (
    EigencurveRoot,
    eta2_closed_form,
    lambda_roots,
    morse_index_w0,
    mu_threshold,
    tau0,
    y1_closed_form,
)
from .timemap import (
    ABReport,
    PhasePlane,
    TimeMapSample,
    ab_certify,
    homoclinic_extent,
    monotone_check,
    time_map,
    time_map_center,
)
from .nodal import (
    LoopPoint,
    NodalSolution,
    bvp_residual,
    crossing_count,
    enumerate_solutions,
    nodal_pair,
    solve_amplitude,
    trace_loop,
)

__version__ = "0.1.0"
