"""Crossover designs under random subject dropout.

Construct universally optimal (or near-optimal) crossover designs for a
given dropout mechanism, and evaluate arbitrary designs by expected
optimality criteria, criterion variance, and efficiency lower bounds.
"""

from .design_search import (
    ApproximateDesign,
    ExactDesign,
    OptimalitySystem,
    SearchReport,
    build_system,
    exact_search,
    symmetric_solve,
    verify_approximate,
)
from .dropout_model import DropoutMechanism, load_mechanism, new_mechanism
from .evaluation import (
    EvaluationReport,
    compare,
    evaluate_phi0,
    evaluate_reports,
    sweep_theta,
    theta_mechanism,
)
from .fixtures import FIXTURES, get_fixture
from .information import criterion, surrogate_info
from .q_solver import (
    OptimalityCertificate,
    QCoefficients,
    closed_form,
    q_coeffs,
    solve_minimax,
)
from .sequences import SymmetricBlock

__version__ = "0.1.0"
