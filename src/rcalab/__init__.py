"""rcalab: a desk-scale lab for surjective/reversible cellular automata under
positive additive noise: exact window-law evolution, Monte Carlo trajectory
sampling, decision procedures, and checkers for the entropy/ergodicity bounds.
"""

__version__ = "0.1.0"

from .lattice import (
    Alphabet,
    CellSet,
    diameter,
    hypercube,
    moore,
    moore_boundary,
)
from .rules import (
    LocalRule,
    build_elementary,
    build_linear,
    lift_second_order,
)
from .noise import NoiseModel, additive_noise, apply_noise, kappa, local_kernel
# the function entropy is not re-exported: it would shadow the module
from .entropy import (
    WindowDistribution,
    deficiency,
    estimate_entropy,
    pinsker_bound,
    tv_to_uniform,
)
from .analysis import (
    analyze_rule,
    build_de_bruijn,
    test_injective,
    test_surjective,
)
from .exact import (
    ConeProblem,
    check_evolution_bound,
    dependence_cone,
    exact_window_marginal,
    leakage_constants,
)
from .montecarlo import (
    SimulationPlan,
    adversarial_family,
    estimate_mixing_time,
    mixing_scan,
    sample_trajectory,
)
from .bounds import (
    BoundReport,
    bootstrap_layout,
    check_block_superadditivity,
    equilibrium_constants,
    main_theorem_bound,
)
from .circuits import (
    ReversibleNetwork,
    alternating_cnot_network,
    check_finite_bound,
    evolve_chain_exact,
    worst_case_curve,
)
