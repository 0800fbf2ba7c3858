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
    TorusConfiguration,
    apply_rule,
    build_elementary,
    build_linear,
    lift_second_order,
)
from .noise import NoiseModel, additive_noise, apply_noise, decompose, kappa, local_kernel
from .entropy import (
    WindowDistribution,
    deficiency,
    entropy,
    estimate_entropy,
    pinsker_bound,
    tv_distance,
    tv_to_uniform,
)
from .analysis import (
    analyze_rule,
    build_de_bruijn,
    preimage_count_oracle,
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
    empirical_marginal,
    estimate_mixing_time,
    mixing_scan,
    sample_trajectory,
)
from .bounds import (
    BoundReport,
    bootstrap_layout,
    check_block_superadditivity,
    check_noise_lemma,
    equilibrium_constants,
    fit_decay_constants,
    main_theorem_bound,
)
from .circuits import (
    ReversibleNetwork,
    alternating_cnot_network,
    chain_mixing_time,
    check_finite_bound,
    evolve_chain_exact,
    worst_case_distance,
)
