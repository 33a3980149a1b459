"""rcpotts: exact and Monte Carlo computations for random-cluster, Potts
and Ising models and their Tutte-polynomial identities on finite graphs."""

from .graphs import (
    EnumerationCapExceeded,
    Multigraph,
    canonical_key,
    complete,
    component_count,
    contract,
    cycle,
    delete,
    is_connected,
    is_even,
    path,
    rank_corank,
    triangle,
)
from .polynomials import (
    BivariatePolynomial,
    TutteCache,
    chromatic_poly,
    count_proper_colourings,
    count_spanning_trees,
    eval_poly,
    flow_poly,
    multivariate_tutte,
    rank_gen_poly,
    tutte_from_rank_gen,
    tutte_poly,
)
from .measures import (
    MeasureTable,
    PottsParams,
    RCParams,
    ground_states,
    potts_partition,
    potts_partition_exact,
    potts_two_point,
    potts_two_point_exact,
    rc_connection_prob,
    rc_measure_table,
    rc_partition,
    tutte_rc_identity,
    tutte_rc_params,
    verify_corr_conn,
    verify_partition_identity,
    zero_temperature_check,
)
from .coupling import (
    JointConfig,
    SamplerConfig,
    bonds_given_spins,
    estimate_two_point,
    joint_table,
    kernel_step_distribution,
    make_rng,
    spins_given_bonds,
    sw_sample,
)
from .flows import (
    OrientedMultigraph,
    PoissonGraphSample,
    compflow_identity,
    count_flows,
    even_ratio_mc,
    flow_connection_mc,
    flow_correlation_mc,
    flow_count_multiplicities,
    orientation_invariance_check,
    poisson_sample,
    simon_check,
)
from .association import (
    box_product,
    comparison_check,
    conjecture_forest_scan,
    enumerate_increasing_events,
    fkg_check,
    negative_association_checks,
    q_to_zero_limit_check,
    stochastic_dominance,
    uniform_substructure_measure,
    ust_feder_mihail_check,
)
from .asymptotics import (
    convergence_report,
    empirical_rate,
    eta,
    g_func,
    lambda_c,
    theta,
)

__version__ = "0.1.0"
