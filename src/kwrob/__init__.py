"""Single-item auctions under k-wise independent priors: adversarial
constructions, exact and Monte Carlo revenue evaluation, closed-form
robustness bounds, and worst-case prior search by LP."""

from .marginals import (
    DiscretePMF,
    DomainError,
    EqualRevenue,
    IronedCurve,
    Marginal,
    RevenueQuantileCurve,
    ShiftedEqualRevenue,
    Uniform,
    check_regular,
    iron_discrete,
    regular_quantile_bound,
    revenue_curve,
)
from .mechanisms import (
    AnonymousReserve,
    Mechanism,
    Myerson,
    Outcome,
    run_mechanism,
)
from .priors import (
    Branch,
    Conditioned,
    FixedValue,
    JointPrior,
    KwiseReport,
    MixturePrior,
    ProductPrior,
    TablePrior,
    discretize,
    myerson_counterexample,
    natural_grids,
    q1q2_from_qvec,
    sample,
    threshold_probs,
    uniform_q2_counterexample,
    verify_kwise,
)
from .revenue import (
    ExAnteSummary,
    RevenueEstimate,
    ThreeWiseReport,
    ar_revenue_integral,
    check_3wise_inequalities,
    ex_ante_level,
    mechanism_payments,
    myerson_ind_revenue,
    posted_price_lower_bound,
    revenue_exact,
    revenue_exact_table,
    revenue_mc,
)
from .bounds import (
    ARCertificate,
    BoundReport,
    case2a_integral,
    certify_ar_constant,
    certify_iid_constant,
    lb1,
    lb2,
    q2_ratio_lower_bound,
    q2_ind_near_bound,
    q2_ind_far_bound,
    q2_ind_far_threshold,
    tail_core_case1,
    tail_core_case2b,
    tail_upper,
    q1_count_bound,
)
from .lp import KwisePolytope, WorstCaseSolution, build_polytope, minimize_event_prob, minimize_revenue

__version__ = "0.1.0"
