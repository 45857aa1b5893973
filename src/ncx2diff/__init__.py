"""Noncentral chi-square difference distribution and sums of products of
correlated normals: series densities, characteristic functions, moments and
cumulants, exact negativity probabilities, deterministic samplers, and Stein
operator checks.
"""

from .density import (
    cf_inversion_pdf,
    char_fn_diff,
    char_fn_ncx2,
    char_fn_product,
    char_fn_sum,
    ncx2_pdf,
    ncx2diff_pdf,
    singularity_constant,
)
from .errors import (
    DomainError,
    InversionAccuracyError,
    Ncx2DiffError,
    NonConvergenceError,
    SingularPointError,
    UnsupportedParameterError,
)
from .moments import (
    MomentSet,
    diff_cumulant,
    diff_moment,
    diff_moment_set,
    ncx2_cumulant,
    ncx2_moment,
    sum_cumulant,
    sum_moment,
    sum_moment_set,
)
from .params import (
    ChiSqDiffParams,
    ChiSqDiffRepr,
    ProductNormalParams,
    from_chisq_diff,
    to_chisq_diff,
)
from .probability import (
    NegativityResult,
    prob_nonpositive_central,
    prob_nonpositive_diff,
    prob_nonpositive_sum,
    table1,
)
from .sampling import (
    SampleBatch,
    ks_two_sample,
    sample_diff,
    sample_ncx2,
    sample_product_definitional,
    sample_sum_via_representation,
)
from .specfun import DEFAULT_CONTROL, SeriesControl
from .stein import (
    TestFunction,
    apply_a1,
    apply_a2,
    apply_a3,
    builtin_test_functions,
    stein_expectation,
)

__version__ = "0.1.0"
