"""Higher-order derivatives of the matrix permanent and of characteristic
polynomial coefficients, with exact derivative norms and perturbation bounds.
"""

from .multiindex import (
    MultiIndex,
    complement,
    enumerate_strict,
    enumerate_weak,
    index_weight,
    multiplicity,
    permutations_of,
)
from .scalars import ExactComplex, exact_matrix, is_exact, to_complex
from .permanent import (
    ReplacementSpec,
    column_replace,
    laplace_per,
    minor_complement,
    padj,
    per,
    per_naive,
    sigma_columns,
    submatrix,
)
from .tensor import (
    TensorBlock,
    antisym_power,
    det,
    mixed_antisym_projected,
    mixed_sym_projected,
    sym_power,
    sym_power_projected,
    tilde_antisym_block,
    tilde_sym_block,
)
from .derivatives import (
    dkper,
    dkper_columns,
    dkper_minors,
    dkper_tensor,
    dper,
)
from .charpoly import (
    CharPolyCoefficients,
    PrincipalRestriction,
    charpoly_all,
    dk_gr,
    dk_gr_columns,
    dk_gr_minors,
    dk_gr_tensor,
    g_r,
)
from .norms import (
    BoundReport,
    SingularSpectrum,
    dk_gr_norm_exact,
    dkper_norm_bound,
    elementary_symmetric,
    gr_perturb_bound,
    gr_perturb_bound_weak,
    operator_norm,
    per_perturb_bound,
    singular_values,
    svd,
    trace_norm,
    trace_norm_witness,
)
from .oracle import faddeev_leverrier, finite_diff, mixed_partial_interp

__version__ = "0.1.0"
