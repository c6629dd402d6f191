"""Construction, validation, and spectral analysis of mutually orthogonal
Sudoku Latin squares (MOSLS).

Subpackages by topic: gf (finite fields), designs (squares, families, and
the text format), construct (field and product families), graph (cell
graphs), spectra (exact/numeric spectra and closed forms), switching
(switching operations and spectral certificates), cli (command line).
"""

from .construct import (
    DEFAULT_ORDER_CAP,
    OrderCapError,
    composite_count,
    composite_mosls,
    field_square,
    product,
)
from .designs import (
    Block,
    FormatError,
    LatinSquare,
    MoslsFamily,
    SudokuShape,
    are_orthogonal,
    block,
    block_map_factorization,
    family_pairwise_orthogonal,
    is_block_permutational,
    is_latin,
    is_sudoku,
    load_family,
    parse_family,
    format_family,
    save_family,
    transpose,
)
from .gf import FieldError
from .graph import (
    CellGraph,
    EquitabilityError,
    FamilyStructureError,
    QuotientMatrix,
    block_partition,
    build_mols_graph,
    build_mosls_graph,
    commute_check,
    quotient_matrix,
    srg_check,
)
from .spectra import (
    ClosedFormRangeError,
    ConvergenceError,
    IntPolynomial,
    SpectrumReport,
    SrgParameterError,
    certify_charpoly,
    charpoly_exact,
    cospectral,
    jacobi_eigenvalues,
    mosls_graph_spectrum,
    numeric_spectrum,
    poly_product,
    quotient_spectrum,
    srg_spectrum,
)
from .switching import (
    Certificate,
    RowCycle,
    SwitchError,
    SwitchSpec,
    SwitchValidityError,
    TheoremPreconditionError,
    nonisomorphism_certificate,
    row_cycle_decompose,
    row_cycle_switch,
    sudoku_symbol_switch,
    switched_charpoly_expected,
    switched_quartic,
)

__version__ = "0.1.0"
