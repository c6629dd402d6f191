"""Construction, validation, and spectral analysis of mutually orthogonal
Sudoku Latin squares (MOSLS).

Subpackages by topic: gf (finite fields), designs (squares, families, and
the text format), construct (field and product families), graph (cell
graphs), spectra (exact/numeric spectra and closed forms), switching
(switching operations and spectral certificates), cli (command line).

`import mosls` loads none of them: a public name or subpackage is
imported on first access (PEP 562), so a program pays only for the layers
it uses.  Once a subpackage is loaded, by any import, its exports are bound
here as plain attributes, as an eager package would bind them.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

# subpackage -> the public names it exports here
_EXPORTS = {
    "construct": (
        "DEFAULT_ORDER_CAP",
        "OrderCapError",
        "composite_count",
        "composite_mosls",
        "field_square",
        "product",
    ),
    "designs": (
        "CheckFailed",
        "FormatError",
        "LatinSquare",
        "MoslsFamily",
        "SudokuShape",
        "are_orthogonal",
        "is_block_permutational",
        "is_latin",
        "is_sudoku",
        "load_family",
        "parse_family",
        "format_family",
        "save_family",
        "transpose",
    ),
    "gf": ("FieldError",),
    "graph": (
        "CellGraph",
        "EquitabilityError",
        "FamilyStructureError",
        "QuotientMatrix",
        "block_partition",
        "build_mols_graph",
        "build_mosls_graph",
        "commute_check",
        "quotient_matrix",
        "srg_check",
    ),
    "spectra": (
        "ClosedFormRangeError",
        "IntPolynomial",
        "SpectrumReport",
        "SrgParameterError",
        "certify_charpoly",
        "charpoly_exact",
        "mosls_graph_spectrum",
        "numeric_spectrum",
        "poly_product",
        "quotient_spectrum",
        "srg_spectrum",
    ),
    "switching": (
        "Certificate",
        "RowCycle",
        "SwitchError",
        "SwitchSpec",
        "SwitchValidityError",
        "TheoremPreconditionError",
        "nonisomorphism_certificate",
        "row_cycle_decompose",
        "row_cycle_switch",
        "sudoku_symbol_switch",
        "switched_charpoly_expected",
        "switched_quartic",
    ),
}
_SUBMODULES = ("cli", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        # the import system binds each subpackage here once it has loaded
        for export in _EXPORTS.get(name, ()):
            super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
