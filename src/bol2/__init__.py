"""Symbolic computation in the free Bol loop of exponent two.

Layers, bottom up: :mod:`.words` (binary words, spines, transposes, order),
:mod:`.normalize` (square-collapsing normal forms), :mod:`.basis` (candidate
and basis membership, carrier enumeration), :mod:`.loop` (canonical
palindromic forms and the loop operations), :mod:`.verify` (identity suites
and the group-action harness), :mod:`.cli` (command line front end).
"""

from .basis import (
    SHARED_CACHE,
    basis_by_fixpoint,
    enumerate_basis,
    enumerate_candidates,
    enumerate_loop_words,
    enumerate_reduced,
    in_basis,
    in_loop,
    is_candidate,
    why_not_in_loop,
)
from .cli import BudgetExceeded
from .loop import (
    PalindromicForm,
    ldiv,
    mul,
    rdiv,
    symmetric_form,
)
from .normalize import (
    InternalInvariantError,
    is_reduced,
    normal_form,
    normal_form_chain,
)
from .verify import CheckReport, SampleSpec, check_identity_suite
from .words import (
    IDENTITY,
    Alphabet,
    Letter,
    Product,
    Word,
    WordSyntaxError,
    compare,
    fine_factors,
    is_symmetric,
    left_assoc,
    parse,
    render,
    spine_factors,
    transpose,
)

__version__ = "0.1.0"
