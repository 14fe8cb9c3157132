"""Symbolic computation in the free Bol loop of exponent two.

Layers, bottom up: :mod:`.words` (binary words, spines, transposes, order),
:mod:`.normalize` (square-collapsing normal forms), :mod:`.basis` (candidate
and basis membership, carrier enumeration), :mod:`.loop` (canonical
palindromic forms and the loop operations), :mod:`.verify` (identity suites
and the group-action harness), :mod:`.cli` (command line front end).

The public names are the layers' ``__all__``, joined in that order: a name
is public exactly when its layer lists it.
"""

from . import basis, cli, loop, normalize, verify, words
from .words import *
from .normalize import *
from .basis import *
from .loop import *
from .verify import *
from .cli import *

__all__ = [
    *words.__all__,
    *normalize.__all__,
    *basis.__all__,
    *loop.__all__,
    *verify.__all__,
    *cli.__all__,
]

__version__ = "0.1.0"
