"""Solvers and benchmarks for stochastic absolute value equations
A(w) x - |x| = b(w)."""

from .analytic import *
from .bench import *
from .core import *
from .ev import *
from .problems import *
from .sampling import *
from .solver import *

__version__ = "0.1.0"
