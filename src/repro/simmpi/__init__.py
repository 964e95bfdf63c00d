"""Simulated SPMD/MPI runtime: threaded communicator, launcher, and the
reduction operator.

Shaped like mpi4py's pickle-based API (``comm.send`` / ``comm.recv`` /
``comm.bcast`` / ``comm.gather`` / ``comm.reduce``) so the PDC transport
code reads like the real thing.
"""

from .communicator import ANY_SOURCE, ANY_TAG, CommStats, Communicator, CommWorld
from .launcher import run_spmd
from .reduceops import SUM, reduce_sequence

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CommStats",
    "Communicator",
    "CommWorld",
    "run_spmd",
    "SUM",
    "reduce_sequence",
]
