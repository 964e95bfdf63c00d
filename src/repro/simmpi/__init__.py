"""Simulated SPMD/MPI runtime: threaded communicator, launcher, and reduction
operators.

Drop-in shaped like mpi4py's pickle-based API (``comm.send`` / ``comm.recv``
/ ``comm.bcast`` / ...) so the PDC transport code reads like the real thing.
"""

from .communicator import ANY_SOURCE, ANY_TAG, CommStats, Communicator, CommWorld, Request
from .launcher import run_spmd
from .reduceops import CONCAT, LAND, LOR, MAX, MIN, PROD, SUM, reduce_sequence

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CommStats",
    "Communicator",
    "CommWorld",
    "Request",
    "run_spmd",
    "CONCAT",
    "LAND",
    "LOR",
    "MAX",
    "MIN",
    "PROD",
    "SUM",
    "reduce_sequence",
]
