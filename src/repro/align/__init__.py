"""Alignment substrate: scoring, reference DP, blocks, banded, traceback."""

from .antidiagonal import nw_score, sw_align
from .banded import band_for_error_rate, banded_sw_align
from .batch_traceback import traceback_batch, traceback_one
from .blocks import BLOCK, BlockInputs, BlockOutputs, compute_blocks, pad_to_blocks
from .grid import JobGeometry, grid_sweep, job_geometry
from .matrix import AlignmentResult, DPMatrices, full_matrices
from .needleman_wunsch import nw_score_slow
from .parallel import parallel_grid_sweep
from .pruning import PrunedSweepResult, pruned_grid_sweep
from .scoring import NEG_INF, PAD, ScoringScheme, bwa_mem_scoring
from .semiglobal import SemiglobalResult, semiglobal_align
from .smith_waterman import sw_align_slow, sw_score, sw_traceback
from .traceback import Cigar, Traceback, align_with_traceback, traceback
from .xdrop import XDropResult, xdrop_extend

__all__ = [
    "ScoringScheme", "bwa_mem_scoring", "PAD", "NEG_INF",
    "AlignmentResult", "DPMatrices", "full_matrices",
    "sw_align", "sw_score", "sw_traceback", "sw_align_slow",
    "nw_score", "nw_score_slow",
    "BLOCK", "BlockInputs", "BlockOutputs", "compute_blocks", "pad_to_blocks",
    "banded_sw_align", "band_for_error_rate",
    "grid_sweep", "JobGeometry", "job_geometry", "parallel_grid_sweep",
    "pruned_grid_sweep", "PrunedSweepResult",
    "Cigar", "Traceback", "traceback", "align_with_traceback",
    "xdrop_extend", "XDropResult",
    "semiglobal_align", "SemiglobalResult",
    "traceback_batch", "traceback_one",
]
