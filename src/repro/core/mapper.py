"""ReadMapper: the end-to-end seed-and-extend API.

The paper's intro motivates SALoBa with whole read-mapping pipelines
(BWA-MEM on GRCh38); this module is the downstream-user view of the
library — hand it a reference and reads, get mapping positions and
scores back, with the extension stage running through SALoBa and its
modeled GPU time reported:

    mapper = ReadMapper(reference, device=RTX3090)
    report = mapper.map_reads(reads)
    report.mappings[0].ref_start, report.extension_ms

Seeding (FM-index SMEMs + chaining) runs on the "CPU" (plain Python),
extension jobs are batched through :class:`SalobaKernel` — the same
division of labour as GASAL2-accelerated BWA-MEM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..align.scoring import ScoringScheme
from ..baselines.base import ExtensionJob
from ..engine.base import resolve_engine
from ..gpusim.device import GTX1650, DeviceProfile
from ..gpusim.kernel import LaunchTiming
from ..resilience.errors import AlignmentError, JobRejected
from ..resilience.faults import FaultPlan
from ..resilience.isolation import run_isolated
from ..resilience.report import FailureRecord, FailureReport
from ..resilience.retry import RetryPolicy
from ..seeding.chaining import Chain, chain_seeds
from ..seeding.jobs import extension_jobs_for_chain
from ..seeding.smem import SmemSeeder
from ..seqs.alphabet import reverse_complement
from .config import SalobaConfig
from .kernel import SalobaKernel

__all__ = [
    "ReadMapping", "MapperReport", "PairMapping", "ReadMapper",
    "PairedReadMapper", "Orientation", "orient_read",
]


@dataclass(frozen=True)
class ReadMapping:
    """Mapping call for one read.

    Attributes
    ----------
    read_index:
        Position in the input batch.
    mapped:
        Whether any chain anchored the read.
    ref_start:
        Estimated 0-based mapping position (chain diagonal), -1 when
        unmapped.
    reverse:
        True when the read mapped on the reverse strand.
    seed_score:
        Total exactly-matching bases in the winning chain.
    extension_score:
        Sum of the extension kernel's scores for this read's jobs.
    total_score:
        ``seed_score + extension_score`` — the mapper's ranking key.
    """

    read_index: int
    mapped: bool
    ref_start: int
    reverse: bool
    seed_score: int
    extension_score: int

    @property
    def total_score(self) -> int:
        return self.seed_score + self.extension_score


@dataclass(frozen=True)
class MapperReport:
    """Batch mapping output plus the modeled extension timing.

    ``failures`` records quarantined work by **read index**: reads
    whose seeding or extension jobs failed terminally (they still get
    a mapping entry — per-read isolation means one bad read never
    aborts the batch).
    """

    mappings: list[ReadMapping]
    timing: LaunchTiming | None
    n_jobs: int
    failures: FailureReport | None = None

    @property
    def extension_ms(self) -> float:
        return self.timing.total_ms if self.timing else 0.0

    @property
    def mapped_fraction(self) -> float:
        if not self.mappings:
            return 0.0
        return sum(m.mapped for m in self.mappings) / len(self.mappings)


@dataclass(frozen=True)
class Orientation:
    """Strand decision for one read: which chain anchors it, and how.

    Attributes
    ----------
    chain:
        The winning chain (``None`` when neither strand seeds).
    oriented:
        The read codes on the winning strand (reverse-complemented
        for reverse-strand hits).
    reverse:
        True when the reverse strand won.
    n_seeds:
        Total seeds examined across both strands — the workload
        quantity the pipeline's host-side cost model charges for.
    """

    chain: Chain | None
    oriented: np.ndarray
    reverse: bool
    n_seeds: int


def orient_read(seeder: SmemSeeder, codes: np.ndarray) -> Orientation:
    """Seed both strands of *codes* and pick the better chain.

    The forward strand wins ties (``fwd.score >= rev.score``), exactly
    as :class:`ReadMapper` has always decided — this helper exists so
    the streaming pipeline (:mod:`repro.pipeline`) shares one strand
    decision with the batch mapper instead of re-implementing it.
    """
    fwd_seeds = seeder.seed(codes)
    fwd_chains = chain_seeds(fwd_seeds)
    fwd = fwd_chains[0] if fwd_chains else None
    rc = reverse_complement(codes)
    rev_seeds = seeder.seed(rc)
    rev_chains = chain_seeds(rev_seeds)
    rev = rev_chains[0] if rev_chains else None
    n_seeds = len(fwd_seeds) + len(rev_seeds)
    if fwd is None and rev is None:
        return Orientation(None, codes, False, n_seeds)
    if rev is None or (fwd is not None and fwd.score >= rev.score):
        return Orientation(fwd, codes, False, n_seeds)
    return Orientation(rev, rc, True, n_seeds)


class ReadMapper:
    """Seed-and-extend read mapper over a fixed reference."""

    def __init__(
        self,
        reference: np.ndarray,
        *,
        scoring: ScoringScheme | None = None,
        config: SalobaConfig | None = None,
        device: DeviceProfile = GTX1650,
        min_seed_len: int = 19,
        max_hits: int = 16,
        gap_margin: int = 150,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        deadline_ms: float | None = None,
    ):
        self.reference = np.asarray(reference, dtype=np.uint8)
        self.scoring = scoring or ScoringScheme()
        self.device = device
        self.kernel = SalobaKernel(self.scoring, config or SalobaConfig(),
                                   fault_plan=fault_plan)
        self.seeder = SmemSeeder(self.reference, min_seed_len=min_seed_len, max_hits=max_hits)
        self.gap_margin = gap_margin
        self.retry_policy = retry_policy or RetryPolicy()
        self.deadline_ms = deadline_ms

    # ----- per-read seeding ------------------------------------------------

    def _best_chain(self, codes: np.ndarray) -> Chain | None:
        seeds = self.seeder.seed(codes)
        chains = chain_seeds(seeds)
        return chains[0] if chains else None

    def _orient(self, codes: np.ndarray) -> tuple[Chain | None, np.ndarray, bool]:
        """Pick the strand whose best chain scores higher."""
        o = orient_read(self.seeder, codes)
        return o.chain, o.oriented, o.reverse

    # ----- batch mapping -----------------------------------------------------

    def map_reads(self, reads: list[np.ndarray], *, compute_scores: bool = True
                  ) -> MapperReport:
        """Map a batch of reads; extension runs as one kernel batch.

        Per-read isolation: a read whose codes are invalid or whose
        seeding blows up is reported unmapped (with a ``failures``
        entry) instead of aborting the batch, and extension jobs run
        through the resilient executor — faulted jobs are retried,
        degraded to the CPU path, or quarantined per the mapper's
        retry policy.
        """
        failures = FailureReport()
        per_read: list[dict] = []
        jobs: list[ExtensionJob] = []
        job_owner: list[int] = []
        for idx, read in enumerate(reads):
            entry = {"chain": None, "reverse": False, "jobs": []}
            try:
                codes = np.asarray(read, dtype=np.uint8)
                chain, oriented, reverse = self._orient(codes)
                entry["chain"], entry["reverse"] = chain, reverse
            except (AlignmentError, ValueError) as exc:
                name = type(exc).__name__ if isinstance(exc, AlignmentError) else "JobRejected"
                failures.quarantine(FailureRecord(idx, name, str(exc), attempts=0))
                per_read.append(entry)
                continue
            if chain is not None:
                pairs = extension_jobs_for_chain(
                    oriented, self.reference, chain, gap_margin=self.gap_margin
                )
                for q, r in pairs:
                    jobs.append(ExtensionJob(ref=r, query=q))
                    job_owner.append(idx)
            per_read.append(entry)

        timing = None
        ext_scores = [0] * len(reads)
        if jobs:
            outcome = run_isolated(
                self.kernel, jobs, self.device,
                policy=self.retry_policy,
                deadline_ms=self.deadline_ms,
                compute_scores=compute_scores,
                scoring=self.scoring,
            )
            timing = outcome.timing
            # Re-index job-level failures to the owning read.
            for rec in outcome.failures.entries:
                failures.quarantine(FailureRecord(
                    job_owner[rec.job_index], rec.error, rec.message,
                    attempts=rec.attempts))
            for rec in outcome.failures.recovered:
                failures.recover(FailureRecord(
                    job_owner[rec.job_index], rec.error, rec.message,
                    attempts=rec.attempts, fallback=rec.fallback))
            if compute_scores and outcome.results:
                for owner, res in zip(job_owner, outcome.results):
                    if res is not None:
                        ext_scores[owner] += res.score

        mappings = []
        for idx, entry in enumerate(per_read):
            chain = entry["chain"]
            if chain is None:
                mappings.append(
                    ReadMapping(idx, mapped=False, ref_start=-1, reverse=False,
                                seed_score=0, extension_score=0)
                )
                continue
            seed_score = sum(s.length for s in chain.seeds)
            mappings.append(
                ReadMapping(
                    read_index=idx,
                    mapped=True,
                    ref_start=max(chain.rstart - chain.qstart, 0),
                    reverse=entry["reverse"],
                    seed_score=seed_score,
                    extension_score=ext_scores[idx],
                )
            )
        return MapperReport(mappings=mappings, timing=timing, n_jobs=len(jobs),
                            failures=failures)


@dataclass(frozen=True)
class PairMapping:
    """Mapping call for one mate pair (FR orientation).

    Attributes
    ----------
    first / second:
        The per-end calls (the second may come from mate rescue).
    proper:
        Both ends mapped, opposite strands, insert within bounds.
    insert_size:
        Outer fragment span when proper, else -1.
    rescued:
        True when one end was recovered by semiglobal search of the
        expected window (BWA-MEM-style mate rescue).
    """

    first: ReadMapping
    second: ReadMapping
    proper: bool
    insert_size: int
    rescued: bool


def _pair_geometry(a: ReadMapping, b: ReadMapping, len_a: int, len_b: int) -> tuple[bool, int]:
    """FR properness and insert size of two mapped ends."""
    if not (a.mapped and b.mapped) or a.reverse == b.reverse:
        return False, -1
    fwd, rev = (a, b) if not a.reverse else (b, a)
    fwd_len = len_a if fwd is a else len_b
    rev_len = len_b if rev is b else len_a
    insert = rev.ref_start + rev_len - fwd.ref_start
    return insert > 0, insert


class PairedReadMapper(ReadMapper):
    """Paired-end mapping with insert-size checks and mate rescue.

    Extends :class:`ReadMapper` with ``map_pairs``: both ends are
    mapped independently; when exactly one end anchors, the other is
    searched for with a whole-read semiglobal alignment inside the
    window the insert-size bound implies — BWA-MEM's mate rescue, with
    the rescue alignment standing in for the GPU-side rescue kernels
    production mappers use.
    """

    def __init__(self, *args, max_insert: int = 1000,
                 rescue_min_identity: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        if max_insert <= 0:
            raise JobRejected("max_insert must be positive")
        if not 0.0 < rescue_min_identity <= 1.0:
            raise JobRejected("rescue_min_identity must be in (0, 1]")
        self.max_insert = max_insert
        self.rescue_min_identity = rescue_min_identity

    def rescue_mate(self, anchor: ReadMapping, anchor_len: int, mate: np.ndarray,
                    idx: int) -> tuple[ReadMapping | None, int]:
        """Search the expected window for the unmapped mate.

        Returns ``(mapping, cells)``: the rescued mapping (``None``
        when the window scores below the identity threshold or is too
        short to hold the mate) plus the DP cells the semiglobal
        search examined — what the streaming pipeline charges its
        modeled rescue stage for.
        """
        n = self.reference.size
        if anchor.reverse:
            lo = max(anchor.ref_start + anchor_len - self.max_insert, 0)
            hi = anchor.ref_start + anchor_len
            candidate = np.asarray(mate, dtype=np.uint8)
            reverse = False
        else:
            lo = anchor.ref_start
            hi = min(anchor.ref_start + self.max_insert, n)
            candidate = reverse_complement(mate)
            reverse = True
        window = self.reference[lo:hi]
        if window.size < candidate.size // 2:
            return None, 0
        cells = int(window.size) * int(candidate.size)
        (res,) = resolve_engine("semiglobal").score_batch(
            [ExtensionJob(ref=window, query=candidate)], self.scoring
        )
        # Threshold as a fraction of the perfect score — mismatches
        # cost match+|mismatch| each, so 0.5 admits ~90%-identity mates.
        threshold = self.rescue_min_identity * candidate.size * self.scoring.match
        if res.score < threshold:
            return None, cells
        ref_start = lo + max(res.ref_end - candidate.size, 0)
        return ReadMapping(
            read_index=idx,
            mapped=True,
            ref_start=ref_start,
            reverse=reverse,
            seed_score=0,
            extension_score=int(res.score),
        ), cells

    def resolve_pair(self, i: int, m1: ReadMapping, m2: ReadMapping,
                     read1: np.ndarray, read2: np.ndarray
                     ) -> tuple[PairMapping, int]:
        """Mate-rescue and pair-classify one mapped couple.

        The shared tail of :meth:`map_pairs` and the streaming
        pipeline's paired mode: returns the :class:`PairMapping` plus
        the rescue DP cells charged (0 when no rescue ran).
        """
        rescued = False
        cells = 0
        if m1.mapped and not m2.mapped:
            found, cells = self.rescue_mate(m1, len(read1), read2, i)
            if found is not None:
                m2, rescued = found, True
        elif m2.mapped and not m1.mapped:
            found, cells = self.rescue_mate(m2, len(read2), read1, i)
            if found is not None:
                m1, rescued = found, True
        proper, insert = _pair_geometry(m1, m2, len(read1), len(read2))
        proper = proper and 0 < insert <= self.max_insert
        return PairMapping(
            first=m1, second=m2, proper=proper,
            insert_size=insert if proper else -1, rescued=rescued,
        ), cells

    def map_pairs(self, reads1: list[np.ndarray], reads2: list[np.ndarray],
                  *, compute_scores: bool = True) -> list[PairMapping]:
        """Map mate pairs; returns one :class:`PairMapping` per pair."""
        if len(reads1) != len(reads2):
            raise JobRejected("mate lists must have equal length")
        rep1 = self.map_reads(reads1, compute_scores=compute_scores)
        rep2 = self.map_reads(reads2, compute_scores=compute_scores)
        out: list[PairMapping] = []
        for i, (m1, m2) in enumerate(zip(rep1.mappings, rep2.mappings)):
            pair, _ = self.resolve_pair(i, m1, m2, reads1[i], reads2[i])
            out.append(pair)
        return out
