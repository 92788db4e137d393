"""The seven Table II benchmarks as calibrated workload specs.

Each benchmark is modelled as the iteration-based task program the paper's
modified-Cilk versions launch: every batch spawns a mix of task classes
whose *relative* mean costs come from the measured costs of the real
kernels in :mod:`repro.kernels` (see
:data:`repro.kernels.profile.REFERENCE_COSTS`), and whose counts are
calibrated so each benchmark's machine utilisation — the slack EEWA
converts into energy savings — spans the paper's observed range (Fig. 6:
energy reductions from 8.7% for the most saturated benchmark to 29.8% for
the most granularity-bound one).

Class naming follows the kernel stages: e.g. BWC batches spawn
``bwt_block`` tasks (one per input block, heavy), ``entropy`` tasks
(Huffman over the transformed block) and ``mtf_rle`` tasks (cheap).
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.runtime.task import Batch
from repro.workloads.generators import generate_program
from repro.workloads.spec import TaskClassSpec, WorkloadSpec


def bwc_spec() -> WorkloadSpec:
    """Burrows-Wheeler Transforming Compression."""
    return WorkloadSpec(
        name="BWC",
        description="BWT -> MTF -> RLE2 -> Huffman per input block",
        classes=(
            TaskClassSpec("bwt_block", count=8, mean_seconds=38e-3),
            TaskClassSpec("entropy", count=40, mean_seconds=2.1e-3),
            TaskClassSpec("mtf_rle", count=40, mean_seconds=0.35e-3),
        ),
    )


def bzip2_spec() -> WorkloadSpec:
    """Bzip2 file compression (RLE1 + BWT + MTF + RLE2 + Huffman blocks)."""
    return WorkloadSpec(
        name="Bzip-2",
        description="simplified bzip2 pipeline, one block per task",
        classes=(
            TaskClassSpec("compress_block", count=8, mean_seconds=26e-3),
            TaskClassSpec("rle1", count=14, mean_seconds=5.9e-3),
            TaskClassSpec("entropy", count=12, mean_seconds=4.5e-3),
        ),
    )


def dmc_spec() -> WorkloadSpec:
    """Dynamic Markov Coding."""
    return WorkloadSpec(
        name="DMC",
        description="DMC compression of independent blocks + model flushes",
        classes=(
            TaskClassSpec("dmc_block", count=6, mean_seconds=47e-3),
            TaskClassSpec("model_flush", count=24, mean_seconds=4.4e-3),
        ),
    )


def je_spec() -> WorkloadSpec:
    """JPEG Encoding."""
    return WorkloadSpec(
        name="JE",
        description="JPEG tiles: DCT+quant, entropy coding, tile assembly",
        classes=(
            TaskClassSpec("encode_tile", count=6, mean_seconds=26e-3),
            TaskClassSpec("dct_quant", count=32, mean_seconds=3.4e-3),
            TaskClassSpec("entropy", count=20, mean_seconds=2.4e-3),
        ),
    )


def lzw_spec() -> WorkloadSpec:
    """Lempel-Ziv-Welch data compression."""
    return WorkloadSpec(
        name="LZW",
        description="LZW over large chunks plus dictionary-reset segments",
        classes=(
            TaskClassSpec("lzw_chunk", count=9, mean_seconds=28e-3),
            TaskClassSpec("dict_reset", count=40, mean_seconds=1.7e-3),
        ),
    )


def md5_spec() -> WorkloadSpec:
    """MD5 message digest."""
    return WorkloadSpec(
        name="MD5",
        description="MD5 over large independent chunks plus small records",
        classes=(
            TaskClassSpec("md5_chunk", count=7, mean_seconds=45e-3),
            TaskClassSpec("md5_small", count=48, mean_seconds=1.8e-3),
        ),
    )


def sha1_spec() -> WorkloadSpec:
    """SHA-1 cryptographic hash."""
    return WorkloadSpec(
        name="SHA-1",
        description="SHA-1 over large independent chunks plus small records",
        default_batches=10,  # Fig. 8 shows exactly 10 batches
        classes=(
            TaskClassSpec("sha1_chunk", count=5, mean_seconds=52e-3),
            TaskClassSpec("sha1_small", count=44, mean_seconds=1.5e-3),
        ),
    )


def memory_bound_spec() -> WorkloadSpec:
    """A STREAM-like memory-bound application (Section IV-D exercise).

    Not in Table II — the paper excludes memory-bound applications from its
    evaluation; this spec exists to exercise the detection and fallback
    paths (and the regression extension).
    """
    return WorkloadSpec(
        name="STREAM-like",
        description="bandwidth-bound array sweeps; time barely scales with f",
        classes=(
            TaskClassSpec(
                "stream_scan",
                count=6,
                mean_seconds=16e-3,
                miss_intensity=0.05,
                mem_stall_fraction=0.7,
            ),
            TaskClassSpec(
                "stream_copy",
                count=20,
                mean_seconds=3e-3,
                miss_intensity=0.04,
                mem_stall_fraction=0.65,
            ),
        ),
    )


#: The paper's Table II benchmark names, in its order.
BENCHMARK_NAMES = ("BWC", "Bzip-2", "DMC", "JE", "LZW", "MD5", "SHA-1")


def benchmark_spec(name: str) -> WorkloadSpec:
    """Look up a workload spec by its registered name.

    The workload registry is the one table: a workload added with
    :func:`~repro.scenario.registry.register_workload` resolves here too.
    """
    # Imported here: the registry imports this package when it loads.
    from repro.scenario.registry import WORKLOADS

    if name not in WORKLOADS:
        raise WorkloadError(
            f"unknown benchmark {name!r}; expected one of {sorted(WORKLOADS.names())}"
        )
    return WORKLOADS.get(name).spec()


def benchmark_program(
    name: str, *, batches: int | None = None, seed: int = 0
) -> list[Batch]:
    """Generate the program for a named benchmark."""
    return generate_program(benchmark_spec(name), batches=batches, seed=seed)
