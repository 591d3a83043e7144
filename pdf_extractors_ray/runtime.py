"""Ray Data execution tuning (never session ownership).

``tune_data_context()`` turns off Ray Data's progress bars and sets
nothing else: the shuffles keep Ray's default sort-based exchange, and
block counts are sized where a read feeds one (``sized_num_blocks``).
Idempotent; callable from any pipeline entry (the driver owns
``ray.init`` — this only touches ``DataContext``).
``remote_fn`` builds each module-level function's Ray remote function once.
"""

from __future__ import annotations

import functools


def _cluster_cpus(default: int = 8) -> int:
    import ray

    if not ray.is_initialized():
        return default
    return int(ray.cluster_resources().get("CPU", default))


@functools.cache
def remote_fn(fn):
    """``ray.remote(fn)``, built once per function. Building it on every call
    pickles and exports the function again (2-4 ms each); a cached one
    exports once per session (Ray re-exports it after a new ``ray.init``),
    as a module-level ``@ray.remote`` would. Pass module-level functions
    only: the cache keeps each for the life of the process. Per-call
    ``.options(...)`` go on the result."""
    import ray

    return ray.remote(fn)


def tune_data_context() -> None:
    """Measured choice (BASELINE.md): the default pull-based sort shuffle
    with COARSE map-side blocks (see ``sized_num_blocks``) beats hash
    shuffle here — hash aggregator actors go latency-bound on many small
    block pushes, and 200-way default parallelism drowns small CPU budgets
    in actor startup. So the only global knob set is quiet progress bars;
    block coarsening happens at the reads that feed a shuffle."""
    from ray.data.context import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False


_BLOCK_CEIL_BYTES = 128 << 20
_BLOCKS_PER_CPU = 4


def sized_num_blocks(path: str, floor_bytes: int = 2 << 20) -> int:
    """Read block count derived from on-disk bytes, not a constant.

    Target block size = clamp(total_bytes / (4 x CPUs), floor, 128 MB):
    tiny corpora collapse to a handful of blocks (a 65 KB table in 64
    blocks pays ~1.5 s of pure scheduling per shuffle — measured), while
    large inputs keep ~128 MB blocks so block COUNT grows with data (the
    100 TB case is unchanged: bytes/128 MB blocks, exactly Ray's default
    shape). Directories are walked; missing paths fall back to 1 block.
    """
    import os

    total = 0
    if os.path.isdir(path):
        for root, _dirs, files in os.walk(path):
            total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    elif os.path.exists(path):
        total = os.path.getsize(path)
    if total <= 0:
        return 1
    block = total // max(1, _BLOCKS_PER_CPU * _cluster_cpus())
    block = min(max(block, floor_bytes), _BLOCK_CEIL_BYTES)
    return max(1, -(-total // block))


def read_parquet_sized(path: str, columns=None, floor_bytes: int = 2 << 20, **kwargs):
    """``read_parquet`` with byte-derived ``override_num_blocks`` (see
    ``sized_num_blocks``) and quiet progress bars."""
    import ray.data as rd

    tune_data_context()
    return rd.read_parquet(
        path, columns=columns,
        override_num_blocks=sized_num_blocks(path, floor_bytes=floor_bytes),
        **kwargs,
    )


def shuffle_num_blocks(num_cpus: int | None = None) -> int:
    """Shard count of perfbench's serial traced replay of the extract
    engine: ~1 per CPU (min 16). No package path uses it: the engine and
    the conversation folds take their shards from
    ``stages.fold.parquet_shards``.

    Measured on the bench corpus when the engine used it: 16 blocks at 8
    CPUs / 32 at 32 CPUs cut the shuffle wall 2x vs fine-grained blocks
    (fewer, larger exchange chunks; the shuffle is latency- not
    bandwidth-bound locally)."""
    return max(16, num_cpus or _cluster_cpus())
