"""Binary page-image ingestion: real image FILES on disk → OCR chain.

The S9 path end-to-end from BYTES: a directory of rendered page images
(P6 / PNG, one file per page — the on-disk shape a scanned-document
corpus actually has; reference analog
``nordic-logistics-invoice/nordic-invoice.py:54-61``, which opens the
PDF file and rasterizes pages before field extraction) is read with
``ray.data.read_binary_files`` and parsed into the ``(doc_id, payload)``
schema every downstream OCR/extraction stage consumes. Nothing below
the read knows the payload came from a file rather than a Parquet
binary column — the point of the demo.

At 100 TB the same shape holds: ``read_binary_files`` streams file
blocks with parallelism from the file count, doc identity rides in the
path (no driver-side listing joins), and the OCR actor pool downstream
is where the compute lives.
"""

from __future__ import annotations

import os
import re

import pandas as pd

_PAGE_RE = re.compile(r"page-(\d+)\.(?:ppm|png)$")
# writer in-flight temp suffix: .tmp<pid>; readers skip these, the writer
# sweeps stale ones (a killed writer must not poison a shared cache dir)
_TMP_RE = re.compile(r"\.tmp(\d+)$")


def _pid_dead(pid: int) -> bool:
    """True when no process has ``pid``: a live writer's temp is in flight."""
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return True
    except PermissionError:
        return False  # alive, owned by another user
    return False

# Bump when the rendered page CONTENT changes (glyph font, render_page
# defect model, or the invoice text recipe): cache directories embed this
# version, so stale pages from an older recipe can never be reused —
# write_invoice_page_files skips files that already exist.
PAGES_RECIPE_VERSION = 1


def write_invoice_page_files(out_dir: str, doc_ids) -> str:
    """Render the deterministic OCR-invoice page for each doc_id and
    write it as an IMAGE FILE ``page-<doc_id>.<ext>`` — every third page
    as PNG (the real zlib codec), the rest binary P6 — with the same
    doc-dependent scan defects the in-pipeline rasterizer applies
    (rotation = id % 4, polarity inversion when id % 3 == 1).
    Idempotent per file; returns ``out_dir``."""
    from ..ops import codecs, glyphs
    from ..ops.surrogate import _render_ocr_invoice_py

    os.makedirs(out_dir, exist_ok=True)
    for stale in os.listdir(out_dir):
        m = _TMP_RE.search(stale)
        if m and _pid_dead(int(m.group(1))):  # a killed writer's temp
            try:
                os.remove(os.path.join(out_dir, stale))
            except OSError:
                pass  # another writer swept it first
    for i in doc_ids:
        i = int(i)
        ext = "png" if i % 3 == 0 else "ppm"
        path = os.path.join(out_dir, f"page-{i:08d}.{ext}")
        if os.path.exists(path):
            continue
        page = glyphs.render_page(
            _render_ocr_invoice_py(i), rotate_k=i % 4, invert=i % 3 == 1
        )
        payload = codecs.encode_png(page) if ext == "png" else codecs.encode_ppm(page)
        tmp = path + f".tmp{os.getpid()}"
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    return out_dir


def read_page_files(page_dir: str):
    """``read_binary_files`` over a page-image directory → Dataset of
    ``(doc_id, payload)``. Doc identity is parsed from the file name
    (``page-<id>.<ext>``); unrecognized files raise rather than being
    silently dropped."""
    import numpy as np
    import ray.data as rd

    from ..runtime import tune_data_context

    tune_data_context()
    ds = rd.read_binary_files(page_dir, include_paths=True)

    def parse(batch: pd.DataFrame) -> pd.DataFrame:
        ids, keep = [], []
        for j, p in enumerate(batch["path"]):
            m = _PAGE_RE.search(str(p))
            if m is None:
                # a concurrent writer's in-flight temp is expected and
                # skipped; anything ELSE in the directory is a real error
                if _TMP_RE.search(str(p)):
                    continue
                raise ValueError(f"unrecognized page file name: {p}")
            ids.append(int(m.group(1)))
            keep.append(j)
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, np.int64),
                "payload": batch["bytes"].to_numpy(dtype=object)[keep],
            }
        )

    return ds.map_batches(parse, batch_format="pandas")
