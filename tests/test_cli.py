"""The ``extract`` subcommand end to end, in a subprocess: ``main()`` shuts
its Ray session down, which would take the test session's Ray with it."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _extract(corpus: str, out: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "pdf_extractors_ray", "--num-cpus", "1",
         "extract", "--input", corpus, "--out", out, "--parts", "8"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_extract_then_resume(small_corpus_dir, tmp_path):
    out = str(tmp_path / "extracted")
    first = _extract(small_corpus_dir, out)
    assert first["out"] == out and first["resumed"] == 0
    assert 0 < first["partitions"] <= 8 and first["rows"] > 0 and first["turns"] > 0

    second = _extract(small_corpus_dir, out)  # every partition has its sidecar
    assert second["resumed"] == second["partitions"] == first["partitions"]
    assert (second["rows"], second["turns"]) == (first["rows"], first["turns"])
