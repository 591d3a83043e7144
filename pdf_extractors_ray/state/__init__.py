from .lineage import read_output, read_lineage  # noqa: F401
