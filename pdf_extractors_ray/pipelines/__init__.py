from .extract import (  # noqa: F401
    extract_catalog,
    extract_census_households,
    extract_census_persons,
    extract_census_summary,
    extract_grid,
    extract_invoice,
    extract_layout,
    extract_table,
)
