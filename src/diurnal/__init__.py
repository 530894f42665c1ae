"""Diurnal temperature pattern analysis.

Gap filling, hour-of-day aggregation over multi-day windows, nonparametric
trend detection, DTW-based pattern clustering and plot-ready summaries, with
a CLI wiring the stages together.
"""

from .aggregate import (
    SCALES,
    NetworkPanel,
    WindowCalendar,
    build_calendar,
    hourly_window_means,
    read_panel,
    stack_panels,
    write_panel,
    year_series,
)
from .errors import (
    ContractError,
    DegenerateDataError,
    DuplicateTimestampError,
    EmptyInputError,
    ImputationError,
    ParseError,
    PipelineError,
    SampleTooSmallError,
)
from .impute import seasonal_split_impute
from .ingest import (
    MissingReport,
    Region,
    StationGroup,
    StationMeta,
    TemperatureSeries,
    day_fields,
    missing_report,
    read_metadata,
    read_records,
    station_codes,
    time_fields,
    to_hourly,
    write_metadata,
    write_records,
)
from .report import (
    ContourTable,
    RadarRow,
    bin_cell,
    cluster_table,
    contour_grid,
    radar_sheet,
)
from .similarity import (
    ClusterReport,
    DcorResult,
    DistanceMatrix,
    DtwConfig,
    Merge,
    agglomerative_cluster,
    dcor,
    dcor_permutation_test,
    dcor_table,
    dtw_distance,
    pairwise_dtw,
    silhouette,
    window_dtw,
)
from .synth import synth_network, synth_station
from .trend import (
    MKResult,
    SenSlope,
    TrendRow,
    TrendTable,
    lag1_autocorrelation,
    mk_test,
    sen_slope,
    serial_flag,
    trend_surface,
    window_profiles,
)

__version__ = "0.1.0"

__all__ = [
    "SCALES",
    "NetworkPanel", "WindowCalendar", "build_calendar", "hourly_window_means",
    "read_panel", "stack_panels", "write_panel", "year_series",
    "PipelineError", "ContractError", "SampleTooSmallError", "DegenerateDataError",
    "ParseError", "DuplicateTimestampError", "EmptyInputError", "ImputationError",
    "seasonal_split_impute",
    "StationMeta", "StationGroup", "Region", "TemperatureSeries", "MissingReport",
    "read_records", "write_records", "read_metadata", "write_metadata", "station_codes",
    "to_hourly", "missing_report", "day_fields", "time_fields",
    "ContourTable", "RadarRow",
    "bin_cell", "cluster_table", "contour_grid", "radar_sheet",
    "DtwConfig", "DistanceMatrix", "ClusterReport", "Merge", "DcorResult",
    "dtw_distance", "pairwise_dtw", "window_dtw", "agglomerative_cluster", "silhouette",
    "dcor", "dcor_permutation_test", "dcor_table",
    "synth_network", "synth_station",
    "MKResult", "SenSlope", "TrendRow", "TrendTable",
    "mk_test", "sen_slope", "lag1_autocorrelation", "serial_flag", "trend_surface",
    "window_profiles",
]
