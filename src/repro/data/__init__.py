"""Data substrate: synthetic UCR-style archive, real-UCR loader,
KPI/SWaT-style one-liner streams."""

from .anomalies import ANOMALY_INJECTORS, inject_anomaly, list_anomaly_types
from .archive import anomaly_length_distribution, make_archive, make_dataset
from .generators import FAMILIES, generate_base, list_families
from .kpi import make_kpi_dataset, make_swat_dataset
from .spec import Dataset, DatasetSpec
from .ucr import load_ucr_archive, load_ucr_file, parse_ucr_filename

__all__ = [
    "ANOMALY_INJECTORS",
    "inject_anomaly",
    "list_anomaly_types",
    "anomaly_length_distribution",
    "make_archive",
    "make_dataset",
    "FAMILIES",
    "generate_base",
    "list_families",
    "make_kpi_dataset",
    "make_swat_dataset",
    "Dataset",
    "DatasetSpec",
    "load_ucr_archive",
    "load_ucr_file",
    "parse_ucr_filename",
]
