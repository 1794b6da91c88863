"""Real-format ingestion and out-of-core storage for history state.

``repro.data`` is the boundary between the repo and data at rest.  Its
two halves:

* :mod:`repro.data.ingest` — parsers for the standard benchmark dump
  format (``train/valid/test.txt`` tab-separated quadruples, string or
  integer columns), with time-granularity bucketing, persisted id maps,
  and a round-tripping exporter.
* :mod:`repro.data.storefile` — a columnar, memory-mappable backing
  file for :class:`repro.history.HistoryStore`; :func:`open_store`
  adopts it zero-copy, so serving replicas opening the same file
  share one physical fact buffer through the page cache.

:mod:`repro.data.scale` generates GDELT-scale synthetic datasets
(millions of facts) to exercise the out-of-core path at a size where
it matters.  See ``docs/data.md`` for the workflow.
"""

from .ingest import (IngestReport, IngestSpec, convert_directory,
                     export_dataset, ingest_directory, read_quadruple_table)
from .scale import (ScaleConfig, gdelt_scale, generate_scale,
                    inject_corruptions)
from .storefile import (StoreInfo, map_columns, open_store, read_info,
                        store_watermark, write_store, write_store_facts)

__all__ = [
    "IngestReport",
    "IngestSpec",
    "ScaleConfig",
    "StoreInfo",
    "convert_directory",
    "export_dataset",
    "gdelt_scale",
    "generate_scale",
    "ingest_directory",
    "inject_corruptions",
    "map_columns",
    "open_store",
    "read_info",
    "read_quadruple_table",
    "store_watermark",
    "write_store",
    "write_store_facts",
]
