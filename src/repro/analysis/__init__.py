"""Experiment harness: minimal-heap search, per-figure runners, the
process-pool experiment scheduler, and the cross-run experiment index
(run directories + ``runs.sqlite``)."""

from repro.analysis.heapdump import (HistogramRow, heap_histogram,
                                     render_histogram)
from repro.analysis.index import RunDirectory, RunIndex, SessionStore
from repro.analysis.minheap import MinHeapResult, find_min_heap, measure_min_heap
from repro.analysis.scheduler import Job, JobError, JobGraph, Scheduler
from repro.analysis.tables import ExperimentRow, render_series, render_table

__all__ = [
    "HistogramRow", "heap_histogram", "render_histogram",
    "RunDirectory", "RunIndex", "SessionStore",
    "MinHeapResult", "find_min_heap", "measure_min_heap",
    "Job", "JobError", "JobGraph", "Scheduler",
    "ExperimentRow", "render_series", "render_table",
]
