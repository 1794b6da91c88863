"""End-to-end acceptance: export -> convert -> load reproduces metrics.

A dataset pushed through the full on-disk loop — exported to the raw
benchmark format (with vocabulary names), converted back to canonical
integer dumps, loaded, and packed into a store file — must reproduce
the original's evaluation metric rows bitwise.
"""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.data import (IngestSpec, convert_directory, export_dataset,
                        ingest_directory, open_store, write_store)
from repro.datasets import tiny
from repro.eval.heuristics import FrequencyHeuristic
from repro.eval.protocol import evaluate
from repro.tkg import load_benchmark_directory
from repro.training.context import HistoryContext


@pytest.fixture(scope="module")
def dataset():
    return tiny()


class TestMetricRoundTrip:
    def test_integer_loop_reproduces_metric_rows(self, dataset, tmp_path):
        raw = tmp_path / "raw"
        export_dataset(dataset, str(raw))
        reloaded = ingest_directory(str(raw), IngestSpec(name="tiny")).dataset
        model = FrequencyHeuristic(dataset.num_entities)
        original = evaluate(model, dataset, "test")
        round_tripped = evaluate(model, reloaded, "test")
        assert round_tripped == original

    def test_named_convert_loop_reproduces_metric_rows(self, dataset,
                                                       tmp_path):
        # names -> ids permutes the vocabulary, but a frequency model is
        # permutation-equivariant, so the metric row must be identical.
        raw, out = tmp_path / "raw", tmp_path / "out"
        export_dataset(dataset, str(raw), named=True)
        convert_directory(str(raw), str(out))
        reloaded = load_benchmark_directory(str(out))
        original = evaluate(FrequencyHeuristic(dataset.num_entities),
                            dataset, "test")
        round_tripped = evaluate(FrequencyHeuristic(reloaded.num_entities),
                                 reloaded, "test")
        assert round_tripped == original

    def test_store_file_loop_reproduces_metric_rows(self, dataset, tmp_path):
        raw, out = tmp_path / "raw", tmp_path / "out"
        store = str(tmp_path / "tiny.hst")
        export_dataset(dataset, str(raw))
        convert_directory(str(raw), str(out))
        reloaded = load_benchmark_directory(str(out))
        write_store(store, reloaded)
        model = FrequencyHeuristic(dataset.num_entities)
        original = evaluate(model, dataset, "test")
        context = HistoryContext(reloaded, 3, store=open_store(store))
        mapped = evaluate(model, reloaded, "test", context=context)
        assert mapped == original


class TestCLILoop:
    def test_cli_export_convert_inspect(self, dataset, tmp_path, capsys):
        raw = str(tmp_path / "raw")
        out = str(tmp_path / "out")
        store = str(tmp_path / "tiny.hst")
        assert cli_main(["data", "export", "tiny", raw,
                         "--store", store]) == 0
        assert cli_main(["data", "convert", raw, out]) == 0
        assert cli_main(["data", "inspect", store]) == 0
        assert cli_main(["data", "inspect", out]) == 0
        output = capsys.readouterr().out
        assert "store v2" in output
        assert "exported tiny" in output
        reloaded = load_benchmark_directory(out)
        for split, quads in dataset.splits().items():
            assert np.array_equal(reloaded.splits()[split].array,
                                  quads.array)
