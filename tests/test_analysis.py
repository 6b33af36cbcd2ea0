"""Characterization and table-rendering tests."""

import pytest

from repro.analysis.characterize import characterize_frame
from repro.analysis.tables import Table, format_table, mean
from repro.config import CacheParams, KB, LLCConfig
from repro.sim.epochs import EpochTracker
from repro.sim.offline import replay, simulate_trace
from repro.streams import StreamClass
from repro.trace import synth


@pytest.fixture(scope="module")
def llc_config():
    return LLCConfig(params=CacheParams(16 * KB, ways=4), banks=1, sample_period=8)


def test_characterize_frame_fields(llc_config):
    """The post-pass over a handed record gives exactly the TEX and Z
    epoch statistics an epoch observer of that replay collects."""
    trace = synth.producer_consumer(128, 4, consume_fraction=0.8, gap_blocks=64)
    record = replay(trace, "belady", llc_config)
    epochs = characterize_frame(trace, record, llc_config)
    assert set(epochs) == {StreamClass.TEX, StreamClass.Z}
    assert epochs[StreamClass.TEX].entered[0] > 0
    tracker = EpochTracker()
    simulate_trace(trace, "belady", llc_config, observer=tracker)
    assert epochs == tracker.stats


def test_characterize_counts_inter_stream(llc_config):
    """Every texture hit that consumes a render target starts a texture
    life."""
    trace = synth.producer_consumer(64, 2, consume_fraction=1.0)
    record = replay(trace, "lru", llc_config)
    inter_hits = record.result.stats.tex_inter_hits
    assert inter_hits > 0
    epochs = characterize_frame(trace, record, llc_config)
    assert epochs[StreamClass.TEX].entered[0] >= inter_hits


class TestTable:
    def test_render_contains_rows(self):
        table = Table("Demo", ["a", "b"])
        table.add_row("x", 1.23456)
        text = table.render()
        assert "Demo" in text
        assert "1.235" in text

    def test_column_extraction(self):
        table = Table("t", ["name", "value"])
        table.add_row("a", 1)
        table.add_row("b", 2)
        assert table.column("value") == [1, 2]

    def test_none_rendered_as_dash(self):
        table = Table("t", ["x"])
        table.add_row(None)
        assert "-" in format_table(table)

    def test_notes_rendered(self):
        table = Table("t", ["x"], notes=["lower is better"])
        assert "note: lower is better" in table.render()

    def test_csv_escaping(self):
        table = Table("t", ["name", "v"])
        table.add_row('says "hi", ok', 1)
        csv = table.to_csv()
        assert '"says ""hi"", ok"' in csv
        assert csv.splitlines()[0] == "name,v"

    def test_csv_none_is_empty(self):
        table = Table("t", ["a", "b"])
        table.add_row(None, 2)
        assert table.to_csv().splitlines()[1] == ",2"


def test_mean_skips_none():
    assert mean([1.0, None, 3.0]) == 2.0
    assert mean([]) is None
