"""`repro explain` and `repro profile --flight-out` end to end through
the CLI: every input form, every output form."""

import json

import pytest

from repro import io as repro_io
from repro.cli import main


@pytest.fixture(scope="module")
def capture_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("explain") / "cap.npz"
    assert main(
        ["capture", "--workload", "micro", "--tm", "64", "--cm", "4",
         "-o", str(path)]
    ) == 0
    return path


class TestExplainCapture:
    def test_prints_provenance_cards(self, capture_path, capsys):
        assert main(["explain", str(capture_path)]) == 0
        out = capsys.readouterr().out
        assert "stall #0:" in out
        assert "triggered at sample" in out
        assert "margin" in out

    def test_at_window_lists_overlaps(self, capture_path, capsys):
        main(["explain", str(capture_path)])
        first = capsys.readouterr().out
        # Pull the first stall's interval out of the rendered card.
        line = next(l for l in first.splitlines() if l.startswith("stall #0"))
        lo = float(line.split("samples ")[1].split("-")[0])
        begin, end = int(lo), int(lo) + 50
        assert main(
            ["explain", str(capture_path), "--at", f"{begin}:{end}"]
        ) == 0
        out = capsys.readouterr().out
        assert "stall #0" in out

    def test_at_empty_window_says_so(self, tmp_path, capsys):
        # A flat capture: no stalls, no candidates - the window query
        # must say so instead of printing an empty list.
        import numpy as np

        from repro.emsignal import Capture

        flat = tmp_path / "flat.npz"
        repro_io.save_capture(
            flat,
            Capture(
                magnitude=np.full(5000, 0.9),
                sample_rate_hz=50e6,
                clock_hz=1e9,
                bandwidth_hz=40e6,
            ),
        )
        assert main(["explain", str(flat), "--at", "100:200"]) == 0
        out = capsys.readouterr().out.lower()
        assert "nothing" in out or "no stall" in out

    def test_malformed_report_raises_typed_error(self, tmp_path):
        from repro.errors import CorruptCaptureError

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "emprof-report-v1"}))
        with pytest.raises(CorruptCaptureError, match="bad.json"):
            main(["explain", str(bad)])

    def test_at_rejects_malformed_range(self, capture_path):
        with pytest.raises(SystemExit):
            main(["explain", str(capture_path), "--at", "banana"])

    def test_html_output(self, capture_path, tmp_path, capsys):
        out_path = tmp_path / "explain.html"
        assert main(
            ["explain", str(capture_path), "--html", str(out_path)]
        ) == 0
        html = out_path.read_text()
        assert "<script" not in html
        assert "stall #0" in html

    def test_flight_out_writes_sidecar(self, capture_path, tmp_path):
        sidecar = tmp_path / "run.flight"
        assert main(
            ["explain", str(capture_path), "--flight-out", str(sidecar)]
        ) == 0
        header, events = repro_io.load_flight(sidecar)
        assert header["events"] == len(events) > 0

    def test_diff_of_identical_runs(self, capture_path, capsys):
        assert main(
            ["explain", str(capture_path), "--diff", str(capture_path)]
        ) == 0
        assert "identical" in capsys.readouterr().out


class TestExplainReport:
    def test_profile_flight_out_then_explain_report(
        self, capture_path, tmp_path, capsys
    ):
        report_path = tmp_path / "rep.json"
        sidecar = tmp_path / "rep.flight"
        assert main(
            ["profile", str(capture_path),
             "-o", str(report_path), "--flight-out", str(sidecar)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert "evidence" in payload
        assert sidecar.exists()

        assert main(["explain", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "stall #0:" in out

    def test_report_without_evidence_exits_with_hint(
        self, capture_path, tmp_path
    ):
        report_path = tmp_path / "plain.json"
        assert main(
            ["profile", str(capture_path), "-o", str(report_path)]
        ) == 0
        with pytest.raises(SystemExit) as exc:
            main(["explain", str(report_path)])
        assert "evidence" in str(exc.value)

    def test_flight_out_from_report_input_refused(
        self, capture_path, tmp_path
    ):
        report_path = tmp_path / "rep.json"
        main(
            ["profile", str(capture_path), "-o", str(report_path),
             "--flight-out", str(tmp_path / "a.flight")]
        )
        with pytest.raises(SystemExit):
            main(
                ["explain", str(report_path),
                 "--flight-out", str(tmp_path / "b.flight")]
            )


class TestProfileFlightGuards:
    def test_flight_out_with_isolate_window_refused(
        self, capture_path, tmp_path
    ):
        with pytest.raises(SystemExit):
            main(
                ["profile", str(capture_path), "--isolate-window",
                 "--flight-out", str(tmp_path / "w.flight")]
            )
