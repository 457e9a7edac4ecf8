"""Tests for the per-step metrics records and trace files."""

import re

import pytest

from nanoembed import metrics as mt


class TestStepMetrics:
    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            mt.StepMetrics(step=-1, loss=0.0, grad_norm=0.0)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            mt.StepMetrics(step=0, loss=float("nan"), grad_norm=0.0)
        with pytest.raises(ValueError):
            mt.StepMetrics(step=0, loss=0.0, grad_norm=float("inf"))

    @pytest.mark.parametrize(
        "args, field",
        [((1.5, 0.0, 0.0), "step"), ((True, 0.0, 0.0), "step"), ((0, "x", 0.0), "loss"), ((0, 10**400, 0.0), "loss")],
        ids=["step_fraction", "step_bool", "loss_string", "loss_huge_int"],
    )
    def test_rejects_wrong_types_naming_the_field(self, args, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            mt.StepMetrics(*args)

    def test_json_field_order_is_fixed(self):
        record = mt.StepMetrics(step=3, loss=0.5, grad_norm=1.25, false_neg_pct=12.5, duplication_rate=0.0)
        assert record.to_json() == (
            '{"step": 3, "loss": 0.5, "grad_norm": 1.25, "false_neg_pct": 12.5, "duplication_rate": 0.0}'
        )


class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        trace = [
            mt.StepMetrics(step=i, loss=1.0 / (i + 1), grad_norm=0.5 * i, false_neg_pct=3.0, duplication_rate=0.25)
            for i in range(5)
        ]
        path = tmp_path / "trace.jsonl"
        mt.write_trace(path, trace)
        assert mt.read_trace(path) == trace

    def test_rerun_writes_identical_bytes(self, tmp_path):
        trace = [mt.StepMetrics(step=0, loss=0.123456789, grad_norm=2.0)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        mt.write_trace(a, trace)
        mt.write_trace(b, trace)
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"step": 0, "loss": 0.0, "grad_norm": 0.0, "false_neg_pct": 0, "duplication_rate": 0}\nnot json\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: invalid JSON"):
            mt.read_trace(path)

    def test_deeply_nested_line_reports_line_number(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"step": 0, "loss": 0.0, "grad_norm": 0.0, "false_neg_pct": 0, "duplication_rate": 0}\n'
                        + '{"step": ' + "[" * 200_000 + "\n")
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(path))}: line 2: invalid JSON: maximum recursion depth exceeded"
        ):
            mt.read_trace(path)

    @pytest.mark.parametrize(
        "line, reason",
        [
            (b"not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
            (b"[1, 2]", "record is not an object"),
            (b'{"step": 0}', "fields ['step'] != "),
            (b'{"step": -1, "loss": 0.0, "grad_norm": 0.0, "false_neg_pct": 0, "duplication_rate": 0}',
             "step must be nonnegative"),
            (b'{"step": 0\xff}', "not valid UTF-8: "),
        ],
        ids=["invalid_json", "not_an_object", "missing_fields", "bad_value", "not_utf8"],
    )
    def test_every_line_error_names_the_file(self, tmp_path, line, reason):
        good = tmp_path / "good.jsonl"
        mt.write_trace(good, [mt.StepMetrics(step=0, loss=0.5, grad_norm=1.0)])
        path = tmp_path / "run" / "trace.jsonl"
        path.parent.mkdir()
        path.write_bytes(good.read_bytes() + line + b"\n")
        with pytest.raises(ValueError) as info:
            mt.read_trace(path)
        assert str(info.value).startswith(f"{path}: line 2: {reason}")

    def test_missing_and_extra_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"step": 0, "loss": 0.0}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: fields"):
            mt.read_trace(path)
        path.write_text(
            '{"step": 0, "loss": 0.0, "grad_norm": 0.0, "false_neg_pct": 0, "duplication_rate": 0, "z": 1}\n'
        )
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: fields"):
            mt.read_trace(path)

    def test_wrong_types_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"step": true, "loss": 0.0, "grad_norm": 0.0, "false_neg_pct": 0, "duplication_rate": 0}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: step must be an integer"):
            mt.read_trace(path)
        path.write_text('{"step": 0, "loss": "x", "grad_norm": 0.0, "false_neg_pct": 0, "duplication_rate": 0}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: loss must be a finite number"):
            mt.read_trace(path)

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        huge = "9" * 400
        path.write_text(f'{{"step": 0, "loss": {huge}, "grad_norm": 0.0, "false_neg_pct": 0, "duplication_rate": 0}}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: loss must be a finite number"):
            mt.read_trace(path)

    def test_integer_number_reads_back_as_float(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"step": 0, "loss": 1, "grad_norm": 0.0, "false_neg_pct": 0, "duplication_rate": 0}\n')
        (record,) = mt.read_trace(path)
        assert type(record.loss) is float and record.loss == 1.0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('\n{"step": 0, "loss": 1.0, "grad_norm": 0.0, "false_neg_pct": 0.0, "duplication_rate": 0.0}\n\n')
        assert len(mt.read_trace(path)) == 1
