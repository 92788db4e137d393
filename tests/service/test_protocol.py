"""Wire-schema tests: request validation and frame round-trips."""

import json

import pytest

from repro.errors import ScenarioError
from repro.experiments.sweep import SweepEngine
from repro.scenario.spec import ScenarioSpec
from repro.service.protocol import (
    PROTOCOL_VERSION,
    build_sweep_request,
    decode_frame,
    encode_frame,
    end_frame,
    error_frame,
    parse_sweep_request,
)
from repro.service.server import submit_scenarios

SCENARIO = {
    "schema": 3,
    "workload": "SHA-1",
    "policy": "cilk",
    "seeds": [11, 23],
    "batches": 2,
}


class TestRequestRoundTrip:
    def test_build_parse_preserves_everything(self):
        body = build_sweep_request(
            [SCENARIO], fidelity="auto", priority=-3, deadline_s=2.5
        )
        request = parse_sweep_request(body)
        assert request.fidelity == "auto"
        assert request.priority == -3
        assert request.deadline_s == 2.5
        assert len(request.scenarios) == 1
        assert request.scenarios[0] == ScenarioSpec.from_dict(SCENARIO)
        # to_dict closes the loop: parse(to_dict(parse(x))) == parse(x).
        assert parse_sweep_request(request.to_dict()) == request

    def test_defaults(self):
        request = parse_sweep_request({"scenarios": [SCENARIO]})
        assert request.fidelity is None
        assert request.priority == 0
        assert request.deadline_s is None

    def test_cells_flatten_in_scenario_order(self):
        other = dict(SCENARIO, workload="MD5", seeds=[37])
        request = parse_sweep_request(
            build_sweep_request([SCENARIO, other])
        )
        # The server submits a request's cells, one ticket per scenario
        # and seed, in request order (cell frames are indexed by it).
        with SweepEngine() as engine:
            _, tickets = submit_scenarios(engine, request.scenarios)
            cells = [
                (i, ticket.spec.benchmark, ticket.spec.seed)
                for i, scenario_tickets in enumerate(tickets)
                for ticket in scenario_tickets
            ]
        assert cells == [(0, "SHA-1", 11), (0, "SHA-1", 23), (1, "MD5", 37)]

    def test_request_body_is_json_serialisable(self):
        body = build_sweep_request([SCENARIO], deadline_s=1.0)
        assert json.loads(json.dumps(body)) == body


class TestRequestValidation:
    def test_non_object_rejected(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            parse_sweep_request([SCENARIO])

    def test_unknown_request_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown request fields"):
            parse_sweep_request({"scenarios": [SCENARIO], "shards": 4})

    def test_wrong_protocol_version_rejected(self):
        with pytest.raises(ScenarioError, match="protocol version"):
            parse_sweep_request(
                {"protocol": PROTOCOL_VERSION + 1, "scenarios": [SCENARIO]}
            )

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ScenarioError, match="non-empty"):
            parse_sweep_request({"scenarios": []})

    def test_scenarios_use_the_run_spec_validation_path(self):
        # Unknown scenario fields die in ScenarioSpec.from_dict, exactly
        # as they would for ``repro run-spec``.
        bad = dict(SCENARIO, turbo=True)
        with pytest.raises(ScenarioError):
            parse_sweep_request({"scenarios": [bad]})

    def test_bad_fidelity_rejected(self):
        with pytest.raises(ScenarioError, match="fidelity"):
            parse_sweep_request(
                {"scenarios": [SCENARIO], "fidelity": "exact"}
            )

    def test_forced_model_fidelity_rejected(self):
        with pytest.raises(ScenarioError, match="fidelity"):
            parse_sweep_request(
                {"scenarios": [SCENARIO], "fidelity": "model"}
            )

    @pytest.mark.parametrize("priority", [1.5, "high", True])
    def test_bad_priority_rejected(self, priority):
        with pytest.raises(ScenarioError, match="priority"):
            parse_sweep_request(
                {"scenarios": [SCENARIO], "priority": priority}
            )

    # NaN, Infinity and waits past threading.TIMEOUT_MAX: a pooled
    # engine's wait raised OverflowError on the last two, and spun on NaN.
    @pytest.mark.parametrize(
        "deadline", [-1, "soon", True, float("nan"), float("inf"), 1e10]
    )
    def test_bad_deadline_rejected(self, deadline):
        with pytest.raises(ScenarioError, match="deadline_s"):
            parse_sweep_request(
                {"scenarios": [SCENARIO], "deadline_s": deadline}
            )


class TestFrames:
    def test_end_frame_round_trip(self):
        frame = end_frame(cells=4, streamed=3, from_cache=1, sources={"sim": 3})
        assert decode_frame(encode_frame(frame)) == frame

    def test_error_frame_round_trip(self):
        frame = error_frame("deadline", "expired")
        assert decode_frame(encode_frame(frame)) == frame

    def test_error_frame_rejects_unknown_code(self):
        with pytest.raises(ValueError, match="error code"):
            error_frame("oops", "detail")

    def test_encode_is_one_line(self):
        line = encode_frame(end_frame(cells=1, streamed=1, from_cache=0, sources={}))
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ScenarioError, match="invalid frame JSON"):
            decode_frame(b"{nope")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            decode_frame(b"[1, 2]")

    def test_decode_rejects_unknown_kind(self):
        with pytest.raises(ScenarioError, match="frame kind"):
            decode_frame(b'{"frame": "pixel"}')
